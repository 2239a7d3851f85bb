"""Which public functions of each layer the tracer wraps, and the
per-layer metrics computed from the spans and counts it records.

Wrapping happens on classes and modules, from outside, for the lifetime
of one campaign process; see :mod:`tracer` for how spans are recorded.
"""

from __future__ import annotations

import numpy as np

from tracer import TimedGen, Tracer, gen_identity, layer_of

#: per-layer metric name -> unit; BENCHMARK.json lists the same names
PER_LAYER_UNITS = {
    "sim.events": "count",
    "sim.processes": "count",
    "sim.self_s": "s",
    "sim.us_per_event": "us",
    "sim.self_frac": "ratio",
    "server.ticks": "count",
    "server.tick_self_s": "s",
    "server.tick_ms_p50": "ms",
    "server.tick_ms_p99": "ms",
    "server.useful_tick_frac": "ratio",
    "server.self_s": "s",
    "algorithms.choose_calls": "count",
    "algorithms.candidates_per_call": "count",
    "algorithms.self_s": "s",
    "policies.feasible_calls": "count",
    "policies.sites_checked": "count",
    "policies.feasible_frac": "ratio",
    "policies.self_s": "s",
    "warehouse.ops": "count",
    "warehouse.rows_selected": "count",
    "warehouse.self_s": "s",
    "warehouse.snapshots": "count",
    "rls.lookups": "count",
    "rls.lrc_probes": "count",
    "rls.hit_frac": "ratio",
    "rls.self_s": "s",
    "monitoring.snapshot_calls": "count",
    "monitoring.self_s": "s",
    "rpc.calls": "count",
    "rpc.faults": "count",
    "rpc.handler_self_s": "s",
    "rpc.self_s": "s",
    "client.plans": "count",
    "client.reports": "count",
    "tracker.timeouts": "count",
    "client.self_s": "s",
    "condorg.submits": "count",
    "condorg.cancels": "count",
    "site.submits": "count",
    "site.kills": "count",
    "grid.useful_attempt_frac": "ratio",
    "grid.self_s": "s",
    "gridftp.transfers": "count",
    "network.resumes": "count",
    "network.self_s": "s",
    "background.self_s": "s",
    "federation.lease_rpcs": "count",
    "federation.self_s": "s",
    "other.self_s": "s",
    "setup.grid_s": "s",
    "setup.workload_s": "s",
    "setup.catalog_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_frac": "ratio",
}

#: counts that must repeat exactly across runs of one seed
DETERMINISTIC_COUNTS = tuple(
    name for name, unit in PER_LAYER_UNITS.items()
    if unit == "count" and name != "algorithms.candidates_per_call"
)


def install(tracer: Tracer) -> None:
    """Wrap every traced boundary; :meth:`Tracer.uninstall` undoes it."""
    import repro.experiments.runner
    import repro.federation.runner
    import repro.simgrid.grid
    from repro.core.algorithms import SchedulingAlgorithm
    from repro.core.client import SphinxClient
    from repro.core.policies import PolicyEngine
    from repro.core.server import SphinxServer
    from repro.core.tracker import JobTracker
    from repro.core.warehouse import Table, Warehouse
    from repro.services.condorg import CondorG
    from repro.services.gridftp import GridFtpService
    from repro.services.monitoring import MonitoringService
    from repro.services.rls import (LocalReplicaCatalog, ReplicaLocationIndex,
                                    ReplicaService)
    from repro.services.rpc import RpcBus, RpcFault
    from repro.sim.engine import Environment, Event
    from repro.simgrid.network import NetworkModel
    from repro.simgrid.site import GridSite
    from repro.workflow.generator import WorkloadGenerator

    counts = tracer.counts

    # -- sim: the campaign's run span, process bodies, callbacks ------------
    run = Environment.__dict__["run"]

    def traced_run(env, until=None):
        if not tracer.active or tracer.run_node is not None:
            return run(env, until)
        depth = tracer.depth
        tracer.enter("Environment.run", "sim")
        tracer.run_node = tracer.current
        try:
            return run(env, until)
        finally:
            tracer.exit()
            tracer.run_balanced = tracer.depth == depth
            # The drain grace and the audit that follow stay untraced.
            tracer.active = False

    tracer.patch(Environment, "run", traced_run)

    process = Environment.__dict__["process"]

    def traced_process(env, generator):
        if tracer.active:
            counts["sim.processes"] += 1
            if not isinstance(generator, TimedGen):
                label, layer = gen_identity(generator)
                generator = TimedGen(tracer, generator, label, layer)
            counts["process:" + generator.label] += 1
        return process(env, generator)

    tracer.patch(Environment, "process", traced_process)

    add_callback = Event.__dict__["add_callback"]

    def traced_add_callback(event, fn):
        if tracer.active:
            name = getattr(fn, "__qualname__", type(fn).__qualname__)
            fn = tracer.span(fn, "callback:" + name,
                             layer_of(getattr(fn, "__module__", None)))
        return add_callback(event, fn)

    tracer.patch(Event, "add_callback", traced_add_callback)

    fail = Event.__dict__["fail"]

    def traced_fail(event, exception, *args, **kwargs):
        # RPC results are plain Events; a Process failing with the same
        # fault is its caller not catching it, not a second fault.
        if tracer.active and type(event) is Event and \
                isinstance(exception, RpcFault):
            counts["rpc.faults"] += 1
        return fail(event, exception, *args, **kwargs)

    tracer.patch(Event, "fail", traced_fail)

    # -- server ---------------------------------------------------------------
    tick = SphinxServer.__dict__["tick"]

    def traced_tick(server):
        if not tracer.active:
            return tick(server)
        tracer.tick_useful = False
        tracer.enter("SphinxServer.tick", "server")
        try:
            return tick(server)
        finally:
            tracer.tick_ms.append(tracer.exit() * 1e3)
            if tracer.tick_useful:
                counts["server.useful_ticks"] += 1

    tracer.patch(SphinxServer, "tick", traced_tick)
    for attr in ("drain_notice", "drain_cleared", "checkpoint"):
        tracer.patch_span(SphinxServer, attr, "server")

    # -- algorithms -------------------------------------------------------------
    classes = [SchedulingAlgorithm]
    for cls in classes:
        classes.extend(cls.__subclasses__())
    for cls in classes:
        for attr in ("choose_site", "choose_site_ctx"):
            fn = cls.__dict__.get(attr)
            if fn is None or getattr(fn, "__isabstractmethod__", False):
                continue
            tracer.patch(cls, attr, _choose(tracer, fn,
                                            f"{cls.__name__}.{attr}"))

    # -- policies ---------------------------------------------------------------
    feasible_sites = PolicyEngine.__dict__["feasible_sites"]

    def traced_feasible(engine, user, requirements, sites):
        if not tracer.active:
            return feasible_sites(engine, user, requirements, sites)
        tracer.enter("PolicyEngine.feasible_sites", "policies")
        tracer.feasible_depth += 1
        try:
            out = feasible_sites(engine, user, requirements, sites)
        finally:
            tracer.feasible_depth -= 1
            tracer.exit()
        counts["policies.offered"] += len(sites)
        counts["policies.feasible"] += len(out)
        return out

    tracer.patch(PolicyEngine, "feasible_sites", traced_feasible)
    for attr in ("charge", "refund", "grant", "grant_unlimited"):
        tracer.patch_span(PolicyEngine, attr, "policies")
    remaining = PolicyEngine.__dict__["remaining"]
    probes = tracer.probes

    def counted_remaining(engine, user, site, resource):
        # A quota probe: one (site, resource) the feasibility filter
        # had to check.  Exempt users skip the filter, so none happen.
        if tracer.active and tracer.feasible_depth:
            probes[2] += 1
        return remaining(engine, user, site, resource)

    tracer.patch(PolicyEngine, "remaining", counted_remaining)

    # -- warehouse -------------------------------------------------------------
    for attr in ("insert", "update", "upsert", "delete", "get", "count"):
        tracer.patch_span(Table, attr, "warehouse")
    select = Table.__dict__["select"]

    def traced_select(table, *args, **kwargs):
        if not tracer.active:
            return select(table, *args, **kwargs)
        tracer.enter("Table.select", "warehouse")
        try:
            out = select(table, *args, **kwargs)
        finally:
            tracer.exit()
        counts["warehouse.rows_selected"] += len(out)
        return out

    tracer.patch(Table, "select", traced_select)
    for attr in ("snapshot", "restore"):
        tracer.patch_span(Warehouse, attr, "warehouse")

    # -- rls --------------------------------------------------------------------
    for attr in ("register_replica", "unregister_replica", "locations",
                 "bulk_locations", "exists", "size_of"):
        tracer.patch_span(ReplicaService, attr, "rls")
    tracer.patch_span(ReplicaLocationIndex, "lookup", "rls")
    has = LocalReplicaCatalog.__dict__["has"]

    def counted_has(lrc, lfn):
        # Count-only: one span per probe would cost more than the probe.
        hit = has(lrc, lfn)
        if tracer.active:
            probes[0] += 1
            if hit:
                probes[1] += 1
        return hit

    tracer.patch(LocalReplicaCatalog, "has", counted_has)

    # -- monitoring ---------------------------------------------------------------
    for attr in ("snapshot", "all_snapshots", "staleness_s"):
        tracer.patch_span(MonitoringService, attr, "monitoring")

    # -- rpc ------------------------------------------------------------------------
    call = RpcBus.__dict__["call"]

    def traced_call(bus, proxy, service, method, *args, **kwargs):
        if not tracer.active:
            return call(bus, proxy, service, method, *args, **kwargs)
        counts["rpc.method:" + method] += 1
        tracer.enter("RpcBus.call", "rpc")
        try:
            return call(bus, proxy, service, method, *args, **kwargs)
        finally:
            tracer.exit()

    tracer.patch(RpcBus, "call", traced_call)
    register = RpcBus.__dict__["register"]

    def traced_register(bus, service, method, handler, *args, **kwargs):
        module = getattr(handler, "__module__", None)
        handler = tracer.span(handler, f"handler:{service}.{method}",
                              layer_of(module))
        return register(bus, service, method, handler, *args, **kwargs)

    tracer.patch(RpcBus, "register", traced_register)

    # -- client -----------------------------------------------------------------
    tracer.patch_span(SphinxClient, "stage_external_inputs", "setup")

    def on_track_return(result):
        if getattr(result, "reason", None) == "timeout":
            counts["tracker.timeouts"] += 1

    tracer.patch_gen(JobTracker, "track", "client", on_track_return)

    # -- grid ---------------------------------------------------------------------
    tracer.patch_span(CondorG, "submit", "grid")
    tracer.patch_span(CondorG, "cancel", "grid")
    tracer.patch_span(GridSite, "submit", "grid")
    tracer.patch_span(GridSite, "kill", "grid")

    # -- network ------------------------------------------------------------------
    tracer.patch_gen(GridFtpService, "transfer", "network")
    tracer.patch_gen(GridFtpService, "stage_in", "network")
    tracer.patch_span(GridFtpService, "estimate_s", "network")
    tracer.patch_span(GridFtpService, "has_live_replica", "network")
    tracer.patch_gen(NetworkModel, "transfer_process", "network")

    # -- setup ----------------------------------------------------------------------
    make_grid3 = repro.simgrid.grid.make_grid3
    traced_make_grid3 = tracer.span(make_grid3, "make_grid3", "setup")
    for module in (repro.simgrid.grid, repro.experiments.runner,
                   repro.federation.runner):
        tracer.patch(module, "make_grid3", traced_make_grid3)
    tracer.patch_span(WorkloadGenerator, "generate", "setup")


def _choose(tracer: Tracer, fn, name: str):
    counts = tracer.counts

    def traced_choose(alg, job_id, candidates, *args, **kwargs):
        if not tracer.active:
            return fn(alg, job_id, candidates, *args, **kwargs)
        outer = tracer.choose_depth == 0
        if outer:
            # choose_site_ctx may delegate to choose_site: one decision.
            counts["algorithms.choose_calls"] += 1
            counts["algorithms.candidates"] += len(candidates)
            tracer.tick_useful = True
        tracer.choose_depth += 1
        tracer.enter(name, "algorithms")
        try:
            return fn(alg, job_id, candidates, *args, **kwargs)
        finally:
            tracer.exit()
            tracer.choose_depth -= 1

    return traced_choose


def _ratio(num: float, den: float) -> float:
    return float(num) / den if den else 0.0


def per_layer_metrics(tracer: Tracer, run: dict) -> dict:
    """Per-layer metric values from a traced campaign.

    ``run`` carries what the campaign measured itself: ``events``,
    ``rpc_calls`` and ``finished_jobs``.  Layer self times cover the
    ``Environment.run`` span only; counts cover set-up and run.
    """
    c = tracer.counts
    names = tracer.by_name()
    run_node = tracer.run_node
    layer_self = tracer.layer_self(run_node)
    run_s = run_node.total

    def count(name: str) -> int:
        return names.get(name, (0, 0.0, 0.0))[0]

    def total(name: str) -> float:
        return names.get(name, (0, 0.0, 0.0))[1]

    in_run = tracer.by_name(run_node)
    handler_self = sum(v[2] for k, v in in_run.items()
                       if k.startswith("handler:"))
    lease_rpcs = sum(v[0] for k, v in names.items()
                     if k.startswith("handler:")
                     and k.endswith(".lease_transfer"))
    ticks = tracer.tick_ms
    tick_self = in_run.get("SphinxServer.tick", (0, 0.0, 0.0))[2]
    choose_calls = c["algorithms.choose_calls"]
    condorg_submits = count("CondorG.submit")
    m = {
        "sim.events": run["events"],
        "sim.processes": c["sim.processes"],
        "sim.self_s": layer_self["sim"],
        "sim.us_per_event": _ratio(layer_self["sim"] * 1e6, run["events"]),
        "sim.self_frac": _ratio(layer_self["sim"], run_s),
        "server.ticks": len(ticks),
        "server.tick_self_s": tick_self,
        "server.tick_ms_p50": float(np.percentile(ticks, 50)) if ticks else 0.0,
        "server.tick_ms_p99": float(np.percentile(ticks, 99)) if ticks else 0.0,
        "server.useful_tick_frac": _ratio(c["server.useful_ticks"],
                                          len(ticks)),
        "server.self_s": layer_self["server"],
        "algorithms.choose_calls": choose_calls,
        "algorithms.candidates_per_call": _ratio(c["algorithms.candidates"],
                                                 choose_calls),
        "algorithms.self_s": layer_self["algorithms"],
        "policies.feasible_calls": count("PolicyEngine.feasible_sites"),
        "policies.sites_checked": tracer.probes[2],
        "policies.feasible_frac": _ratio(c["policies.feasible"],
                                         c["policies.offered"]),
        "policies.self_s": layer_self["policies"],
        "warehouse.ops": _outer_count(tracer.root, "Table."),
        "warehouse.rows_selected": c["warehouse.rows_selected"],
        "warehouse.self_s": layer_self["warehouse"],
        "warehouse.snapshots": count("Warehouse.snapshot"),
        "rls.lookups": count("ReplicaLocationIndex.lookup"),
        "rls.lrc_probes": tracer.probes[0],
        "rls.hit_frac": _ratio(tracer.probes[1], tracer.probes[0]),
        "rls.self_s": layer_self["rls"],
        "monitoring.snapshot_calls": count("MonitoringService.snapshot"),
        "monitoring.self_s": layer_self["monitoring"],
        "rpc.calls": run["rpc_calls"],
        "rpc.faults": c["rpc.faults"],
        "rpc.handler_self_s": handler_self,
        "rpc.self_s": layer_self["rpc"],
        "client.plans": c["process:SphinxClient._execute_plan"],
        "client.reports": c["rpc.method:report_status"],
        "tracker.timeouts": c["tracker.timeouts"],
        "client.self_s": layer_self["client"],
        "condorg.submits": condorg_submits,
        "condorg.cancels": count("CondorG.cancel"),
        "site.submits": count("GridSite.submit"),
        "site.kills": count("GridSite.kill"),
        "grid.useful_attempt_frac": _ratio(run["finished_jobs"],
                                           condorg_submits),
        "grid.self_s": layer_self["grid"],
        "gridftp.transfers": c["call:GridFtpService.transfer"],
        "network.resumes": count("NetworkModel.transfer_process"),
        "network.self_s": layer_self["network"],
        "background.self_s": layer_self["background"],
        "federation.lease_rpcs": lease_rpcs,
        "federation.self_s": layer_self["federation"],
        "other.self_s": layer_self["other"] + layer_self["setup"],
        "setup.grid_s": total("make_grid3"),
        "setup.workload_s": total("WorkloadGenerator.generate"),
        "setup.catalog_s": total("SphinxClient.stage_external_inputs"),
    }
    return m


def accounting(tracer: Tracer) -> dict:
    """How the ``Environment.run`` span splits into layer self times."""
    run_node = tracer.run_node
    layer_self = tracer.layer_self(run_node)
    spawned = {k[len("process:"):] for k in tracer.counts
               if k.startswith("process:")}
    in_run = tracer.by_name(run_node)

    def top(names) -> list:
        return sorted(((n, in_run[n][2]) for n in names if n in in_run),
                      key=lambda kv: -kv[1])[:8]

    return {
        "run_span_s": run_node.total,
        "layers_sum_s": sum(layer_self.values()),
        "balanced": tracer.run_balanced,
        "layer_self_s": layer_self,
        "top_processes_self_s": top(spawned),
        "top_handlers_self_s": top(n for n in in_run
                                   if n.startswith("handler:")),
    }


def _outer_count(root, prefix: str) -> int:
    """Spans named ``prefix*`` not nested in another such span."""
    out = 0
    stack = [root]
    while stack:
        node = stack.pop()
        for child in node.children.values():
            if child.name.startswith(prefix):
                out += child.count
            else:
                stack.append(child)
    return out


__all__ = ["DETERMINISTIC_COUNTS", "PER_LAYER_UNITS", "accounting", "install",
           "per_layer_metrics"]
