"""The incremental site-view cache must be decision-identical.

After every kind of state transition the cached view, and every
candidate list the planner hands an algorithm, equals a from-scratch
rebuild (the cache path and the reference both call
``_build_site_view``, so equality means the invalidation hooks fired
where they had to).  End to end, the golden fingerprints in
``tests/golden`` pin the decisions the cached planner makes.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ServerConfig, SphinxServer
from repro.core.serialize import dag_to_payload
from repro.services import MonitoringService, ReplicaService, RpcBus
from repro.sim import Environment
from repro.sim.rng import RngStreams
from repro.simgrid import Grid
from repro.simgrid.grid import SiteSpec
from repro.workflow import Dag, Job, LogicalFile


def _stack(n_sites=3, **config_kw):
    env = Environment()
    grid = Grid(env, RngStreams(0))
    for i in range(n_sites):
        grid.add_site(SiteSpec(f"s{i}", n_cpus=4,
                               background_utilization=0.0,
                               service_noise_sigma=0.0))
    bus = RpcBus(env)
    rls = ReplicaService(env, grid.site_names)
    monitoring = MonitoringService(env, grid, update_interval_s=60.0)
    config = ServerConfig(name="t", algorithm="round-robin", tick_s=1.0,
                          **config_kw)
    server = SphinxServer(env, bus, config,
                          {s: 4 for s in grid.site_names}, monitoring, rls)
    server.policy.grant_unlimited("/VO=v/CN=u")
    return env, server


def _dag(dag_id):
    return Dag(dag_id, [
        Job(f"{dag_id}.a", outputs=(LogicalFile(f"{dag_id}.a.out", 1.0),)),
        Job(f"{dag_id}.b", inputs=(LogicalFile(f"{dag_id}.a.out", 1.0),)),
    ])


def _fresh_view(server, site):
    """A from-scratch rebuild, bypassing the cache entirely."""
    return server._build_site_view(site, server.monitoring.snapshot(site))


def _assert_views_match(server, grid_sites):
    for site in grid_sites:
        assert server._site_view(site) == _fresh_view(server, site), site


def test_cache_hit_returns_same_object():
    env, server = _stack()
    v1 = server._site_view("s0")
    assert server._site_view("s0") is v1


def test_cache_invalidated_by_planning_transitions():
    env, server = _stack()
    sites = ("s0", "s1", "s2")
    _assert_views_match(server, sites)
    server._rpc_submit_dag("c0", "/VO=v/CN=u", dag_to_payload(_dag("d0")))
    env.run(until=env.timeout(3.0))  # ticks plan the ready job
    _assert_views_match(server, sites)
    planned = server.warehouse.table("jobs").select({"state": "planned"})
    assert planned, "expected the tick to plan a job"
    # The planned counter moved on some site; its cached view must have
    # been dropped, not served stale.
    site = planned[0]["site"]
    view = server._site_view(site)
    assert view.planned_jobs >= 1
    assert view == _fresh_view(server, site)


def test_cache_invalidated_by_monitoring_refresh():
    env, server = _stack()
    # The monitoring service takes its first poll at construction.
    before = server._site_view("s0")
    assert before.monitored_queued == 0
    first_snap = server._view_snap["s0"]
    for n in range(6):  # 4 CPUs: the next poll sees 2 queued
        server.monitoring.grid.site("s0").submit(
            f"bg{n}", runtime_s=500.0, detached=True)
    env.run(until=env.timeout(61.0))  # one monitoring poll elapses
    _assert_views_match(server, ("s0", "s1", "s2"))
    # The snapshot identity check must have rebuilt against the new
    # poll, not served the pre-poll view (whose queue was still empty).
    assert server._view_snap["s0"] is server.monitoring.snapshot("s0")
    assert server._view_snap["s0"] is not first_snap
    assert server._site_view("s0").monitored_queued == 2


def test_recovery_clears_cache():
    env, server = _stack()
    server._site_view("s0")
    snap = server.warehouse.snapshot()
    server.warehouse.restore(snap)
    server._rebuild_site_counters()
    assert not server._view_cache
    _assert_views_match(server, ("s0", "s1", "s2"))


@given(
    ops=st.lists(
        st.tuples(st.integers(0, 5),        # dag id to submit
                  st.floats(0.5, 30.0)),    # then run this long
        min_size=1, max_size=6,
    )
)
@settings(max_examples=20, deadline=None)
def test_property_cached_views_equal_rebuild(ops):
    """Across randomized submit/run interleavings (planning passes,
    monitoring refreshes, estimator updates all fire at arbitrary
    points), every cached view equals a full rebuild."""
    env, server = _stack()
    sites = ("s0", "s1", "s2")
    seen = set()
    for dag_n, run_s in ops:
        if dag_n not in seen:
            seen.add(dag_n)
            server._rpc_submit_dag("c0", "/VO=v/CN=u",
                                   dag_to_payload(_dag(f"d{dag_n}")))
        env.run(until=env.timeout(run_s))
        _assert_views_match(server, sites)


# -- the planner's candidate-view list ---------------------------------------
#
# ``_candidate_views`` projects the per-site cache onto a list aligned
# with the catalog and refreshes only dirty entries.  Whatever the
# candidate set, the list it hands the algorithm must equal a fresh
# rebuild of every candidate at that instant.

QUOTA_USER = "/VO=v/CN=q"
REQS = {"cpu_seconds": 10.0}


def _assert_list_matches(server, candidates):
    views = server._candidate_views(candidates)
    assert [v.name for v in views] == list(candidates)
    assert views == [_fresh_view(server, s) for s in candidates]


def _candidate_sets(server):
    catalog = server._catalog_sites
    return (
        catalog,
        server.policy.feasible_sites(QUOTA_USER, REQS, catalog),
        server.feedback.reliable_sites(catalog),
        tuple(s for s in catalog if s not in server._draining),
        catalog[::-1],
    )


def _spy_on_planner(server, seen):
    """Check every list the planner hands the algorithm, at that instant."""
    choose = server.algorithm.choose_site

    def checked(job_id, views):
        names = [v.name for v in views]
        assert list(views) == [_fresh_view(server, s) for s in names], job_id
        seen.append((job_id, names))
        return choose(job_id, views)

    server.algorithm.choose_site = checked


def _quota_stack(n_sites=4):
    env, server = _stack(n_sites=n_sites, use_feedback=True)
    # The quota user may only run on the even-numbered sites.
    for i in range(0, n_sites, 2):
        server.policy.grant(QUOTA_USER, f"s{i}", "cpu_seconds", 1e6)
    return env, server


def _quota_dag(dag_id):
    return Dag(dag_id, [Job(f"{dag_id}.a", requirements=REQS)])


_OPS = ("submit", "submit-quota", "load", "poll", "complete", "drain",
        "clear", "unreliable", "reliable", "rebuild", "run")


@given(
    ops=st.lists(st.tuples(st.sampled_from(_OPS), st.integers(0, 3)),
                 min_size=1, max_size=12),
)
@settings(max_examples=25, deadline=None)
def test_property_candidate_list_equals_rebuild(ops):
    """Across planning passes (full-catalog, quota-, feedback- and
    drain-filtered candidates), monitoring polls over changing site
    load, estimator updates, feedback flips and recovery rebuilds,
    every candidate list equals a fresh rebuild of its sites."""
    env, server = _quota_stack()
    seen = []
    _spy_on_planner(server, seen)
    jobs = server.warehouse.table("jobs")
    for n, (op, arg) in enumerate(ops):
        site = f"s{arg}"
        if op == "submit":
            server._rpc_submit_dag("c0", "/VO=v/CN=u",
                                   dag_to_payload(_dag(f"d{n}")))
        elif op == "submit-quota":
            server._rpc_submit_dag("c0", QUOTA_USER,
                                   dag_to_payload(_quota_dag(f"q{n}")))
        elif op == "load":
            # Work the next monitoring poll will see at this site.
            server.monitoring.grid.site(site).submit(
                f"bg{n}", runtime_s=500.0, detached=True)
        elif op == "poll":
            env.run(until=env.now + 60.0)
        elif op == "complete":
            active = jobs.select(
                predicate=lambda r: r["state"] in ("planned", "submitted"))
            if active:
                row = active[arg % len(active)]
                server._rpc_report_status(row["job_id"], "completed",
                                          row["site"],
                                          completion_time_s=30.0 + arg)
        elif op == "drain":
            server.drain_notice(site)
        elif op == "clear":
            server.drain_cleared(site)
        elif op == "unreliable":
            while server.feedback.is_reliable(site):
                server.feedback.record_cancellation(site)
        elif op == "reliable":
            while not server.feedback.is_reliable(site):
                server.feedback.record_completion(site)
        elif op == "rebuild":
            server._rebuild_site_counters()
        env.run(until=env.now + 1.5)  # a planning pass
        for candidates in _candidate_sets(server):
            _assert_list_matches(server, candidates)
    env.run(until=env.now + 61.0)
    for candidates in _candidate_sets(server):
        _assert_list_matches(server, candidates)


def test_candidate_list_covers_filtered_plans():
    """The spy sees full-catalog, quota-filtered, drain-filtered and
    feedback-filtered plans, each list equal to a fresh rebuild."""
    env, server = _quota_stack()
    seen = []
    _spy_on_planner(server, seen)
    server._rpc_submit_dag("c0", "/VO=v/CN=u", dag_to_payload(_dag("d0")))
    server._rpc_submit_dag("c0", QUOTA_USER, dag_to_payload(_quota_dag("q0")))
    env.run(until=2.0)
    server.drain_notice("s1")
    server._rpc_submit_dag("c0", "/VO=v/CN=u", dag_to_payload(_dag("d1")))
    env.run(until=4.0)
    server.drain_cleared("s1")
    while server.feedback.is_reliable("s3"):
        server.feedback.record_cancellation("s3")
    server._rpc_submit_dag("c0", "/VO=v/CN=u", dag_to_payload(_dag("d2")))
    env.run(until=6.0)
    assert [names for _, names in seen] == [
        ["s0", "s1", "s2", "s3"],
        ["s0", "s2"],
        ["s0", "s2", "s3"],
        ["s0", "s1", "s2"],
    ]


def test_full_catalog_plan_gets_the_list_itself():
    env, server = _stack()
    views = server._candidate_views(server._catalog_sites)
    assert views is server._view_list
    sub = server._candidate_views(("s2", "s0"))
    assert sub is not views
    assert sub == [views[2], views[0]]


def test_recovery_drops_candidate_list():
    env, server = _stack()
    server._candidate_views(server._catalog_sites)
    server._rebuild_site_counters()
    assert server._view_list is None
    _assert_list_matches(server, server._catalog_sites)


def test_federation_digest_invalidates_candidate_list():
    from tests.federation.fedstack import FedStack

    stack = FedStack(n_shards=2, n_sites=3)
    server = next(iter(stack.servers.values()))
    assert server._view_list is None  # enable_federation dropped it
    catalog = server._catalog_sites
    before = server._candidate_views(catalog)
    assert before[1].planned_jobs == 0
    peer = next(lbl for lbl in stack.servers if lbl != server.shard_label)
    server._rpc_load_digest({
        "shard": peer, "seq": 1, "issued_at": stack.env.now,
        "sites": {"s1": [2, 3]}, "inflight_dags": 1,
    })
    _assert_list_matches(server, catalog)
    views = server._candidate_views(catalog)
    assert (views[1].planned_jobs, views[1].unfinished_jobs) == (2, 3)
    _assert_list_matches(server, ("s1", "s2"))


def test_one_plan_rebuilds_only_the_planned_site(monkeypatch):
    """After a plan, the next plan rebuilds one view, not one per site."""
    import repro.core.server as server_mod

    env, server = _stack(n_sites=6)
    server._rpc_submit_dag("c0", "/VO=v/CN=u", dag_to_payload(_dag("d0")))
    env.run(until=2.0)  # first poll, first plan
    (planned,) = server.warehouse.table("jobs").select({"state": "planned"})
    built = []
    real = server_mod.SiteView

    def counting(**kw):
        built.append(kw["name"])
        return real(**kw)

    monkeypatch.setattr(server_mod, "SiteView", counting)
    server._rpc_submit_dag("c0", "/VO=v/CN=u", dag_to_payload(_dag("d1")))
    env.run(until=4.0)
    assert len(server.warehouse.table("jobs").select({"state": "planned"})) \
        == 2
    assert built == [planned["site"]]
