"""Run one campaign of one workload in this process and print its result.

    python3 perfbench/campaign.py --workload NAME --seed N [--size tiny]
        [--trace | --calibrate]

``run.py`` starts one of these per campaign, so every campaign runs in a
fresh interpreter and its peak RSS is its own.  The last line of
standard output is one JSON object: host times, peak RSS, the audit
outcome, the fingerprint and the simulated outcomes; with ``--trace``
also the per-layer metrics and the run-span accounting, and the folded
span tree is written to ``perfbench/out/``; with ``--calibrate`` also
the set-up and run times in reference seconds (``calibrate.py``).

Host times come from a wrapper on the public ``Environment.run``:
set-up is scenario construction up to the first call, the run is that
first call (the campaign's kernel run).  The drain grace and the
invariant audit that follow are not timed.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")


def fingerprint(result) -> str:
    """sha256 over per-DAG completion times, jobs per site and
    resubmissions of every server (floats by ``repr``, exact)."""
    doc = {
        label: {
            "dag_times": sorted(srv.dag_completion_times.items()),
            "censored": sorted(srv.censored_dag_times),
            "jobs_per_site": sorted(srv.jobs_per_site.items()),
            "resubmissions": srv.resubmissions,
        }
        for label, srv in sorted(result.servers.items())
    }
    return hashlib.sha256(
        json.dumps(doc, sort_keys=True).encode()
    ).hexdigest()


def audit(outcome) -> list[str]:
    """Invariant violations that fail the campaign.

    A DAG still running when the campaign hits its horizon is a
    scheduling outcome (it enters the DAG-time percentiles at its
    censored elapsed time and lowers ``completed_dag_frac``), not a
    broken run: its ``dag-terminal`` finding is accepted only when the
    horizon was reached and the server's censored count matches.
    Every other violation fails the campaign.
    """
    result = outcome.result
    censored = {label: len(srv.censored_dag_times)
                for label, srv in result.servers.items()}
    unfinished: dict[str, int] = {}
    failures = []
    for v in outcome.report.violations:
        if v.code == "dag-terminal" and result.horizon_reached:
            unfinished[v.server] = unfinished.get(v.server, 0) + 1
            continue
        failures.append(f"{v.code} {v.server}/{v.subject}: {v.detail}")
    for label, n in unfinished.items():
        if censored.get(label) != n:
            failures.append(
                f"dag-terminal {label}: {n} unfinished DAGs but "
                f"{censored.get(label)} censored at the horizon"
            )
    return failures


def run_campaign(workload: str, seed: int, size: str, trace: bool,
                 calibrate: bool = False) -> dict:
    calibrator = None
    if calibrate:
        from calibrate import Calibrator

        # Before the imports below: the calibrator freezes what is alive.
        calibrator = Calibrator()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    # Everything a workload imports is imported here, so set-up time
    # measures building the scenario, not loading modules.
    import repro.chaos.run  # noqa: F401
    import repro.experiments.figures  # noqa: F401
    import repro.federation.runner  # noqa: F401
    from repro.sim.engine import Environment

    from workloads import WORKLOADS

    wl = WORKLOADS[workload]
    tracer = None
    if trace:
        import layers
        from tracer import Tracer

        tracer = Tracer()
        layers.install(tracer)

    marks: list[tuple[float, float]] = []
    run = Environment.run

    def clocked_run(env, until=None):
        if marks:
            return run(env, until)
        start = time.perf_counter()
        try:
            return run(env, until)
        finally:
            marks.append((start, time.perf_counter()))
            if calibrator is not None:
                calibrator.stop()

    Environment.run = clocked_run
    gc.collect()
    if calibrator is not None:
        calibrator.start()
    t0 = time.perf_counter()
    if tracer is not None:
        tracer.active = True
    scenario = wl.build(seed, size)
    outcome = wl.run(scenario, seed)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Environment.run = run

    result = outcome.result
    stats = outcome.report.stats
    dag_times = []
    finished = resubmissions = 0
    for srv in result.servers.values():
        dag_times.extend(srv.dag_completion_times.values())
        dag_times.extend(srv.censored_dag_times)
        finished += len(srv.dag_completion_times)
        resubmissions += srv.resubmissions
    (start, end), = marks[:1]
    out = {
        "workload": workload,
        "seed": seed,
        "violations": audit(outcome),
        "fingerprint": fingerprint(result),
        "events": result.event_count,
        "setup_host_s": start - t0,
        "run_host_s": end - start,
        "rss_mb": rss_mb,
        "dag_times": dag_times,
        "dags": len(dag_times),
        "finished_dags": finished,
        "jobs": stats["jobs"],
        "finished_jobs": stats["finished_jobs"],
        "resubmissions": resubmissions,
    }
    if calibrator is not None:
        out["setup_ref_s"] = calibrator.reference_s(t0, start)
        out["run_ref_s"] = calibrator.reference_s(start, end)
        out["bursts"] = len(calibrator.samples)
        out["rss_mb"] = rss_mb - calibrator.ring_mb
    if tracer is not None:
        tracer.uninstall()
        out["per_layer"] = layers.per_layer_metrics(tracer, {
            "events": result.event_count,
            "rpc_calls": result.rpc_count,
            "finished_jobs": stats["finished_jobs"],
        })
        out["accounting"] = layers.accounting(tracer)
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"trace-{workload}-{seed}-{size}.json")
        with open(path, "w") as fh:
            json.dump({"accounting": out["accounting"],
                       "counts": dict(tracer.counts),
                       "spans": tracer.root.to_dict()}, fh)
    return out


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--trace", action="store_true")
    mode.add_argument("--calibrate", action="store_true")
    args = parser.parse_args(argv)
    out = run_campaign(args.workload, args.seed, args.size, args.trace,
                       args.calibrate)
    print(json.dumps(out), flush=True)
    # Skip interpreter teardown: freeing a campaign's heap object by
    # object takes a second or more and measures nothing.
    os._exit(0)


if __name__ == "__main__":
    main()
