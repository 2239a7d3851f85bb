"""SPHINX simulator benchmark: one command for every workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is a fixed batch campaign (see ``workloads.py`` and
``design.json``).  Every campaign runs in a fresh interpreter
(``campaign.py``), one at a time, with no worker pool.

``--trace 0`` runs ``round(campaigns * S / 28)`` campaigns (at least
two), each with its own seed derived from ``--seed`` (the first is
``--seed`` itself), each under the host-speed calibrator
(``calibrate.py``).  Host times are in reference seconds; the host
seconds are printed beside them.  They are medians over the campaigns,
and peak RSS is their mean.  Simulated outcomes pool the DAGs of all
the campaigns.  Pooling seeds matters: how much work a campaign
does depends on its seed (a DAG stuck until the horizon on
grid3-feedback, the DAG shapes on plan-2500).

``--trace 1`` runs the ``--seed`` campaign untraced, then again under
the external tracer, and reports the per-layer metrics.  The traced
fingerprint must equal the untraced one: the campaign repeats exactly
in a second process and the tracer is passive.  The layer self times
must add up to the ``Environment.run`` span.

Every campaign is audited with ``repro.chaos.check_invariants``.  Any
violation or fingerprint mismatch makes ``correct`` false and the exit
code 1.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from layers import PER_LAYER_UNITS  # noqa: E402
from workloads import RUN_SECONDS, WORKLOADS  # noqa: E402

#: end-to-end metric -> unit; BENCHMARK.json lists the same names
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "jobs_per_s": "1/s",
    "peak_rss_mb": "MB",
    "dag_time_p50_s": "sim_s",
    "dag_time_p95_s": "sim_s",
    "attempts_per_job": "ratio",
    "completed_dag_frac": "ratio",
}

#: one campaign must end well inside the command's 180 s limit
CAMPAIGN_TIMEOUT_S = 170


def campaign_seeds(seed: int, n: int) -> list[int]:
    """``n`` distinct campaign seeds, starting with ``seed``."""
    return [seed + 7919 * i for i in range(n)]


def run_campaign(workload: str, seed: int, size: str, mode: str) -> dict:
    """One campaign in a fresh interpreter; its JSON result.

    ``mode`` is ``calibrate`` (timed runs), ``trace`` or ``bare``.
    """
    cmd = [sys.executable, os.path.join(HERE, "campaign.py"),
           "--workload", workload, "--seed", str(seed), "--size", size]
    if mode != "bare":
        cmd.append(f"--{mode}")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=CAMPAIGN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(
            f"campaign {workload} seed {seed} exited {proc.returncode}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(results: list[dict]) -> dict:
    """The end-to-end metrics of one timed run."""
    dag_times = [t for r in results for t in r["dag_times"]]
    jobs = sum(r["jobs"] for r in results)
    return {
        "setup_s": statistics.median(r["setup_ref_s"] for r in results),
        # How much work a campaign does depends on its seed, with a long
        # tail (a plan-2500 seed may make 4x the events of another): a
        # median over the campaigns shrugs off a heavy seed.
        "wall_s": statistics.median(r["setup_ref_s"] + r["run_ref_s"]
                                    for r in results),
        "jobs_per_s": statistics.median(r["finished_jobs"] / r["run_ref_s"]
                                        for r in results),
        # A campaign's peak grows with the simulated time it covers, so
        # it is two-valued on grid3-feedback (a DAG stuck until the
        # horizon or not), where a median flips between the two; the
        # mean over campaigns is the steadier figure.
        "peak_rss_mb": statistics.fmean(r["rss_mb"] for r in results),
        "dag_time_p50_s": float(np.percentile(dag_times, 50)),
        "dag_time_p95_s": float(np.percentile(dag_times, 95)),
        "attempts_per_job": (jobs + sum(r["resubmissions"]
                                        for r in results)) / jobs,
        "completed_dag_frac": sum(r["finished_dags"] for r in results)
        / sum(r["dags"] for r in results),
    }


def describe(r: dict, label: str = "") -> str:
    ref = (f" = {r['setup_ref_s']:.3f} + {r['run_ref_s']:.3f} ref s"
           if "run_ref_s" in r else "")
    return (f"  {label}seed {r['seed']}: events {r['events']} "
            f"fingerprint {r['fingerprint'][:16]} "
            f"setup {r['setup_host_s']:.3f} s run {r['run_host_s']:.3f} s"
            f"{ref} "
            f"rss {r['rss_mb']:.0f} MB dags {r['finished_dags']}/{r['dags']} "
            f"audit {'ok' if not r['violations'] else r['violations'][:3]}")


def timed(workload: str, seed: int, seconds: int, size: str):
    n = max(2, round(WORKLOADS[workload].campaigns * seconds / RUN_SECONDS))
    results = []
    for s in campaign_seeds(seed, n):
        results.append(run_campaign(workload, s, size, "calibrate"))
        print(describe(results[-1]), flush=True)
    problems = [f"seed {r['seed']}: {v}" for r in results
                for v in r["violations"]]
    metrics = end_to_end(results)
    print(f"  DAGs in the percentiles: {sum(r['dags'] for r in results)}"
          f" from {len(results)} campaigns")
    host_wall = statistics.median(r["setup_host_s"] + r["run_host_s"]
                                  for r in results)
    print(f"  median wall {host_wall:.3f} host s, "
          f"{metrics['wall_s']:.3f} ref s; "
          f"{statistics.median(r['bursts'] for r in results)} reference "
          f"bursts per campaign")
    return metrics, END_TO_END_UNITS, results, problems


def traced(workload: str, seed: int, size: str):
    bare = run_campaign(workload, seed, size, "bare")
    print(describe(bare, "untraced "), flush=True)
    tr = run_campaign(workload, seed, size, "trace")
    print(describe(tr, "traced   "), flush=True)
    problems = [f"seed {r['seed']}: {v}" for r in (bare, tr)
                for v in r["violations"]]
    if (bare["fingerprint"], bare["events"]) != \
            (tr["fingerprint"], tr["events"]):
        problems.append("traced fingerprint differs from the untraced one")
    acc = tr["accounting"]
    if not acc["balanced"] or abs(acc["layers_sum_s"] - acc["run_span_s"]) \
            > 1e-6 * acc["run_span_s"]:
        problems.append(
            f"layer self times {acc['layers_sum_s']!r} s do not account "
            f"for the run span {acc['run_span_s']!r} s"
        )
    metrics = dict(tr["per_layer"])
    bare_wall = bare["setup_host_s"] + bare["run_host_s"]
    overhead = tr["setup_host_s"] + tr["run_host_s"] - bare_wall
    metrics["trace.overhead_s"] = overhead
    metrics["trace.overhead_frac"] = overhead / bare_wall
    print(f"  run span {acc['run_span_s']:.3f} s = sum of layer self times "
          f"{acc['layers_sum_s']:.3f} s; sim.self_s is "
          f"{metrics['sim.self_frac']:.1%} of it")
    for layer, s in sorted(acc["layer_self_s"].items(), key=lambda kv: -kv[1]):
        print(f"    {layer:<11} {s:8.3f} s")
    for title, key in (("process kinds", "top_processes_self_s"),
                       ("RPC handlers", "top_handlers_self_s")):
        print(f"  top {title} by self time:")
        for name, s in acc[key]:
            print(f"    {name:<48} {s:8.3f} s")
    print(f"  tracing overhead {overhead:.3f} s "
          f"({metrics['trace.overhead_frac']:.1%} of {bare_wall:.3f} s)")
    return metrics, PER_LAYER_UNITS, [bare, tr], problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny is the smoke-test size")
    args = parser.parse_args(argv)
    # Turn SIGTERM into an exception, so that subprocess.run kills and
    # reaps the running campaign before this process exits.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isdir(os.path.join(os.path.dirname(HERE), "src", "repro")):
        print("no src/repro next to perfbench/: run from a repository "
              "checkout", file=sys.stderr)
        return 2

    print(f"workload {args.workload} seed {args.seed} "
          f"{'traced' if args.trace else 'timed'}", flush=True)
    if args.trace:
        metrics, units, results, problems = traced(
            args.workload, args.seed, args.size)
    else:
        metrics, units, results, problems = timed(
            args.workload, args.seed, args.seconds, args.size)
    for name, value in metrics.items():
        print(f"  {name:<28} {value:>16.6g} {units[name]}")
    for p in problems:
        print(f"  FAILED: {p}")
    failed = sum(1 for r in results if r["violations"])
    if problems and not failed:
        failed = 1
    print(json.dumps({
        "correct": not problems,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
