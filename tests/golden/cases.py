"""The fingerprinted cases and the fingerprint itself.

Every case runs through the chaos facade (:func:`repro.chaos.run_chaos`
or :func:`repro.federation.run_federation_chaos`), so each fingerprinted
run is also audited by ``check_invariants``.  All but one case use the
inert ``ChaosPlan()``, which is pinned bit-identical to a bare run; the
eviction case runs the ``spot-eviction`` preset, the churn its scenario
exists for.

A fingerprint is the run's kernel event count plus a sha256 over the
decisions it produced: per-DAG completion times (finished and
censored), jobs per site, resubmissions and timeouts, per server.
"""

from __future__ import annotations

import hashlib
import json
from typing import Callable

from repro.chaos.plan import ChaosPlan, make_plan
from repro.chaos.run import run_chaos
from repro.experiments.figures import ext_eviction_scenario, ext_scale_scenario
from repro.experiments.parallel import default_suite
from repro.federation.runner import (ext_federation_scenario,
                                     run_federation_chaos)

__all__ = ["CASES", "fingerprint", "run_case"]

SEED = 42
SUITE_SCALE = 0.1


def _suite_cases() -> dict[str, Callable]:
    return {
        case.name: (lambda sc=case.scenario: run_chaos(sc, ChaosPlan()))
        for case in default_suite(scale=SUITE_SCALE, seed=SEED)
    }


CASES: dict[str, Callable] = {
    **_suite_cases(),
    "ext-scale-100x200": lambda: run_chaos(
        ext_scale_scenario(100, 200, seed=SEED), ChaosPlan()),
    "ext-eviction-30x4-inert": lambda: run_chaos(
        ext_eviction_scenario(30, 4, seed=SEED), ChaosPlan()),
    "ext-eviction-30x4-spot": lambda: run_chaos(
        ext_eviction_scenario(30, 4, seed=SEED),
        make_plan("spot-eviction", SEED)),
    "ext-federation-3shards": lambda: run_federation_chaos(
        ext_federation_scenario(3, dags_per_user=2, n_sites=30, seed=SEED),
        ChaosPlan()),
}


def run_case(name: str):
    """Run one case; returns its audited ``ChaosRunResult``."""
    return CASES[name]()


def fingerprint(chaos_result) -> dict:
    """``{"events": N, "sha256": hex}`` for one audited run."""
    result = chaos_result.result
    decisions = {
        label: {
            "dag_completion_times": sorted(s.dag_completion_times.items()),
            "censored_dag_times": sorted(s.censored_dag_times),
            "jobs_per_site": sorted(s.jobs_per_site.items()),
            "resubmissions": s.resubmissions,
            "timeouts": s.timeouts,
        }
        for label, s in sorted(result.servers.items())
    }
    # json writes floats with repr(), which round-trips exactly.
    blob = json.dumps(decisions, sort_keys=True).encode()
    return {
        "events": result.event_count,
        "sha256": hashlib.sha256(blob).hexdigest(),
    }
