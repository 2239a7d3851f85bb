"""The benchmark's four campaign workloads.

Each workload is a fixed batch campaign: every DAG is submitted at
simulated t=0 and the campaign runs until all finish or the horizon
hits, in one process with no worker pool.  ``full`` is the benchmark
size; ``tiny`` is the smoke-test size with the same shape.  Why each
workload was chosen, and which layers it stresses, is recorded in
``design.json`` next to this file.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Workload:
    name: str
    #: (seed, size) -> scenario
    build: Callable
    #: (scenario, seed) -> audited ChaosRunResult
    run: Callable
    #: campaigns in a run of ``RUN_SECONDS``; a run of ``--seconds S``
    #: makes ``round(campaigns * S / RUN_SECONDS)``, at least two
    campaigns: int


#: the run length ``campaigns`` is given for (BENCHMARK.json run_seconds)
RUN_SECONDS = 28


def _plain(scenario, seed):
    from repro.chaos.plan import ChaosPlan
    from repro.chaos.run import run_chaos

    return run_chaos(scenario, ChaosPlan())


def _evicting(scenario, seed):
    from repro.chaos.plan import make_plan
    from repro.chaos.run import run_chaos

    return run_chaos(scenario, make_plan("spot-eviction", seed))


def _federated(scenario, seed):
    from repro.chaos.plan import ChaosPlan
    from repro.federation.runner import run_federation_chaos

    return run_federation_chaos(scenario, ChaosPlan())


def _plan_2500(seed, size):
    from repro.experiments.figures import ext_scale_scenario

    if size == "tiny":
        return ext_scale_scenario(100, 100, seed=seed)
    return ext_scale_scenario(2500, 2000, seed=seed)


def _grid3_feedback(seed, size):
    from repro.experiments.figures import fig2_scenario

    if size == "tiny":
        return fig2_scenario(3, seed=seed, horizon_s=6 * 3600.0)
    return fig2_scenario(60, seed=seed)


def _evict_quota(seed, size):
    from repro.experiments.figures import ext_eviction_scenario

    if size == "tiny":
        return ext_eviction_scenario(30, 4, seed=seed)
    return ext_eviction_scenario(250, 120, seed=seed)


def _fed_3shard(seed, size):
    from repro.federation.runner import ext_federation_scenario

    if size == "tiny":
        return ext_federation_scenario(3, dags_per_user=2, n_sites=30,
                                       seed=seed)
    return ext_federation_scenario(3, dags_per_user=40, n_sites=250,
                                   seed=seed)


# How much work a campaign does depends on its seed, with a long tail:
# a plan-2500 seed may make 4x the events of another, and a
# grid3-feedback campaign with a DAG stuck until the horizon runs 30%
# longer and peaks 40% higher in RSS.  On evict-quota and fed-3shard the
# work varies by 3-8% and three calibrated campaigns hold wall_s within
# 6% over ten runs.  So the seed-heavy workloads get more campaigns,
# within the time a full benchmark pass may take: a full campaign takes
# 7-10 host s on plan-2500 and grid3-feedback and 4-6 s on the others
# (2-core x86 VM), and a run 13-45 s.
WORKLOADS = {
    w.name: w for w in (
        Workload("plan-2500", _plan_2500, _plain, 4),
        Workload("grid3-feedback", _grid3_feedback, _plain, 5),
        Workload("evict-quota", _evict_quota, _evicting, 3),
        Workload("fed-3shard", _fed_3shard, _federated, 3),
    )
}
