"""The benchmark's own smoke test.

    python3 perfbench/smoke.py

Runs every workload at its tiny size: one timed run (two calibrated
campaigns) and two traced runs.  It checks that

* the workloads and metric names in ``BENCHMARK.json``, ``design.json``
  and the code agree;
* every end-to-end metric is emitted with its unit, and every per-layer
  metric is present in the trace with its unit;
* every run is correct: audits pass, the traced fingerprint equals the
  untraced one, and the layer self times account for the
  ``Environment.run`` span;
* the deterministic per-layer counts repeat exactly across the two
  traced runs of one seed.

Exits 0 when everything holds, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from layers import DETERMINISTIC_COUNTS, PER_LAYER_UNITS  # noqa: E402
from run import END_TO_END_UNITS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 42


def bench(workload: str, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(SEED), "--seconds", "1", "--trace",
           str(trace), "--size", "tiny"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=300)
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not out["correct"]:
        sys.stdout.write(proc.stdout)
        raise AssertionError(f"{workload} trace={trace} is not correct")
    return out


def units(out: dict) -> dict:
    return {name: m["unit"] for name, m in out["metrics"].items()}


def check_names() -> None:
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    with open(os.path.join(HERE, "design.json")) as fh:
        design = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    assert names == list(WORKLOADS) == list(design["workloads"]), names
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        END_TO_END_UNITS
    assert list(design["end_to_end"]) == list(END_TO_END_UNITS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        PER_LAYER_UNITS
    layered = [m for layer in design["layers"].values()
               for m in layer["metrics"]]
    assert sorted(layered) == sorted(PER_LAYER_UNITS), \
        set(layered) ^ set(PER_LAYER_UNITS)
    for layer in design["layers"].values():
        for workloads in layer["moves"].values():
            assert set(workloads) <= set(WORKLOADS), workloads


def main() -> int:
    check_names()
    for workload in WORKLOADS:
        timed = bench(workload, 0)
        assert units(timed) == END_TO_END_UNITS, units(timed)
        first, second = bench(workload, 1), bench(workload, 1)
        assert units(first) == PER_LAYER_UNITS, units(first)
        for name in DETERMINISTIC_COUNTS:
            a = first["metrics"][name]["value"]
            b = second["metrics"][name]["value"]
            assert a == b, f"{workload} {name}: {a} then {b}"
        print(f"{workload}: ok")
    print("smoke: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
