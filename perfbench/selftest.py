#!/usr/bin/env python3
"""Tiny-size self-test of every benchmark workload.

    python3 perfbench/selftest.py

Runs each workload of BENCHMARK.json at --size tiny for one second, with
and without tracing, and asserts that the result line carries exactly the
metrics BENCHMARK.json names (each with its unit), that no request failed,
and that the stamp lists every correctness check the workload must run.
Run it from the root of the checkout; it builds like run.py does.
"""

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

# The correctness checks each workload must report as run.
REQUIRED_CHECKS = {
    "monitor": {"reconciliation", "wire_equals_in_process"},
    "tagging": {"reconciliation", "wire_equals_in_process", "durable_recovery"},
    "crowd": {"reconciliation", "wire_equals_in_process", "crowd_repeats"},
}


def run(workload, trace):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace),
         "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited "
                             f"{out.returncode}:\n{out.stderr[-3000:]}")
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            stamp, result = run(workload, trace)
            where = f"{workload} trace={trace}"
            assert set(result) == {"correct", "attempted", "failed",
                                   "metrics"}, where
            assert result["correct"] is True, where
            assert result["attempted"] >= 1 and result["failed"] == 0, where
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == expected[trace], f"{where}: metrics {got}"
            for name, metric in result["metrics"].items():
                assert isinstance(metric["value"], (int, float)), (where, name)
            missing = REQUIRED_CHECKS[workload] - set(stamp["checks"])
            assert not missing, f"{where}: checks not run: {missing}"
            assert stamp["stamp"]["seed"] == 7, where
            print(f"ok  {where}")
    print("selftest passed")


if __name__ == "__main__":
    main()
