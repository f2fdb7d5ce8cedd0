#!/usr/bin/env python3
"""Self-test of the repository benchmark.

    python3 perfbench/selftest.py

Run from the repository root. Runs a short mode (--quick, 1 s) of every
workload through perfbench/run.py, untraced and traced, and asserts that
each metric BENCHMARK.json names for that mode is printed by name with its
unit, both in the report table and in the result line, and that no
operation failed. Then shows that the checks can fail: a completion order
with two dependent tasks swapped (wavefront, traced) and a flipped word of
the closures result (closures, untraced) must each be counted as a failed
operation. Exits 0 when every assertion holds, 1 otherwise.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", "1", "--trace", str(trace),
           "--quick", *extra]
    done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          check=False, timeout=600)
    if done.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {done.returncode}:\n"
                             f"{done.stderr[-2000:]}")
    lines = done.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def check_metrics(workload, trace, wanted):
    report, result = run(workload, trace)
    assert result["correct"] and result["failed"] == 0, (
        f"{workload} trace={trace}: {result['failed']} failed operations:\n"
        + "\n".join(report))
    assert result["attempted"] >= 1
    for m in wanted:
        got = result["metrics"].get(m["name"])
        assert got is not None, f"{workload}: {m['name']} missing"
        assert got["unit"] == m["unit"], f"{workload}: {m['name']} unit"
        assert isinstance(got["value"], (int, float)) and math.isfinite(
            got["value"]), f"{workload}: {m['name']} is not a number"
        assert any(line.split()[:1] == ["*" + m["name"]]
                   and m["unit"] in line.split() for line in report), (
            f"{workload}: {m['name']} not printed with its unit")
    assert any(line.startswith("fail_frac:") for line in report)
    assert any(line.startswith("host: nproc=") for line in report)
    print(f"ok  {workload} trace={trace}: {len(wanted)} metrics, "
          f"{result['attempted']} operations")


def check_detects(workload, trace, corrupt, needle):
    report, result = run(workload, trace, "--corrupt", corrupt)
    failures = [line for line in report if line.strip().startswith("failure:")]
    assert not result["correct"] and result["failed"] >= 1, (
        f"--corrupt {corrupt} was not counted as a failure")
    assert any(needle in line for line in failures), failures
    print(f"ok  {workload} --corrupt {corrupt}: {result['failed']} of "
          f"{result['attempted']} operations failed")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    try:
        for workload in (w["name"] for w in spec["workloads"]):
            check_metrics(workload, 0, spec["end_to_end"])
            check_metrics(workload, 1, spec["per_layer"])
        check_detects("wavefront", 1, "order", "completion order invalid")
        check_detects("closures", 0, "checksum", "checksum differs")
    except AssertionError as err:
        print(f"FAIL {err}")
        return 1
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
