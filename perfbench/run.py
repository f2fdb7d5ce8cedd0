#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ (which builds the project
library from this checkout) into .bench_build/perfbench, runs one workload,
prints the host metadata and every metric with its quartiles and sample
count, and ends with one JSON line: {"correct", "attempted", "failed",
"metrics"}. With --trace 0 the metrics are BENCHMARK.json's end_to_end
list, with --trace 1 its per_layer list; the traced run's span file is
checked with tools/validate_trace_events.py. See perfbench/README.md.

Exits 1 without a result line when the build or the run fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def cached_source_dir(build_dir):
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if not os.path.exists(cache):
        return None
    with open(cache, encoding="utf-8", errors="replace") as fh:
        for line in fh:
            if line.startswith("CMAKE_HOME_DIRECTORY:INTERNAL="):
                return line.split("=", 1)[1].strip()
    return None


def build():
    """Configures and builds (incrementally); returns the binary path."""
    if cached_source_dir(BUILD_DIR) not in (None, HERE):
        shutil.rmtree(BUILD_DIR)  # a build tree of another checkout
    subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   check=True, stdout=sys.stderr)
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(BUILD_DIR, "perfbench")


def compiler_path():
    with open(os.path.join(BUILD_DIR, "CMakeCache.txt"),
              encoding="utf-8", errors="replace") as fh:
        for line in fh:
            if line.startswith("CMAKE_CXX_COMPILER:"):
                return line.split("=", 1)[1].strip()
    return "unknown"


def validate_spans(path):
    """Runs the repository's trace-event schema check; returns an error."""
    tool = os.path.join(ROOT, "tools", "validate_trace_events.py")
    if not os.path.exists(tool):
        return "tools/validate_trace_events.py is missing"
    done = subprocess.run([sys.executable, tool, path], capture_output=True,
                          text=True, check=False, timeout=RUN_TIMEOUT_S)
    log(done.stdout.strip())
    return None if done.returncode == 0 else (
        "span file fails validation: " + done.stdout.strip())


def print_report(result, spec_units, compiler):
    meta = result["meta"]
    print(f"perfbench {result['workload']}: seed={result['seed']} "
          f"seconds={result['seconds']} trace={result['trace']}")
    print(f"host: nproc={meta['nproc']} workers={meta['workers']} "
          f"cpu=\"{meta['cpu_model']}\"")
    print(f"build: compiler={compiler} ({meta['compiler']}) "
          f"build_type={meta['build_type']}")
    print(f"reps: {json.dumps(meta['reps'])} notes: "
          f"{json.dumps(result['notes'])}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"fail_frac: {failed / attempted:.6g} "
          f"(failed {failed} of {attempted} operations)")
    for failure in result["failures"]:
        print(f"  failure: {failure}")
    print(f"{'metric':44} {'value':>14} {'unit':8} {'at':>4} {'q1':>14} "
          f"{'q3':>14} {'n':>5}")
    for name, m in result["metrics"].items():
        mark = "*" if name in spec_units else " "
        print(f"{mark}{name:43} {m['value']:14.6g} {m['unit']:8} "
              f"{m['at']:4.2f} {m['q1']:14.6g} {m['q3']:14.6g} {m['n']:5d}")
    print("(value = the quantile 'at' of the samples, the median unless "
          "noted; * = reported in the result line below)")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--quick", action="store_true",
                        help="small inputs (the self-test)")
    parser.add_argument("--corrupt", choices=("order", "checksum"),
                        help="feed one check wrong data (the self-test)")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    try:
        exe = build()
    except (OSError, subprocess.CalledProcessError) as err:
        log(f"run.py: build failed: {err}")
        return 1

    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    spans = None
    if args.trace:
        spans = os.path.join(ROOT, ".bench_build", "spans",
                             f"{args.workload}.json")
        os.makedirs(os.path.dirname(spans), exist_ok=True)
        cmd += ["--spans", spans]
    if args.quick:
        cmd.append("--quick")
    if args.corrupt:
        cmd += ["--corrupt", args.corrupt]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              check=False, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("run.py: perfbench timed out")
        return 1
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        log(f"run.py: perfbench exited with {done.returncode}")
        return 1
    result = json.loads(lines[-1])

    if spans is not None:
        error = validate_spans(spans)
        result["attempted"] += 1
        if error:
            result["failed"] += 1
            result["failures"].append(error)

    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None:
            log(f"run.py: perfbench did not report {m['name']}")
            return 1
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
        result["attempted"] += 1
        if got["unit"] != m["unit"]:
            result["failed"] += 1
            result["failures"].append(
                f"{m['name']} is reported in {got['unit']}, "
                f"BENCHMARK.json says {m['unit']}")

    print_report(result, metrics, compiler_path())
    print(json.dumps({"correct": result["failed"] == 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
