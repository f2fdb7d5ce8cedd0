#!/usr/bin/env python3
"""bench_golden: pin the deterministic figure benches to checked-in CSVs.

Runs each named bench binary in default (non-full) mode with
NEXUSPP_BENCH_CSV=1, so every CSV block it emits lands on stdout (the
human tables and notes move to stderr). The only host-dependent column,
`wall_seconds` of the sweep CSVs, is dropped; everything else is a pure
function of the simulator and must match `GOLDEN_DIR/<bench>.csv`
byte for byte.

On a mismatch the tool prints, per sweep block, which columns changed in
how many rows (rows matched by series/label/workload), which rows
appeared or vanished, and the first lines of a unified diff.

Usage:
  tools/bench_golden.py --bench-dir DIR --golden-dir DIR [--update] BENCH...

--update rewrites the fixtures from the current binaries instead of
comparing. Exits 0 when every bench matches, 1 on a mismatch, 2 when a
bench cannot be run.
"""

import argparse
import csv
import difflib
import io
import os
import subprocess
import sys

SWEEP_KEY = ("series", "label", "workload")
DROPPED = "wall_seconds"
DIFF_LINES = 40


def parse_blocks(text):
    """Splits bench stdout into CSV blocks: (header, rows).

    A sweep block starts at a header line that carries `wall_seconds` and
    runs while rows keep the header's width; any other line starts or
    extends a plain (emit_table) block whose first line is its header.
    """
    blocks = []
    for row in csv.reader(io.StringIO(text)):
        current = blocks[-1] if blocks else None
        if DROPPED in row:
            blocks.append((row, []))
        elif (current is not None and DROPPED in current[0]
              and len(row) == len(current[0])):
            current[1].append(row)
        elif current is not None and DROPPED not in current[0]:
            current[1].append(row)
        else:
            blocks.append((row, []))
    return blocks


def normalize(text):
    """The bench's CSV output without the wall_seconds column."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    for header, rows in parse_blocks(text):
        drop = header.index(DROPPED) if DROPPED in header else None
        for row in [header] + rows:
            writer.writerow(
                row if drop is None else row[:drop] + row[drop + 1:])
    return out.getvalue()


def run_bench(path):
    env = {k: v for k, v in os.environ.items()
           if k not in ("NEXUSPP_BENCH_FULL", "NEXUSPP_BENCH_JSON")}
    env["NEXUSPP_BENCH_CSV"] = "1"
    proc = subprocess.run([path], env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{path} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return normalize(proc.stdout)


def keyed(rows, header):
    idx = [header.index(k) for k in SWEEP_KEY]
    return {tuple(r[i] for i in idx): r for r in rows}


def describe(expected, actual):
    """Column-level summary of how `actual` departs from `expected`."""
    lines = []
    old_blocks = parse_blocks(expected)
    new_blocks = parse_blocks(actual)
    if len(old_blocks) != len(new_blocks):
        lines.append(f"  block count {len(old_blocks)} -> {len(new_blocks)}")
    for n, (old, new) in enumerate(zip(old_blocks, new_blocks)):
        (oh, orows), (nh, nrows) = old, new
        if oh != nh:
            lines.append(f"  block {n}: header changed")
            continue
        if not all(k in oh for k in SWEEP_KEY):
            if orows != nrows:
                lines.append(f"  block {n}: table rows differ")
            continue
        okeyed, nkeyed = keyed(orows, oh), keyed(nrows, nh)
        for key in okeyed.keys() - nkeyed.keys():
            lines.append(f"  block {n}: row removed {'/'.join(key)}")
        for key in nkeyed.keys() - okeyed.keys():
            lines.append(f"  block {n}: row added {'/'.join(key)}")
        changed = {}
        for key in okeyed.keys() & nkeyed.keys():
            for col, a, b in zip(oh, okeyed[key], nkeyed[key]):
                if a != b:
                    changed[col] = changed.get(col, 0) + 1
        for col, count in sorted(changed.items()):
            lines.append(f"  block {n}: column {col} differs in "
                         f"{count} row(s)")
    diff = list(difflib.unified_diff(expected.splitlines(),
                                     actual.splitlines(), "golden", "actual",
                                     lineterm="", n=0))
    lines.extend(diff[:DIFF_LINES])
    if len(diff) > DIFF_LINES:
        lines.append(f"  ... {len(diff) - DIFF_LINES} more diff lines")
    return "\n".join(lines)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bench-dir", required=True)
    parser.add_argument("--golden-dir", required=True)
    parser.add_argument("--update", action="store_true")
    parser.add_argument("benches", nargs="+")
    args = parser.parse_args()

    mismatches = 0
    for bench in args.benches:
        fixture = os.path.join(args.golden_dir, bench + ".csv")
        try:
            actual = run_bench(os.path.join(args.bench_dir, bench))
        except (OSError, RuntimeError) as err:
            print(f"{bench}: cannot run: {err}", file=sys.stderr)
            return 2
        if args.update:
            with open(fixture, "w", encoding="utf-8", newline="") as fh:
                fh.write(actual)
            print(f"{bench}: wrote {fixture}")
            continue
        try:
            with open(fixture, encoding="utf-8", newline="") as fh:
                expected = fh.read()
        except OSError as err:
            print(f"{bench}: cannot read fixture: {err}", file=sys.stderr)
            return 2
        if actual == expected:
            print(f"{bench}: matches {fixture}")
        else:
            mismatches += 1
            print(f"{bench}: DIFFERS from {fixture}\n"
                  f"{describe(expected, actual)}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
