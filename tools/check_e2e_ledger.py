#!/usr/bin/env python3
"""check_e2e_ledger: ratchet the end-to-end allocation ledger.

Reads the output of `python3 e2ebench/run.py --workload W --trace 0` (one
file per workload: the readable report, then the JSON result line) and
compares each workload's `allocs_per_txn` and `alloc_kb_per_txn` with the
committed BENCH_e2e.json. Both are exact counts for a given toolchain: they
do not depend on machine load, so the gate is a ratchet, not a tolerance:

  * any rise fails;
  * a fall of more than 1e-6 (relative) also fails, with "commit the new
    baseline", so a gain is locked in by the change that makes it;
  * a result that is not "correct": true, was run at another seed, or is
    missing for a workload the baseline lists fails too.

Host wall time is not gated here: it is a printed ratio (e2ebench/README.md).
The counts come from the allocator of the toolchain that built the
benchmark, so a compiler or standard-library upgrade is itself a reason to
commit a new baseline.

Usage:
  check_e2e_ledger.py [--baseline BENCH_e2e.json] RESULT.txt [RESULT.txt ...]

Exit status: 0 ok, 1 gate failure, 2 usage/schema error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

from bench_gate import load_bench_json, report

TOOL = "check_e2e_ledger"
METRICS = ("allocs_per_txn", "alloc_kb_per_txn")
FALL_SLACK = 1e-6
HEADER = re.compile(r"^workload (\S+) \(seed (\d+)\)")


def read_result(path: Path) -> tuple[str, int, dict]:
    """-> (workload, seed, result JSON) from one run.py output file."""
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        print(f"{TOOL}: cannot read {path}: {exc}", file=sys.stderr)
        sys.exit(2)
    header = next((m for m in map(HEADER.match, lines) if m), None)
    last = next((ln for ln in reversed(lines) if ln.strip()), "")
    try:
        result = json.loads(last)
    except json.JSONDecodeError:
        result = None
    if header is None or not isinstance(result, dict):
        print(f"{TOOL}: {path} is not e2ebench/run.py output",
              file=sys.stderr)
        sys.exit(2)
    return header.group(1), int(header.group(2)), result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", type=Path, default=Path("BENCH_e2e.json"))
    parser.add_argument("results", nargs="+", type=Path)
    args = parser.parse_args()

    base = load_bench_json(args.baseline, TOOL, bench="e2e",
                           required=("seed", "workloads"))
    failures: list[str] = []
    seen: set[str] = set()
    for path in args.results:
        workload, seed, result = read_result(path)
        seen.add(workload)
        want = base["workloads"].get(workload)
        if want is None:
            failures.append(f"{workload}: not in {args.baseline}")
            continue
        if seed != base["seed"]:
            failures.append(f"{workload}: run at seed {seed}, the baseline "
                            f"is seed {base['seed']}")
            continue
        if result.get("correct") is not True:
            failures.append(f"{workload}: result is not correct")
            continue
        metrics = result.get("metrics", {})
        for name in METRICS:
            if name not in metrics:
                failures.append(f"{workload}: no {name} (run with --trace 0)")
                continue
            cur = float(metrics[name]["value"])
            ref = float(want[name])
            print(f"  {workload:20s} {name:18s} {cur:14.6f}  "
                  f"baseline {ref:14.6f}")
            if cur > ref:
                failures.append(f"{workload}: {name} rose {ref!r} -> {cur!r}")
            elif cur < ref * (1.0 - FALL_SLACK):
                failures.append(f"{workload}: {name} fell {ref!r} -> {cur!r}; "
                                f"commit the new baseline to {args.baseline}")
    for workload in sorted(set(base["workloads"]) - seen):
        failures.append(f"{workload}: no result given")
    return report(TOOL, failures,
                  f"{len(seen)} workload(s) at the committed ledger")


if __name__ == "__main__":
    sys.exit(main())
