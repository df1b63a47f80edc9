#!/usr/bin/env python3
"""check_e2e_ledger: ratchet the end-to-end allocation ledger.

Reads the output of `python3 e2ebench/run.py --workload W --trace T` (one
file per workload and trace mode: the readable report, then the JSON result
line) and compares each workload's exact counts with the committed
BENCH_e2e.json:

  * untraced runs (--trace 0): `allocs_per_txn` and `alloc_kb_per_txn`;
  * traced runs (--trace 1): the per-layer allocation counts
    (`alloc.<layer>.per_txn` of the workload driver, core, station,
    middleware, host_db, host_web and unattributed layers) and
    `sim.events_per_txn`.

A run's mode is read from the metrics its result carries. All of these are
exact counts for a given toolchain: they do not depend on machine load, so
the gate is a ratchet (bench_gate.ratchet), not a tolerance:

  * any rise fails;
  * a fall of more than 1e-6 (relative) also fails, with "commit the new
    baseline", so a gain is locked in by the change that makes it;
  * a result that is not "correct": true, was run at another seed, or is
    missing for a workload (or, where the baseline lists traced counts, for
    its traced run) fails too.

Host wall time is not gated here: it is a printed ratio (e2ebench/README.md).
The counts come from the allocator of the toolchain that built the
benchmark, so a compiler or standard-library upgrade is itself a reason to
commit a new baseline.

Usage:
  check_e2e_ledger.py [--baseline BENCH_e2e.json] RESULT.txt [RESULT.txt ...]

A workload's traced counts live in BENCH_e2e.json next to its untraced
ones, under the metric names above.

Exit status: 0 ok, 1 gate failure, 2 usage/schema error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

from bench_gate import load_bench_json, ratchet, report

TOOL = "check_e2e_ledger"
UNTRACED = ("allocs_per_txn", "alloc_kb_per_txn")
TRACED = ("alloc.workload.per_txn", "alloc.core.per_txn",
          "alloc.station.per_txn", "alloc.middleware.per_txn",
          "alloc.host_db.per_txn", "alloc.host_web.per_txn",
          "alloc.unattributed.per_txn", "sim.events_per_txn")
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
    seen: dict[str, set[str]] = {}  # workload -> {"untraced", "traced"}
    for path in args.results:
        workload, seed, result = read_result(path)
        metrics = result.get("metrics", {})
        traced = TRACED[-1] in metrics
        mode = "traced" if traced else "untraced"
        seen.setdefault(workload, set()).add(mode)
        want = base["workloads"].get(workload)
        if want is None:
            failures.append(f"{workload}: not in {args.baseline}")
            continue
        if seed != base["seed"]:
            failures.append(f"{workload}: run at seed {seed}, the baseline "
                            f"is seed {base['seed']}")
            continue
        if result.get("correct") is not True:
            failures.append(f"{workload} ({mode}): result is not correct")
            continue
        for name in TRACED if traced else UNTRACED:
            if name not in metrics:
                failures.append(f"{workload}: no {name} in the {mode} run")
                continue
            if name not in want:
                if traced:
                    continue  # the baseline does not ratchet traced counts
                failures.append(f"{workload}: no {name} in {args.baseline}")
                continue
            cur = float(metrics[name]["value"])
            ref = float(want[name])
            print(f"  {workload:20s} {name:26s} {cur:14.6f}  "
                  f"baseline {ref:14.6f}")
            ratchet(workload, name, cur, ref, args.baseline, failures)
    for workload, want in sorted(base["workloads"].items()):
        modes = seen.get(workload, set())
        if "untraced" not in modes:
            failures.append(f"{workload}: no result given")
        if any(name in want for name in TRACED) and "traced" not in modes:
            failures.append(f"{workload}: no --trace 1 result given")
    return report(TOOL, failures,
                  f"{len(seen)} workload(s) at the committed ledger")


if __name__ == "__main__":
    sys.exit(main())
