#!/usr/bin/env python3
"""check_microbench: gate a bench/kernel or bench/protocol run on its
committed baseline (BENCH_kernel.json or BENCH_protocol.json).

Per workload, every deterministic column is a ratchet (bench_gate.ratchet):
any rise fails, and a fall fails until the baseline is re-committed.

  * rates, compared at every scale: the kernel's `allocs_per_op` (counted
    on a warmed kernel) and the protocol codecs' `bytes_per_req` and
    `allocs_per_req` (counted after a warm-up). They do not depend on the
    run's length or on machine load, so a smoke run gates them too;
  * totals, compared only when the run's scale is the baseline's: `ops`
    and, for the kernel, `trace_hash`, which must be equal: a kernel that
    replays the schedule differently is a different simulator.

The one wall-clock check is an absolute floor: `ops_per_sec` may fall at
most --tolerance below the baseline, also only at the baseline's scale.

Usage:
  check_microbench.py --baseline BENCH_kernel.json --current fresh.json \
      [--tolerance 0.20]

Exit status: 0 ok, 1 gate failure, 2 usage/schema error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from bench_gate import load_bench_json, ratchet, report

TOOL = "check_microbench"
# bench -> (rates gated at every scale, totals gated at the baseline's scale)
COLUMNS = {
    "kernel": (("allocs_per_op",), ("ops",)),
    "protocol": (("bytes_per_req", "allocs_per_req"), ("ops",)),
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", required=True, type=Path)
    parser.add_argument("--current", required=True, type=Path)
    parser.add_argument("--tolerance", type=float, default=0.20,
                        help="allowed fractional ops/sec drop (default 0.20)")
    args = parser.parse_args()

    baseline = load_bench_json(args.baseline, TOOL, required=("workloads",))
    bench = baseline.get("bench")
    if bench not in COLUMNS:
        print(f"{TOOL}: {args.baseline} is not a kernel or protocol bench "
              "JSON", file=sys.stderr)
        return 2
    current = load_bench_json(args.current, TOOL, bench=bench,
                              required=("workloads",))
    rates, totals = COLUMNS[bench]

    same_scale = all(current.get(k) == baseline.get(k)
                     for k in ("smoke", "total_events"))
    if not same_scale:
        print(f"{TOOL}: scales differ (smoke run?); gating the rates only")

    failures: list[str] = []
    for name, base in baseline["workloads"].items():
        cur = current["workloads"].get(name)
        if cur is None:
            failures.append(f"{name}: missing from current run")
            continue
        for col in rates + (totals if same_scale else ()):
            ratchet(name, col, float(cur[col]), float(base[col]),
                    args.baseline, failures)
        if same_scale:
            if "trace_hash" in base and cur["trace_hash"] != base["trace_hash"]:
                failures.append(
                    f"{name}: trace_hash changed {base['trace_hash']} -> "
                    f"{cur['trace_hash']}: the kernel replayed a different "
                    "schedule")
            floor = base["ops_per_sec"] * (1.0 - args.tolerance)
            if cur["ops_per_sec"] < floor:
                failures.append(
                    f"{name}: ops/sec regressed {base['ops_per_sec']:.0f} -> "
                    f"{cur['ops_per_sec']:.0f} "
                    f"(floor {floor:.0f} at {args.tolerance:.0%} tolerance)")
        detail = ", ".join(f"{col} {cur[col]:g} (baseline {base[col]:g})"
                           for col in rates)
        print(f"{name}: {cur['ops_per_sec']:.0f} ops/sec, {detail}")

    return report(TOOL, failures)


if __name__ == "__main__":
    sys.exit(main())
