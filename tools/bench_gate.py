"""bench_gate: shared plumbing for the BENCH_*.json gate scripts.

Every check_*.py gate does the same things around its actual checks: load
a bench JSON and validate its `bench` tag (exit 2 on schema or I/O
problems), accumulate failure strings while printing per-item detail, and
report either "ok" (exit 0) or the failure list (exit 1). The gates that
pin exact counters also share one rule for them, `ratchet`. This module is
that code, factored once; which columns each gate compares stays in the
individual scripts.

Exit-status contract (shared by all gates): 0 ok, 1 gate failure,
2 usage/schema error.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def load_bench_json(path: Path, tool: str, bench: str | None = None,
                    required: tuple[str, ...] = ()) -> dict:
    """Read a bench JSON, exiting 2 with a message on any schema problem.

    `bench` checks the file's "bench" tag; `required` lists top-level keys
    that must be present.
    """
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        print(f"{tool}: cannot read {path}: {exc}", file=sys.stderr)
        sys.exit(2)
    if bench is not None and data.get("bench") != bench:
        print(f"{tool}: {path} is not a bench/{bench} JSON", file=sys.stderr)
        sys.exit(2)
    for key in required:
        if key not in data:
            print(f"{tool}: {path} missing '{key}'", file=sys.stderr)
            sys.exit(2)
    return data


# A fall smaller than this (relative) is float formatting, not a gain.
FALL_SLACK = 1e-6


def ratchet(label: str, name: str, cur: float, ref: float,
            baseline: Path, failures: list[str]) -> None:
    """The rule for an exact, lower-is-better counter: any rise fails, and
    a fall fails too until `baseline` is re-committed, so a gain is locked
    in by the change that makes it."""
    if cur > ref:
        failures.append(f"{label}: {name} rose {ref!r} -> {cur!r}")
    elif cur < ref * (1.0 - FALL_SLACK):
        failures.append(f"{label}: {name} fell {ref!r} -> {cur!r}; "
                        f"commit the new baseline to {baseline}")


def report(tool: str, failures: list[str], ok_detail: str = "") -> int:
    """Print the verdict and return the script's exit status."""
    if failures:
        print(f"\n{tool}: gate failure:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    suffix = f" — {ok_detail}" if ok_detail else ""
    print(f"{tool}: ok{suffix}")
    return 0
