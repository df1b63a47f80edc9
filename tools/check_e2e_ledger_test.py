#!/usr/bin/env python3
"""Tests for check_e2e_ledger.py over synthetic e2ebench/run.py outputs:
equal passes, any rise fails, a fall fails until the baseline is committed,
and wrong seeds, incorrect or missing results fail, for the untraced
allocation totals and for the traced per-layer counts alike. Registered in
ctest as e2e_ledger_gate_test."""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

TOOL = Path(__file__).resolve().parent / "check_e2e_ledger.py"

BASELINE = {
    "bench": "e2e",
    "seed": 2003,
    "workloads": {
        "wl-a": {"allocs_per_txn": 100.5, "alloc_kb_per_txn": 10.25},
        "wl-b": {"allocs_per_txn": 60.0, "alloc_kb_per_txn": 9.0},
    },
}


def run_output(workload: str, allocs: float, kb: float, seed: int = 2003,
               correct: bool = True) -> str:
    result = {"correct": correct, "attempted": 10, "failed": 0,
              "metrics": {"allocs_per_txn": {"value": allocs, "unit": "count"},
                          "alloc_kb_per_txn": {"value": kb, "unit": "KiB"}}}
    return (f"workload {workload} (seed {seed}): synthetic\n"
            f"  allocs_per_txn {allocs}\n{json.dumps(result)}\n")


TRACED = {"alloc.workload.per_txn": 1.5, "alloc.core.per_txn": 7.25,
          "alloc.station.per_txn": 2.0, "alloc.middleware.per_txn": 0.0,
          "alloc.host_db.per_txn": 9.5, "alloc.host_web.per_txn": 14.75,
          "alloc.unattributed.per_txn": 3.125, "sim.events_per_txn": 73.125}

TRACED_BASELINE = {
    "bench": "e2e",
    "seed": 2003,
    "workloads": {"wl-a": {"allocs_per_txn": 100.5, "alloc_kb_per_txn": 10.25,
                           **TRACED}},
}


def traced_output(workload: str, seed: int = 2003, correct: bool = True,
                  **overrides: float) -> str:
    """A --trace 1 run: per-layer metrics, no allocation totals."""
    values = dict(TRACED, **{k.replace("__", "."): v
                             for k, v in overrides.items()})
    metrics = {name: {"value": v, "unit": "count"}
               for name, v in values.items()}
    metrics["alloc.net.per_txn"] = {"value": 0, "unit": "count"}
    result = {"correct": correct, "attempted": 20, "failed": 0,
              "metrics": metrics}
    return (f"workload {workload} (seed {seed}): synthetic\n"
            f"  sim.events_per_txn {values['sim.events_per_txn']}\n"
            f"{json.dumps(result)}\n")


class LedgerGateTest(unittest.TestCase):
    def gate(self, *outputs: str,
             baseline: dict = BASELINE) -> subprocess.CompletedProcess:
        with tempfile.TemporaryDirectory() as tmp:
            base = Path(tmp) / "BENCH_e2e.json"
            base.write_text(json.dumps(baseline), encoding="utf-8")
            paths = []
            for i, text in enumerate(outputs):
                p = Path(tmp) / f"run{i}.txt"
                p.write_text(text, encoding="utf-8")
                paths.append(str(p))
            return subprocess.run(
                [sys.executable, str(TOOL), "--baseline", str(base), *paths],
                capture_output=True, text=True, check=False)

    def test_equal_passes(self):
        r = self.gate(run_output("wl-a", 100.5, 10.25),
                      run_output("wl-b", 60.0, 9.0))
        self.assertEqual(r.returncode, 0, r.stderr)

    def test_any_rise_fails(self):
        r = self.gate(run_output("wl-a", 100.5000001, 10.25),
                      run_output("wl-b", 60.0, 9.0))
        self.assertEqual(r.returncode, 1)
        self.assertIn("rose", r.stderr)

    def test_fall_asks_for_new_baseline(self):
        r = self.gate(run_output("wl-a", 99.0, 10.25),
                      run_output("wl-b", 60.0, 8.0))
        self.assertEqual(r.returncode, 1)
        self.assertIn("commit the new baseline", r.stderr)

    def test_fall_within_slack_passes(self):
        r = self.gate(run_output("wl-a", 100.5 * (1 - 1e-8), 10.25),
                      run_output("wl-b", 60.0, 9.0))
        self.assertEqual(r.returncode, 0, r.stderr)

    def test_wrong_seed_incorrect_and_missing_fail(self):
        r = self.gate(run_output("wl-a", 100.5, 10.25, seed=7919))
        self.assertEqual(r.returncode, 1)
        self.assertIn("seed 7919", r.stderr)
        self.assertIn("wl-b: no result given", r.stderr)
        r = self.gate(run_output("wl-a", 100.5, 10.25, correct=False),
                      run_output("wl-b", 60.0, 9.0))
        self.assertEqual(r.returncode, 1)
        self.assertIn("not correct", r.stderr)

    def traced_gate(self, traced: str) -> subprocess.CompletedProcess:
        return self.gate(run_output("wl-a", 100.5, 10.25), traced,
                         baseline=TRACED_BASELINE)

    def test_traced_counts_equal_pass(self):
        r = self.traced_gate(traced_output("wl-a"))
        self.assertEqual(r.returncode, 0, r.stderr)
        self.assertIn("alloc.host_db.per_txn", r.stdout)

    def test_traced_rise_fails(self):
        r = self.traced_gate(traced_output("wl-a", alloc__host_web__per_txn=15.0))
        self.assertEqual(r.returncode, 1)
        self.assertIn("alloc.host_web.per_txn rose", r.stderr)
        r = self.traced_gate(traced_output("wl-a", sim__events_per_txn=73.5))
        self.assertEqual(r.returncode, 1)
        self.assertIn("sim.events_per_txn rose", r.stderr)

    def test_every_traced_layer_is_ratcheted(self):
        for layer in ("workload", "station", "middleware", "unattributed"):
            r = self.traced_gate(traced_output(
                "wl-a", **{f"alloc__{layer}__per_txn":
                           TRACED[f"alloc.{layer}.per_txn"] + 0.25}))
            self.assertEqual(r.returncode, 1, layer)
            self.assertIn(f"alloc.{layer}.per_txn rose", r.stderr)
        r = self.traced_gate(traced_output("wl-a",
                                           alloc__unattributed__per_txn=3.0))
        self.assertEqual(r.returncode, 1)
        self.assertIn("alloc.unattributed.per_txn fell", r.stderr)

    def test_traced_layer_missing_from_run_fails(self):
        text = traced_output("wl-a").replace('"alloc.middleware.per_txn"',
                                             '"alloc.other.per_txn"')
        r = self.traced_gate(text)
        self.assertEqual(r.returncode, 1)
        self.assertIn("no alloc.middleware.per_txn in the traced run",
                      r.stderr)

    def test_traced_fall_asks_for_new_baseline(self):
        r = self.traced_gate(traced_output("wl-a", alloc__core__per_txn=6.0))
        self.assertEqual(r.returncode, 1)
        self.assertIn("alloc.core.per_txn fell", r.stderr)
        self.assertIn("commit the new baseline", r.stderr)

    def test_traced_run_missing_wrong_seed_or_incorrect_fails(self):
        r = self.gate(run_output("wl-a", 100.5, 10.25),
                      baseline=TRACED_BASELINE)
        self.assertEqual(r.returncode, 1)
        self.assertIn("wl-a: no --trace 1 result given", r.stderr)
        r = self.traced_gate(traced_output("wl-a", seed=7919))
        self.assertEqual(r.returncode, 1)
        self.assertIn("seed 7919", r.stderr)
        r = self.traced_gate(traced_output("wl-a", correct=False))
        self.assertEqual(r.returncode, 1)
        self.assertIn("(traced): result is not correct", r.stderr)

    def test_untraced_baseline_ignores_traced_runs(self):
        # A baseline without traced counts does not ask for a traced run,
        # and does not gate one that is given.
        r = self.gate(run_output("wl-a", 100.5, 10.25),
                      run_output("wl-b", 60.0, 9.0),
                      traced_output("wl-a", alloc__core__per_txn=99.0))
        self.assertEqual(r.returncode, 0, r.stderr)

    def test_garbage_is_a_usage_error(self):
        r = self.gate("no report here\n")
        self.assertEqual(r.returncode, 2)


if __name__ == "__main__":
    unittest.main()
