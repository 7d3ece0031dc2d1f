#!/usr/bin/env python3
"""Unit tests for tools/check_bench_regression.py.

The script is the CI tripwire between "benchmark rotted" and "benchmark
regressed"; these tests pin its three behavioral contracts — the `when`
gate, the reverse-coverage (emitted-but-unlisted) failure mode, and the
min/max comparison directions — so a refactor can't silently flip one.
Run by ctest as tools.check_bench_regression.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "check_bench_regression.py"


class BenchRegressionTest(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.bench_dir = Path(self._tmp.name) / "bench"
        self.bench_dir.mkdir()
        self.thresholds_path = Path(self._tmp.name) / "thresholds.json"
        self.addCleanup(self._tmp.cleanup)

    def run_check(self, thresholds: dict, benches: dict):
        """Writes thresholds + BENCH jsons, runs the script, returns proc."""
        self.thresholds_path.write_text(json.dumps(thresholds))
        for name, data in benches.items():
            (self.bench_dir / name).write_text(json.dumps(data))
        return subprocess.run(
            [sys.executable, str(SCRIPT), str(self.thresholds_path),
             str(self.bench_dir)],
            capture_output=True, text=True)

    # ------------------------------------------------------- `when` gate

    def test_gate_absent_skips_bound(self):
        proc = self.run_check(
            {"BENCH_x.json": {"avx2_speedup": {"min": 2.0,
                                               "when": "has_avx2"}}},
            {"BENCH_x.json": {}})
        self.assertEqual(proc.returncode, 0, proc.stdout)
        self.assertIn("SKIP", proc.stdout)
        self.assertIn("gate 'has_avx2' is off", proc.stdout)

    def test_gate_falsy_skips_bound(self):
        proc = self.run_check(
            {"BENCH_x.json": {"avx2_speedup": {"min": 2.0,
                                               "when": "has_avx2"}}},
            {"BENCH_x.json": {"has_avx2": 0, "avx2_speedup": 0.1}})
        self.assertEqual(proc.returncode, 0, proc.stdout)
        self.assertIn("SKIP", proc.stdout)

    def test_gate_truthy_enforces_bound(self):
        proc = self.run_check(
            {"BENCH_x.json": {"avx2_speedup": {"min": 2.0,
                                               "when": "has_avx2"}}},
            {"BENCH_x.json": {"has_avx2": 1, "avx2_speedup": 1.0}})
        self.assertEqual(proc.returncode, 1, proc.stdout)
        self.assertIn("FAIL", proc.stdout)

    def test_gate_truthy_makes_missing_metric_fail(self):
        # A rotted benchmark that stops emitting a gated metric must still
        # fail on hosts whose gate is on — the gate is not a free pass.
        proc = self.run_check(
            {"BENCH_x.json": {"avx2_speedup": {"min": 2.0,
                                               "when": "has_avx2"}}},
            {"BENCH_x.json": {"has_avx2": 1}})
        self.assertEqual(proc.returncode, 1, proc.stdout)
        self.assertIn("metric 'avx2_speedup' missing", proc.stdout)

    def test_gate_list_needs_every_gate_truthy(self):
        # The x86 SIMD floors hold on portable builds only: a list gate
        # skips the bound as soon as any one gate is off.
        thresholds = {"BENCH_x.json": {"avx2_speedup": {
            "min": 2.0, "when": ["has_avx2", "build_portable"]}}}
        native = self.run_check(
            thresholds,
            {"BENCH_x.json": {"has_avx2": 1, "build_portable": 0,
                              "avx2_speedup": 0.5}})
        self.assertEqual(native.returncode, 0, native.stdout)
        self.assertIn("gate 'build_portable' is off", native.stdout)
        portable = self.run_check(
            thresholds,
            {"BENCH_x.json": {"has_avx2": 1, "build_portable": 1,
                              "avx2_speedup": 0.5}})
        self.assertEqual(portable.returncode, 1, portable.stdout)
        self.assertIn("FAIL", portable.stdout)

    # ------------------------------------- emitted-but-unlisted coverage

    def test_emitted_but_unlisted_bench_fails(self):
        proc = self.run_check(
            {"BENCH_old.json": {"m": {"min": 1.0}}},
            {"BENCH_old.json": {"m": 2.0},
             "BENCH_renamed.json": {"m": 2.0}})
        self.assertEqual(proc.returncode, 1, proc.stdout)
        self.assertIn("BENCH_renamed.json: present but not listed",
                      proc.stdout)

    def test_listed_but_missing_file_fails(self):
        proc = self.run_check(
            {"BENCH_gone.json": {"m": {"min": 1.0}}}, {})
        self.assertEqual(proc.returncode, 1, proc.stdout)
        self.assertIn("BENCH_gone.json: missing", proc.stdout)

    def test_comment_keys_are_ignored_both_directions(self):
        proc = self.run_check(
            {"_comment": {"why": "doc"},
             "BENCH_x.json": {"m": {"min": 1.0}}},
            {"BENCH_x.json": {"m": 2.0}})
        self.assertEqual(proc.returncode, 0, proc.stdout)

    # ------------------------------------------- comparison directions

    def test_min_is_a_floor(self):
        base = {"BENCH_x.json": {"speedup": {"min": 1.5}}}
        self.assertEqual(
            self.run_check(base, {"BENCH_x.json": {"speedup": 1.5}})
            .returncode, 0)  # boundary passes
        self.assertEqual(
            self.run_check(base, {"BENCH_x.json": {"speedup": 1.49}})
            .returncode, 1)  # below the floor fails

    def test_max_is_a_ceiling(self):
        base = {"BENCH_x.json": {"allocs": {"max": 0.01}}}
        self.assertEqual(
            self.run_check(base, {"BENCH_x.json": {"allocs": 0.01}})
            .returncode, 0)  # boundary passes
        self.assertEqual(
            self.run_check(base, {"BENCH_x.json": {"allocs": 0.02}})
            .returncode, 1)  # above the ceiling fails

    def test_min_and_max_band(self):
        base = {"BENCH_x.json": {"m": {"min": 1.0, "max": 2.0}}}
        self.assertEqual(
            self.run_check(base, {"BENCH_x.json": {"m": 1.5}})
            .returncode, 0)
        self.assertEqual(
            self.run_check(base, {"BENCH_x.json": {"m": 2.5}})
            .returncode, 1)

    def test_usage_error_exits_2(self):
        proc = subprocess.run([sys.executable, str(SCRIPT)],
                              capture_output=True, text=True)
        self.assertEqual(proc.returncode, 2)


if __name__ == "__main__":
    unittest.main()
