#!/usr/bin/env python3
"""Self-test for tools/bench_compare.py (wired into ctest as
`lint.bench_compare_selftest`).

Exercises the comparison logic on synthetic BENCH_*.json pairs: identical
sets pass, a past-threshold bandwidth increase fails, a shrinking
lower-worse metric fails, identity-mismatched and missing rows are reported
without failing (and fail under --require-rows), and string fields never
participate in deltas.
"""

from __future__ import annotations

import json
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import bench_compare  # noqa: E402


def run_compare(base_rows, cand_rows, threshold=0.25, bench="t",
                extra_args=()):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "base").mkdir()
        (root / "cand").mkdir()
        (root / "base" / f"BENCH_{bench}.json").write_text(
            json.dumps({"bench": bench, "rows": base_rows}))
        (root / "cand" / f"BENCH_{bench}.json").write_text(
            json.dumps({"bench": bench, "rows": cand_rows}))
        return bench_compare.main([
            "--baseline", str(root / "base"),
            "--candidate", str(root / "cand"),
            "--threshold", str(threshold),
            *extra_args,
        ])


class BenchCompareTest(unittest.TestCase):
    def test_identical_sets_pass(self) -> None:
        rows = [{"metric": "bandwidth", "period": 8, "value": 10.0}]
        self.assertEqual(run_compare(rows, rows), 0)

    def test_regression_past_threshold_fails(self) -> None:
        base = [{"metric": "bandwidth", "period": 8, "value": 10.0}]
        cand = [{"metric": "bandwidth", "period": 8, "value": 14.0}]
        self.assertEqual(run_compare(base, cand, threshold=0.25), 1)

    def test_improvement_passes(self) -> None:
        base = [{"metric": "bandwidth", "period": 8, "value": 10.0}]
        cand = [{"metric": "bandwidth", "period": 8, "value": 6.0}]
        self.assertEqual(run_compare(base, cand, threshold=0.25), 0)

    def test_within_threshold_passes(self) -> None:
        base = [{"metric": "requests", "period": 8, "value": 10.0}]
        cand = [{"metric": "requests", "period": 8, "value": 12.0}]
        self.assertEqual(run_compare(base, cand, threshold=0.25), 0)

    def test_lower_worse_metric_shrinking_fails(self) -> None:
        base = [{"case": "raw", "margin": 100.0}]
        cand = [{"case": "raw", "margin": 40.0}]
        self.assertEqual(run_compare(base, cand, threshold=0.25), 1)

    def test_lower_worse_metric_growing_passes(self) -> None:
        base = [{"case": "raw", "margin": 100.0}]
        cand = [{"case": "raw", "margin": 160.0}]
        self.assertEqual(run_compare(base, cand, threshold=0.25), 0)

    def test_missing_row_is_not_a_failure(self) -> None:
        base = [{"metric": "bandwidth", "period": 8, "value": 10.0},
                {"metric": "bandwidth", "period": 16, "value": 5.0}]
        cand = [{"metric": "bandwidth", "period": 8, "value": 10.0}]
        self.assertEqual(run_compare(base, cand), 0)

    def test_missing_row_fails_with_require_rows(self) -> None:
        base = [{"metric": "bandwidth", "period": 8, "value": 10.0},
                {"metric": "bandwidth", "period": 16, "value": 5.0}]
        cand = [{"metric": "bandwidth", "period": 8, "value": 10.0}]
        self.assertEqual(
            run_compare(base, cand, extra_args=["--require-rows"]), 1)

    def test_changed_identity_fails_with_require_rows(self) -> None:
        # A count the server observed moves by one: the row no longer
        # matches its baseline, which is a failure, not a missing row.
        base = [{"case": "queryu_wire", "fakes": 12380, "chi2": 57.7}]
        cand = [{"case": "queryu_wire", "fakes": 12381, "chi2": 57.7}]
        self.assertEqual(run_compare(base, cand), 0)
        self.assertEqual(
            run_compare(base, cand, extra_args=["--require-rows"]), 1)

    def test_require_rows_passes_when_every_row_matches(self) -> None:
        base = [{"metric": "bandwidth", "period": 8, "value": 10.0}]
        cand = [{"metric": "bandwidth", "period": 8, "value": 10.1},
                {"metric": "bandwidth", "period": 32, "value": 3.0}]
        self.assertEqual(
            run_compare(base, cand, extra_args=["--require-rows"]), 0)

    def test_missing_candidate_report_fails_with_require_rows(self) -> None:
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            (root / "base").mkdir()
            (root / "cand").mkdir()
            (root / "base" / "BENCH_x.json").write_text(
                json.dumps({"bench": "x",
                            "rows": [{"metric": "v", "value": 1.0}]}))
            self.assertEqual(bench_compare.main([
                "--baseline", str(root / "base"),
                "--candidate", str(root / "cand"),
                "--require-rows",
            ]), 1)

    def test_missing_candidate_report_is_not_a_failure(self) -> None:
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            (root / "base").mkdir()
            (root / "cand").mkdir()
            (root / "base" / "BENCH_x.json").write_text(
                json.dumps({"bench": "x",
                            "rows": [{"metric": "v", "value": 1.0}]}))
            self.assertEqual(bench_compare.main([
                "--baseline", str(root / "base"),
                "--candidate", str(root / "cand"),
            ]), 0)

    def test_empty_baseline_passes(self) -> None:
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            (root / "base").mkdir()
            (root / "cand").mkdir()
            self.assertEqual(bench_compare.main([
                "--baseline", str(root / "base"),
                "--candidate", str(root / "cand"),
            ]), 0)

    def test_string_fields_are_identity_not_metrics(self) -> None:
        # Changing a string field changes the row identity (reported as
        # missing), never a delta — and never a failure.
        base = [{"metric": "bandwidth", "dataset": "adult", "value": 10.0}]
        cand = [{"metric": "bandwidth", "dataset": "census", "value": 99.0}]
        self.assertEqual(run_compare(base, cand), 0)

    def test_zero_baseline_to_nonzero_fails(self) -> None:
        base = [{"metric": "chi2", "case": "w", "chi2": 0.0}]
        cand = [{"metric": "chi2", "case": "w", "chi2": 5.0}]
        self.assertEqual(run_compare(base, cand), 1)


if __name__ == "__main__":
    unittest.main()
