#!/usr/bin/env python3
"""Unit checks for tools/check_bench.py row matching.

Run: python3 tools/check_bench_test.py
"""

import contextlib
import io
import json
import os
import statistics
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import check_bench  # noqa: E402

RECOVERY_BENCH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCH_recovery.json"
)


class RowKeyTest(unittest.TestCase):
    def test_fig6a_rows_key_on_processes(self):
        # Fig. 6a rows carry only `processes`; each must keep its own key so every row
        # is compared, not just the last one.
        rows = [{"processes": p, "workers": 2 * p, "records_per_sec": 1e8} for p in (1, 2, 4)]
        keys = {check_bench.row_key(r) for r in rows}
        self.assertEqual(len(keys), 3)

    def test_rows_by_key_keeps_every_fig6a_row(self):
        doc = {
            "runs": [
                {
                    "label": "ci",
                    "rows": [{"processes": p, "records_per_sec": float(p)} for p in (1, 2, 4)],
                }
            ]
        }
        self.assertEqual(sorted(check_bench.rows_by_key(doc, "ci").values()), [1.0, 2.0, 4.0])

    def test_named_and_kind_rows_unchanged(self):
        self.assertEqual(check_bench.row_key({"name": "BM_X/8"}), ("name", "BM_X/8"))
        self.assertEqual(
            check_bench.row_key({"kind": "pagerank", "variant": "csr", "procs": 2}),
            ("kv", "pagerank/variant=csr/procs=2"),
        )


class RecoveryRowsTest(unittest.TestCase):
    def setUp(self):
        with open(RECOVERY_BENCH, encoding="utf-8") as f:
            self.doc = json.load(f)

    def test_trials_reduce_to_the_median_stall_per_mode(self):
        # BENCH_recovery.json rows carry no records_per_sec: three trials per mode, keyed
        # on `mode`, compared on survivor_stall_s.
        for label in ("pr22-pre", "pr22-post"):
            got = check_bench.rows_by_key(self.doc, label)
            run = next(r for r in self.doc["runs"] if r["label"] == label)
            for mode in ("coordinated", "selective"):
                stalls = [r["survivor_stall_s"] for r in run["rows"] if r["mode"] == mode]
                self.assertEqual(len(stalls), 3)
                key = (("kv", f"?/mode={mode}"), "survivor_stall_s")
                self.assertEqual(got[key], statistics.median(stalls))
            self.assertEqual(len(got), 2)

    def test_lower_stall_is_better(self):
        self.assertFalse(check_bench.regressed("survivor_stall_s", 1.0, 1.2, 0.1))
        self.assertTrue(check_bench.regressed("survivor_stall_s", 1.4, 1.2, 0.1))
        self.assertTrue(check_bench.regressed("records_per_sec", 1.0, 1.2, 0.1))

    def test_pr22_post_diffs_against_pr22_pre(self):
        argv = sys.argv
        sys.argv = ["check_bench.py", RECOVERY_BENCH, "--run", "pr22-post",
                    "--baseline", "pr22-pre", "--strict"]
        try:
            with contextlib.redirect_stdout(io.StringIO()) as out:
                rc = check_bench.main()
        finally:
            sys.argv = argv
        self.assertEqual(rc, 0, out.getvalue())
        self.assertIn("OK: 2 rows within threshold", out.getvalue())


class JobTurnaroundRowsTest(unittest.TestCase):
    DOC = {
        "runs": [
            {
                "label": label,
                "rows": [
                    {"kind": "turnaround", "processes": 2, "p50_us": 1e6 / r, "jobs_per_sec": r}
                    for r in rates
                ],
            }
            for label, rates in (("pre", (2000.0, 2100.0, 1900.0)), ("post", (3000.0, 3300.0)))
        ]
    }

    def test_trials_reduce_to_the_median_rate(self):
        key = (("kv", "turnaround/processes=2"), "jobs_per_sec")
        self.assertEqual(check_bench.rows_by_key(self.DOC, "pre"), {key: 2000.0})
        self.assertEqual(check_bench.rows_by_key(self.DOC, "post"), {key: 3150.0})

    def test_higher_rate_is_better(self):
        self.assertFalse(check_bench.regressed("jobs_per_sec", 3150.0, 2000.0, 0.1))
        self.assertTrue(check_bench.regressed("jobs_per_sec", 1500.0, 2000.0, 0.1))


if __name__ == "__main__":
    unittest.main()
