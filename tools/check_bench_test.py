#!/usr/bin/env python3
"""Unit checks for tools/check_bench.py row matching.

Run: python3 tools/check_bench_test.py
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import check_bench  # noqa: E402


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


if __name__ == "__main__":
    unittest.main()
