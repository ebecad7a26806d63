#!/usr/bin/env python3
"""Tests for perf_gate.py. Run: python3 scripts/perf_gate_test.py"""

import contextlib
import copy
import io
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import perf_gate  # noqa: E402

REPORT = {
    "bench": "demo",
    "params": {"iters": 10},
    "values": {"a/stock_ns": 100.0, "a/allocs_per_op": 0.0, "b/ratio": 1.2, "b/note": 7.0},
    "gates": {
        "a/stock_ns": {"min": 5e-324, "rel": 0.3},
        "a/allocs_per_op": {"max": 0.01},
        "b/ratio": {"min": 1, "max": 1.5},
    },
}

# A previous report in the nested shape the gate used to read.
NESTED = {"bench": "demo", "results": [{"fs": "a", "rows": [{"op": "x", "stock_ns": 1.0}]}]}


class PerfGateTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)

    def write(self, name, doc):
        path = os.path.join(self.tmp.name, name)
        with open(path, "w") as f:
            json.dump(doc, f)
        return path

    def gate(self, cur, prev=None, summary=False):
        ppath = self.write("prev.json", prev) if prev is not None else os.path.join(self.tmp.name, "none.json")
        argv = (["--summary"] if summary else []) + [ppath, self.write("cur.json", cur)]
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            code = perf_gate.main(argv)
        return code, out.getvalue()

    def mutated(self, path, value):
        doc = copy.deepcopy(REPORT)
        if value is None:
            del doc["values"][path]
        else:
            doc["values"][path] = value
        return doc

    def test_in_bounds_report_passes(self):
        self.assertEqual(self.gate(REPORT, prev=REPORT)[0], 0)
        self.assertEqual(self.gate(REPORT)[0], 0)

    def test_missing_path_fails(self):
        code, out = self.gate(self.mutated("b/ratio", None), prev=REPORT)
        self.assertEqual(code, 1)
        self.assertIn("missing", out)

    def test_below_min_fails(self):
        self.assertEqual(self.gate(self.mutated("b/ratio", 0.99), prev=REPORT)[0], 1)
        self.assertEqual(self.gate(self.mutated("a/stock_ns", 0.0))[0], 1)

    def test_above_max_fails(self):
        self.assertEqual(self.gate(self.mutated("b/ratio", 1.51), prev=REPORT)[0], 1)
        self.assertEqual(self.gate(self.mutated("a/allocs_per_op", 0.02))[0], 1)

    def test_bounds_are_inclusive(self):
        self.assertEqual(self.gate(self.mutated("b/ratio", 1.5))[0], 0)
        self.assertEqual(self.gate(self.mutated("b/ratio", 1.0))[0], 0)

    def test_rel_over_previous_fails(self):
        code, out = self.gate(self.mutated("a/stock_ns", 131.0), prev=REPORT)
        self.assertEqual(code, 1)
        self.assertIn("over previous", out)
        self.assertEqual(self.gate(self.mutated("a/stock_ns", 129.0), prev=REPORT)[0], 0)

    def test_equal_params_apply_rel(self):
        code, out = self.gate(self.mutated("a/stock_ns", 131.0), prev=copy.deepcopy(REPORT))
        self.assertEqual(code, 1)
        self.assertIn("over previous", out)
        self.assertNotIn("params differ", out)

    def test_different_params_skip_only_rel(self):
        prev = copy.deepcopy(REPORT)
        prev["params"] = {"iters": 20, "samples": 5}
        code, out = self.gate(self.mutated("a/stock_ns", 1000.0), prev=prev)
        self.assertEqual(code, 0)
        self.assertIn("params differ from the previous report: iters, samples", out)
        self.assertEqual(self.gate(self.mutated("a/stock_ns", 0.0), prev=prev)[0], 1)
        self.assertEqual(self.gate(self.mutated("b/ratio", 1.51), prev=prev)[0], 1)
        self.assertEqual(self.gate(self.mutated("a/allocs_per_op", 0.02), prev=prev)[0], 1)

    def test_ungated_value_is_not_checked(self):
        self.assertEqual(self.gate(self.mutated("b/note", 1e9), prev=REPORT)[0], 0)

    def test_rel_without_previous_value_skips_only_rel(self):
        prev = self.mutated("a/stock_ns", None)
        self.assertEqual(self.gate(self.mutated("a/stock_ns", 1000.0), prev=prev)[0], 0)
        self.assertEqual(self.gate(self.mutated("a/stock_ns", 0.0), prev=prev)[0], 1)
        self.assertEqual(self.gate(self.mutated("b/ratio", 2.0), prev=prev)[0], 1)

    def test_nested_previous_report_skips_only_rel(self):
        self.assertEqual(self.gate(self.mutated("a/stock_ns", 1000.0), prev=NESTED)[0], 0)
        self.assertEqual(self.gate(self.mutated("b/ratio", 2.0), prev=NESTED)[0], 1)
        self.assertEqual(self.gate(self.mutated("b/ratio", None), prev=NESTED)[0], 1)

    def test_report_without_gates_fails(self):
        self.assertEqual(self.gate(NESTED)[0], 1)

    def test_directories_pair_reports_by_name(self):
        prev_dir, cur_dir = (os.path.join(self.tmp.name, d) for d in ("prev", "cur"))
        os.mkdir(prev_dir)
        os.mkdir(cur_dir)
        for d, doc in ((prev_dir, REPORT), (cur_dir, self.mutated("a/stock_ns", 131.0))):
            with open(os.path.join(d, "BENCH_demo.json"), "w") as f:
                json.dump(doc, f)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            self.assertEqual(perf_gate.main([prev_dir, cur_dir]), 1)

    def test_summary_always_exits_zero(self):
        self.assertEqual(self.gate(self.mutated("b/ratio", 99.0), prev=REPORT, summary=True)[0], 0)
        self.assertEqual(self.gate(self.mutated("b/ratio", None), prev=NESTED, summary=True)[0], 0)
        code, out = self.gate(REPORT, prev=REPORT, summary=True)
        self.assertEqual(code, 0)
        self.assertIn("b/note", out)


if __name__ == "__main__":
    unittest.main()
