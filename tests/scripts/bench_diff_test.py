#!/usr/bin/env python3
"""Gate semantics of scripts/bench_diff.py on inline parda.bench.v1 fixtures.

Runs the script as CI does (a subprocess on two JSON files) and checks its
exit status: a baseline point missing from the candidate fails (1), a new
candidate point does not (0), a metric over the threshold fails (1).

Usage: bench_diff_test.py  (stdlib only; exit 0 = all cases pass)
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "..",
                      "scripts", "bench_diff.py")


def point(name, np, ns):
    return {"name": name, "params": {"np": np, "block": 1},
            "metrics": {"ns_per_ref": ns, "mrefs_per_s": 1e3 / ns}}


BASELINE = [point("lru", 1, 200.0), point("fenwick", 1, 210.0),
            point("parda_fenwick", 4, 68.0)]


class BenchDiffTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()

    def tearDown(self):
        self.dir.cleanup()

    def write(self, name, points):
        path = os.path.join(self.dir.name, name)
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"schema": "parda.bench.v1", "bench": "engines",
                       "points": points}, f)
        return path

    def diff(self, candidate, *flags):
        base = self.write("base.json", BASELINE)
        cand = self.write("cand.json", candidate)
        proc = subprocess.run(
            [sys.executable, SCRIPT, base, cand, "--metric", "ns_per_ref",
             *flags],
            capture_output=True, text=True, check=False)
        return proc.returncode, proc.stdout

    def test_identical_passes(self):
        code, _ = self.diff(BASELINE)
        self.assertEqual(code, 0)

    def test_missing_point_fails(self):
        code, out = self.diff(BASELINE[:1] + BASELINE[2:])
        self.assertEqual(code, 1)
        self.assertIn("MISSING engines/fenwick", out)

    def test_new_point_passes(self):
        code, out = self.diff(BASELINE + [point("olken_avl", 1, 1300.0)])
        self.assertEqual(code, 0)
        self.assertIn("new point (not compared): engines/olken_avl", out)

    def test_regression_fails(self):
        slower = [point("lru", 1, 200.0), point("fenwick", 1, 2100.0),
                  point("parda_fenwick", 4, 68.0)]
        code, out = self.diff(slower, "--threshold-pct", "400")
        self.assertEqual(code, 1)
        self.assertIn("REGRESSION engines/fenwick", out)

    def test_regression_within_threshold_passes(self):
        slower = [point("lru", 1, 200.0), point("fenwick", 1, 800.0),
                  point("parda_fenwick", 4, 68.0)]
        code, _ = self.diff(slower, "--threshold-pct", "400")
        self.assertEqual(code, 0)


if __name__ == "__main__":
    unittest.main()
