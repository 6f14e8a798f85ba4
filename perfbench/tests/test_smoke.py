"""Smoke runs of every workload at --tiny sizes, untraced and traced.

Builds perfbench_run on first use (about a minute). Run from the
repository root:
  python3 -m unittest discover -s perfbench/tests -v
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


class SmokeTest(unittest.TestCase):
    def run_bench(self, workload, trace):
        done = subprocess.run(
            [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
             "--workload", workload, "--seed", "7", "--seconds", "1",
             "--trace", str(trace), "--tiny"],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, timeout=900)
        self.assertEqual(done.returncode, 0, done.stderr[-2000:])
        return json.loads(done.stdout.strip().splitlines()[-1])

    def test_every_workload(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        for w in spec["workloads"]:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=w["name"], trace=trace):
                    result = self.run_bench(w["name"], trace)
                    self.assertEqual(set(result), {"correct", "attempted",
                                                   "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    self.assertEqual(set(result["metrics"]),
                                     {m["name"] for m in spec[key]})
                    if trace:
                        coverage = result["metrics"]["trace.coverage"]
                        self.assertGreater(coverage["value"], 0.9)
                    else:
                        wall = result["metrics"]["wall_s"]
                        self.assertEqual(wall["unit"], "s")
                        self.assertGreater(wall["value"], 0.0)


if __name__ == "__main__":
    unittest.main()
