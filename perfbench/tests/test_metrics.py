"""Unit tests of the benchmark's metric helpers and of BENCHMARK.json.

Run from the repository root:
  python3 -m unittest discover -s perfbench/tests -v
"""

import json
import math
import os
import re
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import metrics  # noqa: E402

SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")


def span(id_, parent, start, end, name, cat="pass", thread=0, **args):
    return {"id": id_, "parent": parent, "start": start, "end": end,
            "name": name, "cat": cat, "thread": thread, "args": args}


def fake_raw(workload="scan_attack"):
    """A raw perfbench_run record with one untraced and one traced pass."""
    def one_pass(traced, wall):
        return {"traced": traced, "wall_s": wall, "cpu_s": 2 * wall,
                "known_build_s": wall / 2, "ops": 10, "hits": 9.0,
                "trials": 10.0, "attempted": 11, "failed": 0, "failures": [],
                "samples_ms": {"probe": [1.0, 2.0, 3.0],
                               "mutate": [4.0, 5.0]}}
    return {"workload": workload, "seed": 1, "threads": 4, "isa": "scalar",
            "build_type": "RelWithDebInfo", "tiny": True, "dimensions": {},
            "peak_rss_mb": 64.0, "setup_s": [1.0, 3.0, 2.0],
            "passes": [one_pass(False, 2.0), one_pass(True, 2.5)]}


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(100, 0, -1))  # 1..100, unsorted
        self.assertEqual(metrics.percentile(values, 50), 50)
        self.assertEqual(metrics.percentile(values, 99), 99)
        self.assertEqual(metrics.percentile(values, 100), 100)
        self.assertEqual(metrics.percentile([7.0], 1), 7.0)

    def test_rejects_bad_input(self):
        with self.assertRaises(ValueError):
            metrics.percentile([], 50)
        with self.assertRaises(ValueError):
            metrics.percentile([1.0], 0)

    def test_ten_samples_beyond_rule(self):
        self.assertEqual(metrics.samples_beyond(1000, 99), 10)
        self.assertTrue(metrics.tail_ok(1000, 99))
        self.assertEqual(metrics.samples_beyond(999, 99), 9)
        self.assertFalse(metrics.tail_ok(999, 99))
        self.assertTrue(metrics.tail_ok(20, 50))
        self.assertFalse(metrics.tail_ok(19, 50))

    def test_highest_tail(self):
        self.assertEqual(metrics.highest_tail(1000), 99)
        self.assertEqual(metrics.highest_tail(999), 90)
        self.assertEqual(metrics.highest_tail(40), 75)
        self.assertIsNone(metrics.highest_tail(39))

    def test_p99_falls_back_to_max_when_too_few(self):
        samples = [float(i) for i in range(1, 1001)]
        self.assertEqual(metrics.p99(samples), 990.0)
        self.assertEqual(metrics.p99(samples[:500]), 500.0)
        self.assertEqual(metrics.p99([]), 0.0)


class SpanTreeTest(unittest.TestCase):
    # root [0, 10] on thread 0 with children a [1, 4] (thread 0) and
    # b [3, 6] (thread 1, overlapping a); a has child c [2, 3]; d [12, 13]
    # is a second top-level span; e is a check span outside the passes.
    SPANS = [
        span(0, -1, 0.0, 10.0, "root"),
        span(1, 0, 1.0, 4.0, "a"),
        span(2, 0, 3.0, 6.0, "b", thread=1),
        span(3, 1, 2.0, 3.0, "c"),
        span(4, -1, 12.0, 13.0, "a"),
        span(5, -1, 13.0, 14.0, "e", cat="check"),
    ]

    def test_self_time_subtracts_union_of_children(self):
        self_s = metrics.self_times(self.SPANS[:5])
        self.assertAlmostEqual(self_s["root"], 10.0 - 5.0)  # union [1, 6]
        self.assertAlmostEqual(self_s["a"], (3.0 - 1.0) + 1.0)
        self.assertAlmostEqual(self_s["b"], 3.0)
        self.assertAlmostEqual(self_s["c"], 1.0)

    def test_self_times_sum_to_covered_time(self):
        self_s = metrics.self_times(self.SPANS[:5])
        # Each instant of [0, 10] and [12, 13] is owned by one innermost
        # span, except [3, 4], which a and b (another thread) both own.
        self.assertAlmostEqual(sum(self_s.values()), 11.0 + 1.0)

    def test_coverage_counts_top_level_spans(self):
        pass_spans = [s for s in self.SPANS if s["cat"] == "pass"]
        self.assertAlmostEqual(metrics.coverage(pass_spans, 14.0), 11.0 / 14.0)
        self.assertEqual(metrics.coverage([], 0.0), 0.0)

    def test_chrome_trace_round_trip(self):
        events = [{"name": "a", "cat": "pass", "ph": "X", "pid": 1, "tid": 0,
                   "ts": 1e6, "dur": 2e6,
                   "args": {"id": 0, "parent": -1, "bytes": 5.0}}]
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "trace.json")
            with open(path, "w") as f:
                json.dump(events, f)
            (s,) = metrics.load_spans(path)
        self.assertEqual((s["id"], s["parent"], s["thread"]), (0, -1, 0))
        self.assertAlmostEqual(s["start"], 1.0)
        self.assertAlmostEqual(s["end"], 3.0)
        self.assertEqual(s["args"], {"bytes": 5.0})


class MetricNamesTest(unittest.TestCase):
    def setUp(self):
        self.end_to_end, self.per_layer = metrics.benchmark_spec(SPEC_PATH)

    def test_end_to_end_names_match_benchmark_json(self):
        values = metrics.end_to_end(fake_raw())
        out = metrics.validate(values, self.end_to_end)
        self.assertEqual(list(out), [m["name"] for m in self.end_to_end])
        self.assertEqual(out["setup_s"], {"value": 2.0, "unit": "s"})
        self.assertAlmostEqual(out["accuracy"]["value"], 0.9)

    def test_per_layer_names_match_benchmark_json(self):
        spans = [span(0, -1, 0.0, 2.0, "preprocess.run",
                      motion_correction_s=1.0, frames=120.0),
                 span(1, -1, 0.0, 0.5, "sim.cohort", cat="setup")]
        for workload in ("scan_attack", "serve_mixed"):
            values = metrics.per_layer(fake_raw(workload), spans)
            out = metrics.validate(values, self.per_layer)
            self.assertEqual(set(out), {m["name"] for m in self.per_layer})
        self.assertAlmostEqual(values["preprocess.motion_correction_s"], 1.0)
        self.assertAlmostEqual(values["sim.cohort_s"], 0.5 / 3)
        self.assertAlmostEqual(values["trace.coverage"], 2.0 / 2.5)
        self.assertAlmostEqual(values["trace.overhead_s"], 0.5)

    def test_validate_rejects_missing_extra_and_non_finite(self):
        values = metrics.end_to_end(fake_raw())
        with self.assertRaisesRegex(ValueError, "missing"):
            metrics.validate({k: v for k, v in values.items()
                              if k != "wall_s"}, self.end_to_end)
        with self.assertRaisesRegex(ValueError, "unexpected"):
            metrics.validate(dict(values, bogus=1.0), self.end_to_end)
        with self.assertRaises(ValueError):
            metrics.validate(dict(values, wall_s=math.nan), self.end_to_end)


class BenchmarkJsonTest(unittest.TestCase):
    NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

    def test_contract_shape(self):
        with open(SPEC_PATH) as f:
            spec = json.load(f)
        self.assertEqual(set(spec), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end", "per_layer"})
        self.assertIn(spec["run_seconds"], range(1, 61))
        self.assertTrue(2 <= len(spec["workloads"]) <= 8)
        names = [w["name"] for w in spec["workloads"]]
        for w in spec["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
        for m in spec["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25)
        for m in spec["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in spec["end_to_end"] + spec["per_layer"]:
            self.assertRegex(m["name"], self.NAME)
            self.assertRegex(m["unit"], self.UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
            names.append(m["name"])
        self.assertEqual(len(names), len(set(names)))
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        self.assertEqual(bounds["setup_s"], max(bounds.values()))


if __name__ == "__main__":
    unittest.main()
