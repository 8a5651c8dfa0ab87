"""Self-tests of the benchmark harness.

    python3 perfbench/test_harness.py
"""

import json
import sys
import types
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def span(name, start, end, parent=None, root=None):
    return [name, start, end, parent, root, 0]


class SelfTime(unittest.TestCase):
    def test_nested_spans(self):
        spans = [
            span("solve", 0, 100, None, 0),
            span("outer", 10, 40, 0, 0),
            span("inner", 20, 30, 1, 0),
            span("other", 50, 60, 0, 0),
        ]
        self.assertEqual(tracer.self_times(spans), [60, 20, 10, 10])

    def test_overlapping_children_count_once(self):
        spans = [
            span("solve", 0, 100, None, 0),
            span("a", 10, 50, 0, 0),
            span("b", 30, 70, 0, 0),
            span("c", 90, 120, 0, 0),
        ]
        self.assertEqual(tracer.self_times(spans)[0], 100 - 60 - 10)

    def test_summary_keys_by_root(self):
        spans = [
            span("solve", 0, 100, None, 0),
            span("core.residual", 0, 40, 0, 0),
            span("verify", 100, 200, None, 2),
            span("core.residual", 110, 120, 2, 2),
            span("core.residual", 40, 60, 0, 0),
        ]
        totals = tracer.summarize(spans)
        self.assertEqual(totals[("solve", "core.residual")][:2], [2, 60])
        self.assertEqual(totals[("verify", "core.residual")][:2], [1, 10])
        self.assertEqual(totals[("solve", "solve")][1], 40)


class Wrapping(unittest.TestCase):
    def test_install_restores_and_reports_absent(self):
        fake = types.ModuleType("fake_layer")
        fake.work = lambda x: x + 1
        original = fake.work
        sys.modules["fake_layer"] = fake
        try:
            t = tracer.Tracer()
            t.install((("fake.work", "fake_layer", "work"), ("fake.gone", "fake_layer", "gone")))
            with t.root("solve"):
                self.assertEqual(fake.work(1), 2)
            t.uninstall()
            self.assertIs(fake.work, original)
            self.assertEqual(t.absent, {"fake_layer.gone"})
            self.assertEqual([s[tracer.NAME] for s in t.spans], ["solve", "fake.work"])
            self.assertEqual(t.spans[1][tracer.ROOT], 0)
        finally:
            del sys.modules["fake_layer"]


class Gate(unittest.TestCase):
    measured = {"cancellations": 0, "pivots": 1678, "nondegenerate": 1600, "augmentations": 0}

    def test_stored_references_pass(self):
        refs = workloads.load_references()
        self.assertEqual(workloads.count_problems("ns_pivots", self.measured, refs), [])

    def test_wrong_reference_count_is_flagged(self):
        refs = {"ns_pivots": {"counts": {"nondegenerate": 1600, "degenerate": 77}}}
        problems = workloads.count_problems("ns_pivots", self.measured, refs)
        self.assertEqual(len(problems), 1)
        self.assertIn("degenerate is 78, reference 77", problems[0])


class Tail(unittest.TestCase):
    def test_leaves_ten_samples_above(self):
        samples = list(range(100, 0, -1))
        self.assertEqual(run.tail(samples), (90, 90.0))
        value, percentile = run.tail(range(1000))
        self.assertEqual((value, percentile), (989, 99.0))

    def test_smallest_sample_count(self):
        self.assertEqual(run.tail(range(11)), (0, 100.0 / 11))
        self.assertIsNone(run.tail(range(10)))


class HostSpeed(unittest.TestCase):
    def test_scale_uses_the_references_around_a_time(self):
        s = speed.Speed()
        s.samples = [0.02, 0.04, 0.01]
        self.assertAlmostEqual(s.scale(3.0, 0), 3.0 * speed.NOMINAL_S / 0.03)
        self.assertAlmostEqual(s.scale(3.0, 2), 3.0 * speed.NOMINAL_S / 0.01)
        self.assertAlmostEqual(s.run_factor(), speed.NOMINAL_S / 0.02)


class Manifest(unittest.TestCase):
    def test_benchmark_json_lists_what_the_run_reports(self):
        doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        pairs = lambda key: [(m["name"], m["unit"]) for m in doc[key]]
        self.assertEqual(pairs("end_to_end"), list(run.END_TO_END_UNITS.items()))
        layers = [m[:2] for m in run.LAYER_METRICS] + list(run.RUN_METRICS)
        self.assertEqual(pairs("per_layer"), layers)
        names = tuple(w["name"] for w in doc["workloads"])
        self.assertEqual(names, run.WORKLOAD_NAMES)
        self.assertEqual(names, tuple(workloads.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
