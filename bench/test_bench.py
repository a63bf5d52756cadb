"""Tests of the benchmark's own code (not of reidbasket).

    python3 -m unittest discover -s bench -p 'test_*.py'
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
import unittest
from fractions import Fraction
from math import gcd
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import universe  # noqa: E402


class UniverseTest(unittest.TestCase):
    def test_exactly_8338_terminal_baskets_with_gamma_nonnegative(self):
        baskets = universe.terminal_baskets()
        self.assertEqual(len(baskets), 8338)
        self.assertEqual(len(set(baskets)), 8338)
        self.assertIn((), baskets)
        for basket in baskets:
            self.assertLessEqual(sum(r - Fraction(1, r) for _, r in basket), 24)
            for b, r in basket:
                self.assertTrue(0 < 2 * b <= r and gcd(b, r) == 1)

    def test_seeded_sampling_is_reproducible(self):
        baskets = universe.terminal_baskets()
        first = universe.draw_session(baskets, 7, 200)
        self.assertEqual(first, universe.draw_session(baskets, 7, 200))
        self.assertNotEqual(first, universe.draw_session(baskets, 8, 200))
        self.assertTrue(all(text and p1 in (0, 1, 2) for text, p1 in first))


class SelfTimeTest(unittest.TestCase):
    def test_nested_trace(self):
        # (id, parent, name, start, end, failed); a covers [0, 10]
        spans = [
            (3, 2, "d", 2.0, 3.0, False),
            (2, 1, "b", 1.0, 4.0, False),
            (5, 4, "e", 6.0, 8.0, True),
            (4, 1, "c", 5.0, 9.0, False),
            (1, 0, "a", 0.0, 10.0, False),
            (6, 0, "a", 11.0, 12.0, False),
        ]
        selfs = tracer.self_times(spans)
        self.assertEqual(selfs, {3: 1.0, 2: 2.0, 5: 2.0, 4: 2.0, 1: 3.0, 6: 1.0})

    def test_overlapping_children_are_covered_once(self):
        spans = [(2, 1, "x", 1.0, 5.0, False), (3, 1, "y", 3.0, 7.0, False),
                 (1, 0, "p", 0.0, 10.0, False)]
        self.assertEqual(tracer.self_times(spans)[1], 4.0)

    def test_totals_and_layer_metrics(self):
        t = tracer.Tracer()
        t.spans.extend([(2, 1, "core.gamma", 1.0, 2.0, True), (1, 0, "cli.main", 0.0, 4.0, False)])
        t.raw["classify.admits.accepted"] = 1
        t.raw["classify.admits.calls"] = 4
        metrics = tracer.layer_metrics(tracer.merge_totals([t.totals(), t.totals()]))
        self.assertEqual(metrics["cli.main.calls"], 2)
        self.assertEqual(metrics["cli.main.self_s"], 6.0)
        self.assertEqual(metrics["core.gamma.errors"], 2)
        self.assertEqual(metrics["classify.admits.accept_ratio"], 0.25)
        self.assertEqual(metrics["packing.closure.calls"], 0)


class TracerInstallTest(unittest.TestCase):
    def test_spans_follow_calls_inside_the_package_and_uninstall_restores(self):
        from reidbasket import classify, core

        original = core.plurigenus_sequence
        wb = core.WeightedBasket(core.Basket.of((1, 2), (2, 5), (1, 3), (2, 11)), 1)
        t = tracer.Tracer().install()
        try:
            admitted = classify.ClassificationConstraints(p_fixed={1: 1}).admits(wb)
        finally:
            t.uninstall()
        self.assertTrue(admitted)
        self.assertIs(core.plurigenus_sequence, original)
        by_id = {s[0]: s for s in t.spans}
        (root,) = [s for s in t.spans if s[1] == 0]
        self.assertEqual(root[2], "classify.admits")
        filt = next(s for s in t.spans if s[2] == "core.geometric_filter")
        self.assertEqual(by_id[filt[1]][2], "classify.admits")
        self.assertEqual(t.raw["classify.admits.accepted"], 1)
        self.assertGreater(t.raw["core.delta_n.calls"], 0)


class RunTest(unittest.TestCase):
    def test_tail_rung_keeps_ten_samples_beyond(self):
        self.assertEqual(run.tail(list(range(1, 13))), ("p50", 6.5))
        self.assertEqual(run.tail(list(range(1, 100))), ("p50", 50))
        self.assertEqual(run.tail(list(range(1, 101))), ("p90", 90))
        self.assertEqual(run.tail(list(range(1, 1001))), ("p99", 990))

    def test_fails_without_the_package(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(BENCH, Path(tmp) / "bench",
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "verify", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
