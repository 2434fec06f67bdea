"""Tests of the CI perf gates' decision rules on fixed samples.

    python3 .github/test_perf_gates.py
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import perf_gates  # noqa: E402


class Quartiles(unittest.TestCase):
    def test_seven_runs(self):
        self.assertEqual(perf_gates.quartiles([7, 1, 6, 2, 5, 3, 4]),
                         (2.5, 4, 5.5))

    def test_interpolates_between_runs(self):
        q1, med, q3 = perf_gates.quartiles([1.0, 2.0, 3.0, 4.0])
        self.assertAlmostEqual(q1, 1.75)
        self.assertAlmostEqual(med, 2.5)
        self.assertAlmostEqual(q3, 3.25)

    def test_one_run(self):
        self.assertEqual(perf_gates.quartiles([2.0]), (2.0, 2.0, 2.0))


class RatioVerdict(unittest.TestCase):
    # seven recorder-overhead ratios as a 2-core host reads them
    HOST = [0.93, 0.98, 1.00, 1.02, 1.03, 1.04, 1.05]

    def test_pass(self):
        self.assertEqual(perf_gates.ratio_verdict(self.HOST, 1.05), "pass")

    def test_fail(self):
        busy = [r * 1.3 for r in self.HOST]
        self.assertEqual(perf_gates.ratio_verdict(busy, 1.05), "fail")

    def test_spread_too_wide_is_unresolved(self):
        wide = [0.80, 0.90, 1.00, 1.04, 1.08, 1.20, 1.30]
        self.assertEqual(perf_gates.ratio_verdict(wide, 1.05), "unresolved")

    def test_median_over_bound_alone_does_not_fail(self):
        # the lower quartile decides a failure, not the median
        xs = [1.00, 1.02, 1.04, 1.06, 1.07, 1.08, 1.09]
        self.assertEqual(perf_gates.ratio_verdict(xs, 1.05), "unresolved")


class StartupVerdict(unittest.TestCase):
    # head / base totals of 20 `ecsd --version` spawns a side, 11 pairs
    SAME = [0.97, 0.99, 1.00, 1.00, 1.01, 1.01, 1.02, 1.02, 1.03, 1.04, 1.06]

    def test_unchanged_binary_passes(self):
        self.assertEqual(
            perf_gates.ratio_verdict(self.SAME, perf_gates.STARTUP_BOUND),
            "pass")

    def test_pie_relink_fails(self):
        # a dynamic PIE binary against a static one: ~0.4 ms on ~2.1 ms
        pie = [r * 1.2 for r in self.SAME]
        self.assertEqual(
            perf_gates.ratio_verdict(pie, perf_gates.STARTUP_BOUND), "fail")

    def test_faster_head_passes(self):
        # the static relink against a dynamic PIE base
        static = [r / 1.25 for r in self.SAME]
        self.assertEqual(
            perf_gates.ratio_verdict(static, perf_gates.STARTUP_BOUND),
            "pass")


class MetricsVerdict(unittest.TestCase):
    # faultsim noise-burst --seeds 8, --metrics / plain totals of 10 runs
    # a side, 11 pairs on a 2-core host: spans per run, and spans per step
    PER_RUN = [1.003, 0.9886, 0.9517, 0.9839, 0.9942, 1.016, 1.001, 1.011,
               0.9843, 1.03, 1.024]
    PER_STEP = [1.145, 1.138, 1.182, 1.098, 1.194, 1.129, 1.17, 1.126, 1.235,
                1.079, 1.14]

    def test_spans_per_run_pass(self):
        self.assertEqual(
            perf_gates.ratio_verdict(self.PER_RUN, perf_gates.METRICS_BOUND),
            "pass")

    def test_spans_per_step_fail(self):
        self.assertEqual(
            perf_gates.ratio_verdict(self.PER_STEP, perf_gates.METRICS_BOUND),
            "fail")


class RegressionVerdict(unittest.TestCase):
    BASE = [1.00, 1.10, 1.05, 0.95, 1.20, 1.02, 0.98]

    def test_pass_within_bound(self):
        head = [x * 1.2 for x in self.BASE]
        self.assertEqual(
            perf_gates.regression_verdict(self.BASE, head, 1.25), "pass")

    def test_fail_when_every_head_run_is_slower(self):
        head = [1.6, 1.7, 1.5, 1.65, 1.8, 1.55, 1.62]
        self.assertEqual(
            perf_gates.regression_verdict(self.BASE, head, 1.25), "fail")

    def test_overlapping_runs_are_unresolved(self):
        head = [1.6, 1.7, 1.1, 1.65, 1.8, 1.55, 1.62]
        self.assertEqual(
            perf_gates.regression_verdict(self.BASE, head, 1.25), "unresolved")

    def test_faster_head_passes(self):
        head = [x * 0.5 for x in self.BASE]
        self.assertEqual(
            perf_gates.regression_verdict(self.BASE, head, 1.25), "pass")


if __name__ == "__main__":
    unittest.main()
