"""Tests of run.py's helpers: quartiles and spread, the regression rule and
result parsing. Run with `python3 e2ebench/run.py --self-test`."""

import statistics
import unittest

import run


class QuartileSpreadTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [10.0, 12.0, 11.0, 13.0, 9.0, 10.5, 11.5, 12.5, 9.5, 10.0]
        median, q1, q3, spread = run.quartile_spread(values)
        want_q1, _, want_q3 = statistics.quantiles(values, n=4)
        self.assertEqual(median, statistics.median(values))
        self.assertEqual((q1, q3), (want_q1, want_q3))
        self.assertAlmostEqual(spread, (want_q3 - want_q1) / median)

    def test_constant_values_have_zero_spread(self):
        self.assertEqual(run.quartile_spread([2.0] * 10)[3], 0.0)

    def test_known_quartiles(self):
        # Exclusive method on 1..9: q1 = 2.5, q3 = 7.5, median 5.
        median, q1, q3, spread = run.quartile_spread(list(range(1, 10)))
        self.assertEqual((median, q1, q3), (5, 2.5, 7.5))
        self.assertAlmostEqual(spread, 1.0)


class WorseByTest(unittest.TestCase):
    def test_lower_is_better(self):
        self.assertAlmostEqual(run.worse_by(100.0, 110.0, "lower"), 0.10)
        self.assertAlmostEqual(run.worse_by(100.0, 90.0, "lower"), -0.10)

    def test_higher_is_better(self):
        self.assertAlmostEqual(run.worse_by(100.0, 90.0, "higher"), 0.10)
        self.assertAlmostEqual(run.worse_by(100.0, 120.0, "higher"), -0.20)


class ParseResultTest(unittest.TestCase):
    def test_last_line_and_traced_figures(self):
        out = ("FINGERPRINT {\"seed\": \"1\"}\n"
               "E2E_UNDER_TRACE {\"step_us_p50\": 900.5}\n"
               "{\"correct\": true, \"attempted\": 3, \"failed\": 0, "
               "\"metrics\": {\"x\": {\"value\": 1.5, \"unit\": \"s\"}}}\n")
        result, traced = run.parse_result(out)
        self.assertTrue(result["correct"])
        self.assertEqual(result["metrics"]["x"]["value"], 1.5)
        self.assertEqual(traced["step_us_p50"], 900.5)


if __name__ == "__main__":
    unittest.main()
