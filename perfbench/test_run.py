#!/usr/bin/env python3
"""Tests of run.py's percentile, tail rule and merge of processes.

    python3 perfbench/test_run.py
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def process(op_ms, setup_s=1.0, attempted=None, failed=0, correct=True,
            digest="aa"):
    return {"correct": correct,
            "attempted": len(op_ms) if attempted is None else attempted,
            "failed": failed,
            "metrics": {
                "setup_s": {"value": setup_s, "unit": "s"},
                "ops_per_s": {"value": 10.0, "unit": "1/s"},
                "peak_rss_mb": {"value": 5.0, "unit": "MB"},
                "model_energy_ratio": {"value": 0.5, "unit": "ratio"}},
            "op_ms": op_ms, "digest": digest}


class Percentile(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(100, 0, -1))
        self.assertEqual(run.percentile(values, 50), 50)
        self.assertEqual(run.percentile(values, 90), 90)
        self.assertEqual(run.percentile(values, 100), 100)
        self.assertEqual(run.percentile([3.0], 90), 3.0)
        self.assertEqual(run.percentile([], 50), 0.0)
        self.assertEqual(run.percentile([1.0, 2.0, 3.0, 4.0], 50), 2.0)

    def test_tail_rule_needs_ten_samples_beyond(self):
        self.assertEqual(run.samples_beyond(100, 90), 10)
        self.assertTrue(run.tail_rule_met(100, 90))
        self.assertEqual(run.samples_beyond(99, 90), 9)
        self.assertFalse(run.tail_rule_met(99, 90))
        self.assertTrue(run.tail_rule_met(20, 50))
        self.assertFalse(run.tail_rule_met(19, 50))
        self.assertFalse(run.tail_rule_met(1000, 100))
        self.assertFalse(run.tail_rule_met(0, 50))


class Merge(unittest.TestCase):
    def test_failed_ops_count_against_attempted(self):
        result, _ = run.merge([process([1.0] * 4),
                               process([1.0] * 4, failed=1)], False)
        self.assertEqual(result["attempted"], 8)
        self.assertEqual(result["failed"], 1)
        self.assertFalse(result["correct"])

    def test_run_check_failure_is_incorrect(self):
        ok, _ = run.merge([process([1.0]), process([1.0])], False)
        self.assertTrue(ok["correct"])
        check, _ = run.merge([process([1.0]), process([1.0], correct=False)],
                             False)
        self.assertFalse(check["correct"])

    def test_medians_over_processes_and_pooled_p90(self):
        result, notes = run.merge(
            [process(list(range(1, 41)), setup_s=3.0),
             process(list(range(41, 81)), setup_s=1.0),
             process(list(range(81, 101)), setup_s=2.0)], False)
        metrics = result["metrics"]
        self.assertEqual(list(metrics), run.END_TO_END)
        self.assertEqual(metrics["setup_s"]["value"], 2.0)
        # Process medians 20.5, 60.5 and 90.5.
        self.assertEqual(metrics["op_p50_ms"]["value"], 60.5)
        self.assertEqual(metrics["op_p90_ms"]["value"], 90)
        self.assertIn("n=100 pooled, 10 beyond", notes["op_p90_ms"])
        self.assertNotIn("below the tail rule", notes["op_p90_ms"])


if __name__ == "__main__":
    unittest.main()
