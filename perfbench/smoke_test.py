#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 perfbench/smoke_test.py

Runs every workload (spark_tpch too) at a tiny size, untraced and traced,
and checks that each end-to-end and per-layer metric is emitted with the
unit BENCHMARK.json gives it and that the run is correct. Then runs each
workload with one deliberately wrong value fed into a check and expects it
to show up as a failed operation.
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SPEC = run.load_spec()


def tiny(workload, trace=0, fault=False):
    argv = ["--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny"]
    result, _, failures = run.measure(run.parse_args(SPEC, argv + (["--fault"] if fault else [])), SPEC)
    return result, failures


class SmokeTest(unittest.TestCase):
    def check_emitted(self, workload, trace, names):
        result, failures = tiny(workload, trace)
        self.assertTrue(result["correct"], failures)
        self.assertEqual(result["failed"], 0, failures)
        self.assertGreaterEqual(result["attempted"], 1)
        for m in names:
            self.assertIn(m["name"], result["metrics"], f"{workload}: {m['name']} not emitted")
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])
        return result

    def test_metrics_emitted_with_units(self):
        for w in run.WORKLOADS:
            with self.subTest(workload=w, trace=0):
                result = self.check_emitted(w, 0, SPEC["end_to_end"])
                for m in SPEC["end_to_end"]:
                    self.assertGreater(result["metrics"][m["name"]]["value"], 0, m["name"])
            with self.subTest(workload=w, trace=1):
                self.check_emitted(w, 1, SPEC["per_layer"])

    def test_failed_check_counts_as_failed_operation(self):
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                result, failures = tiny(w, fault=True)
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)
                self.assertTrue(failures)


if __name__ == "__main__":
    unittest.main(verbosity=2)
