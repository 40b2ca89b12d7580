"""Tiny-size self-test of the benchmark.

    python3 bench/selftest.py

Checks that every end-to-end metric is emitted for every workload with
no failed operation, that a traced run emits every per-layer metric and
repeats its exact counts under the same seed, and that the benchmark
refuses a directory without the package.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import subprocess
import sys
import unittest
from pathlib import Path

import run
from workloads import WORKLOADS

# counts that must repeat exactly; times and the overhead ratio are measured
EXACT_UNITS = ("count", "ratio")
TINY_TRACE_OPS = {"curve_calculator": 64, "projspace_classes": 6, "cli_calls": 7}


def quiet(fn, *args):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        result = fn(*args)
    return result, out.getvalue()


class SelfTest(unittest.TestCase):
    def setUp(self):
        self._saved = run.SETUP_REPEATS, run.PROBE_REPEATS
        run.SETUP_REPEATS = run.PROBE_REPEATS = 1

    def tearDown(self):
        run.SETUP_REPEATS, run.PROBE_REPEATS = self._saved

    def test_every_end_to_end_metric_per_workload(self):
        names = set(run.units("end_to_end"))
        for name, workload in WORKLOADS.items():
            with self.subTest(workload=name):
                result, text = quiet(run.measure, workload, 3, 0.3)
                self.assertEqual(set(result["metrics"]), names)
                for metric, entry in result["metrics"].items():
                    self.assertGreater(entry["value"], 0, metric)
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)
                self.assertTrue(result["correct"])
                self.assertIn("failed_ratio: 0.0 ", text)

    def test_trace_counts_repeat_under_the_same_seed(self):
        names = run.units("per_layer")
        for name, workload in WORKLOADS.items():
            with self.subTest(workload=name):
                tiny = dataclasses.replace(workload, trace_ops=TINY_TRACE_OPS[name])
                first, _ = quiet(run.trace, tiny, 5)
                second, _ = quiet(run.trace, tiny, 5)
                self.assertEqual(set(first["metrics"]), set(names))
                self.assertEqual(first["failed"], 0)
                exact = {
                    metric
                    for metric, unit in names.items()
                    if unit in EXACT_UNITS and metric != "trace.overhead_ratio"
                }
                for metric in sorted(exact):
                    self.assertEqual(
                        first["metrics"][metric]["value"],
                        second["metrics"][metric]["value"],
                        metric,
                    )
                self.assertGreater(first["metrics"]["superscalar.mul.calls"]["value"], 0)

    def test_result_is_the_last_line(self):
        done = subprocess.run(
            [sys.executable, str(Path(run.__file__)), "--workload", "cli_calls",
             "--seed", "1", "--seconds", "0.3", "--trace", "0"],
            cwd=run.ROOT, capture_output=True, text=True, check=True, timeout=120,
        )
        result = json.loads(done.stdout.splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])

    def test_refuses_a_directory_without_the_package(self):
        saved = run.ROOT
        run.ROOT = Path(run.__file__).resolve().parent
        try:
            with self.assertRaises(SystemExit):
                run.load_package(run.Context(run.ROOT))
        finally:
            run.ROOT = saved


if __name__ == "__main__":
    unittest.main()
