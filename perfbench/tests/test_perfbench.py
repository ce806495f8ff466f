#!/usr/bin/env python3
"""Tests of the repository benchmark.

    python3 perfbench/tests/test_perfbench.py

Builds the benchmark (as perfbench/run.py does), runs the C++ unit tests of
its percentile and span arithmetic, checks that the metric names the binary
prints are exactly those BENCHMARK.json declares, and makes a short run of
each workload, which must pass every correctness check (fail_frac = 0).
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
PERFBENCH = HERE.parent
ROOT = PERFBENCH.parent
sys.path.insert(0, str(PERFBENCH))

import run  # noqa: E402  (perfbench/run.py)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_benchmark(workload, trace, seconds=1, seed=7):
    p = subprocess.run(
        [sys.executable, str(PERFBENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    lines = p.stdout.splitlines()
    return p.returncode, json.loads(lines[-1]), lines


class UnitTests(unittest.TestCase):
    def test_measure_arithmetic(self):
        binary = run.build("perfbench_unit")
        p = subprocess.run([str(binary)], stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True, timeout=60)
        self.assertEqual(p.returncode, 0, p.stdout)


class MetricNames(unittest.TestCase):
    def test_spec_names_are_unique(self):
        names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        self.assertIn("setup_s", [m["name"] for m in SPEC["end_to_end"]])

    def test_binary_prints_declared_names(self):
        """Every workload measures every end-to-end metric; every per-layer
        metric it emits is declared, and each declared one is measured by
        at least one workload."""
        binary = run.build("perfbench")
        declared_e2e = {m["name"] for m in SPEC["end_to_end"]}
        declared_layer = {m["name"] for m in SPEC["per_layer"]}
        seen_layer = set()
        for w in WORKLOADS:
            with self.subTest(workload=w):
                rc, _, result = run.run_binary(
                    binary, ["--workload", w, "--seed", "3", "--seconds", "1",
                             "--trace", "1"], 300)
                self.assertEqual(rc, 0, result.get("failures"))
                self.assertEqual(set(result["end_to_end"]), declared_e2e)
                self.assertLessEqual(set(result["per_layer"]), declared_layer)
                seen_layer |= set(result["per_layer"])
        self.assertEqual(seen_layer, declared_layer)


class ShortRuns(unittest.TestCase):
    def test_each_workload_passes_its_checks(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                rc, out, lines = run_benchmark(w, trace=0)
                self.assertEqual(rc, 0, "\n".join(lines[-20:]))
                self.assertTrue(out["correct"])
                self.assertEqual(out["failed"], 0)
                self.assertGreater(out["attempted"], 0)
                self.assertEqual(set(out["metrics"]),
                                 {m["name"] for m in SPEC["end_to_end"]})
                for name, m in out["metrics"].items():
                    self.assertGreater(m["value"], 0, name)


if __name__ == "__main__":
    unittest.main()
