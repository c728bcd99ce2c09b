#!/usr/bin/env python3
"""Self-tests of the repo benchmark.

    python3 perfbench/tests/test_perfbench.py

Builds the harness (like perfbench/run.py), runs the C++ self-tests of the
measurement primitives, then runs every workload briefly in both modes and
checks that the result line has the contract's shape and that every emitted
metric name matches [A-Za-z0-9_.-]+ and appears, with its unit, in
BENCHMARK.json (end_to_end for --trace 0, per_layer for --trace 1).
"""

import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(PERFBENCH)
sys.path.insert(0, PERFBENCH)

import run  # noqa: E402  (perfbench/run.py)

NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class PerfbenchSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.out_dir = run.build_dir()
        if not run.build(cls.out_dir):
            raise RuntimeError("perfbench build failed")
        cls.bench = load_benchmark()

    def test_primitives(self):
        proc = subprocess.run(
            [os.path.join(self.out_dir, "perfbench_selftest")],
            capture_output=True, text=True)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)

    def test_benchmark_json_names(self):
        names = [m["name"] for m in
                 self.bench["end_to_end"] + self.bench["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME_RE)
        self.assertEqual([w["name"] for w in self.bench["workloads"]],
                         list(run.WORKLOADS))

    def run_workload(self, workload, trace):
        proc = subprocess.run(
            [os.path.join(self.out_dir, "perfbench_harness"),
             "--workload", workload, "--seed", "3", "--seconds", "1",
             "--trace", str(trace), "--spans-dir", self.out_dir],
            capture_output=True, text=True, timeout=170)
        result = json.loads(proc.stdout.strip().split("\n")[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0, proc.stdout[-2000:])
        return result["metrics"]

    def test_emitted_names(self):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            declared = {m["name"]: m["unit"] for m in self.bench[section]}
            for workload in run.WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    metrics = self.run_workload(workload, trace)
                    for name, value in metrics.items():
                        self.assertRegex(name, NAME_RE)
                        self.assertIn(name, declared)
                        self.assertEqual(value["unit"], declared[name])
                        self.assertIsInstance(value["value"], (int, float))
                    self.assertEqual(set(metrics), set(declared))


if __name__ == "__main__":
    os.chdir(ROOT)
    unittest.main()
