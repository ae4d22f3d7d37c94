#!/usr/bin/env python3
"""The benchmark's own tests.

Runs a shrunken (--smoke) pass of every workload, traced and untraced, and
checks that each exits 0 with no failed operation and prints exactly the
metrics BENCHMARK.json names, each with its unit. Run from the repository
root:

    python3 perfbench/test_perfbench.py
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
    SPEC = json.load(spec_file)


def run_smoke(workload, trace):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "0.1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return done.returncode, result, done.stderr


class SmokeTest(unittest.TestCase):
    def check(self, trace, declared):
        expected = {metric["name"]: metric["unit"] for metric in declared}
        for workload in (w["name"] for w in SPEC["workloads"]):
            with self.subTest(workload=workload, trace=trace):
                code, result, stderr = run_smoke(workload, trace)
                self.assertEqual(code, 0, stderr[-4000:])
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)
                printed = {name: metric["unit"] for name, metric in result["metrics"].items()}
                self.assertEqual(printed, expected)
                for metric in result["metrics"].values():
                    self.assertIsInstance(metric["value"], (int, float))
                if trace == 0:
                    self.assertEqual(result["metrics"]["correct_share"]["value"], 1.0)
                    for name in expected:
                        self.assertGreater(result["metrics"][name]["value"], 0.0, name)
                else:
                    self.assertGreaterEqual(result["metrics"]["span.coverage"]["value"], 0.95)

    def test_end_to_end_metrics(self):
        self.check(0, SPEC["end_to_end"])

    def test_per_layer_metrics(self):
        self.check(1, SPEC["per_layer"])

    def test_unknown_workload_fails_without_result(self):
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", "no-such-workload"],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=600)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
