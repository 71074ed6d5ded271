#!/usr/bin/env python3
"""The benchmark's own tests. Run from anywhere:

    python3 perfbench/test_perfbench.py

Each workload runs at --size tiny, untraced and traced, twice. The tests
check the result line's shape, that every metric BENCHMARK.json names is
present with its unit, and that simulated metrics and digests repeat. A
last test checks that a tree holding only BENCHMARK.json and perfbench/
fails without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

sys.dont_write_bytecode = True

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    SPEC = json.load(_f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# Deterministic per seed; everything else is a host measurement.
SIMULATED = {"detect_precision", "detect_recall"}


def bench(workload, trace, cwd=ROOT, run=RUN, seed=5):
    """Run the benchmark at tiny size; returns (returncode, stdout lines)."""
    proc = subprocess.run(
        [sys.executable, run, "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        timeout=600)
    return proc.returncode, proc.stdout.strip().splitlines()


class TinyWorkloads(unittest.TestCase):

    def check_run(self, workload, trace):
        code, lines = bench(workload, trace)
        self.assertEqual(code, 0, lines)
        result = json.loads(lines[-1])
        self.assertEqual(set(result), RESULT_KEYS)
        self.assertIs(result["correct"], True)
        self.assertEqual(result["failed"], 0)
        self.assertIsInstance(result["attempted"], int)
        self.assertGreaterEqual(result["attempted"], 1)
        listed = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in listed})
        for m in listed:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])
        header = json.loads(lines[0])
        self.assertEqual(header["provenance"]["workload"], workload)
        for key in ("cpu_model", "compiler", "build_type", "nproc",
                    "pool_threads", "seed", "iterations"):
            self.assertIn(key, header["provenance"])
        return result, header["digests"]

    def test_untraced_repeats(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                a, digests_a = self.check_run(workload, 0)
                b, digests_b = self.check_run(workload, 0)
                self.assertEqual(digests_a, digests_b)
                for name in SIMULATED:
                    self.assertEqual(a["metrics"][name], b["metrics"][name])
                for name, m in a["metrics"].items():
                    self.assertGreater(m["value"], 0, name)

    def test_traced_repeats_and_matches_untraced(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                a, digests_a = self.check_run(workload, 1)
                b, digests_b = self.check_run(workload, 1)
                _, untraced = self.check_run(workload, 0)
                self.assertEqual(digests_a, untraced)
                self.assertEqual(digests_b, untraced)
                for name, m in a["metrics"].items():
                    if name.startswith("sim."):
                        self.assertEqual(m, b["metrics"][name])

    def test_fails_without_library_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "bare_checkout")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            code, lines = bench(WORKLOADS[0], 0, cwd=bare,
                                run=os.path.join(bare, "perfbench", "run.py"))
            self.assertNotEqual(code, 0)
            for line in lines:
                self.assertNotIn('"correct"', line)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
