#!/usr/bin/env python3
"""Self-test of the repository benchmark.

  python3 perfbench/test_perfbench.py

Checks that the output checkers reject wrong results (a perturbed CG
solution, a wrong serving output, a STREAM sum one push short), that every
metric BENCHMARK.json names is printed with its unit on every workload in
both run modes, and that the benchmark refuses to run without the
program's sources.
"""
import json
import math
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def bench(workload, trace, cwd=run.ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=900)


class CheckersTest(unittest.TestCase):
    def test_checkers_reject_wrong_outputs(self):
        run.build()
        out = subprocess.run([run.BINARY, "--selftest"], capture_output=True,
                             text=True, timeout=120)
        self.assertEqual(out.returncode, 0, out.stdout + out.stderr)
        for what in ("rejects a perturbed solution", "rejects a one-ulp error",
                     "rejects a sum one push short"):
            self.assertRegex(out.stdout, what + r" +ok")


class ResultLineTest(unittest.TestCase):
    def check(self, workload, trace):
        out = bench(workload, trace)
        self.assertEqual(out.returncode, 0, out.stderr[-2000:])
        lines = out.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        wanted = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in wanted})
        table = "\n".join(lines[:-1])
        for m in wanted:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])
            self.assertRegex(table, r"\n  %s +\S+ %s\n" % (
                m["name"].replace(".", r"\."), m["unit"].replace("/", r"\/")))

    def test_every_metric_printed_with_its_unit(self):
        for w in SPEC["workloads"]:
            for trace in (0, 1):
                with self.subTest(workload=w["name"], trace=trace):
                    self.check(w["name"], trace)


class NoSourcesTest(unittest.TestCase):
    def test_refuses_without_program_sources(self):
        tree = os.path.join(run.BUILD_ROOT, "selftest-tree")
        shutil.rmtree(tree, ignore_errors=True)
        os.makedirs(tree)
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tree)
        shutil.copytree(HERE, os.path.join(tree, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        try:
            out = bench(SPEC["workloads"][0]["name"], 0, cwd=tree)
        finally:
            shutil.rmtree(tree, ignore_errors=True)
        self.assertNotEqual(out.returncode, 0)
        self.assertNotIn('"metrics"', out.stdout)


if __name__ == "__main__":
    unittest.main()
