#!/usr/bin/env python3
"""Tests of the wall-clock benchmark itself.

    python3 wallbench/test_wallbench.py

Builds the benchmark, runs its C++ self-test (residual check, seeded
inputs, traced against untraced solves), then a short run of every
workload in both modes through run.py, whose check_result holds each
emitted metric to the BENCHMARK.json declaration.  Takes about two
minutes.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run as bench  # noqa: E402

def load_spec():
    with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class WallbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        bench.build()

    def run_bench(self, workload, trace, cwd=None):
        script = os.path.join(cwd or bench.ROOT, "wallbench", "run.py")
        return subprocess.run(
            [sys.executable, script, "--workload", workload, "--seed", "11",
             "--seconds", "1", "--trace", str(trace)],
            capture_output=True, text=True, timeout=600)

    def test_selftest(self):
        p = subprocess.run([bench.BINARY, "--selftest"], capture_output=True,
                           text=True, timeout=600)
        self.assertEqual(p.returncode, 0, p.stdout + p.stderr)
        self.assertNotIn("FAIL", p.stdout)

    def test_every_workload_runs_correctly_in_both_modes(self):
        spec = load_spec()
        for w in spec["workloads"]:
            for trace in (0, 1):
                with self.subTest(workload=w["name"], trace=trace):
                    p = self.run_bench(w["name"], trace)
                    self.assertEqual(p.returncode, 0, p.stderr)
                    lines = [json.loads(x)
                             for x in p.stdout.strip().splitlines()]
                    result = lines[-1]
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    manifest = lines[0]["manifest"]
                    self.assertEqual(manifest["workload"], w["name"])
                    for key in ("compiled", "knobs", "np", "build_type",
                                "compiler", "nproc", "llc_bytes", "seed",
                                "commit"):
                        self.assertIn(key, manifest)

    def test_declared_names_follow_the_pattern(self):
        spec = load_spec()
        names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, bench.NAME_RE)

    def test_check_result_rejects_an_undeclared_metric(self):
        result = {"correct": True, "attempted": 1, "failed": 0,
                  "metrics": {m["name"]: {"value": 1.0, "unit": m["unit"]}
                              for m in load_spec()["end_to_end"]}}
        bench.check_result(result, trace=0)
        result["metrics"]["bogus metric"] = {"value": 1.0, "unit": "s"}
        with self.assertRaises(bench.BenchError):
            bench.check_result(result, trace=0)

    def test_fails_without_printing_a_result_when_sources_are_missing(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(bench.ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(bench.HERE, os.path.join(tmp, "wallbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            p = self.run_bench("lap2d-cg-latency", 0, cwd=tmp)
            self.assertNotEqual(p.returncode, 0)
            self.assertEqual(p.stdout, "")


if __name__ == "__main__":
    unittest.main()
