#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py

Runs every workload at reduced size (run.py --smoke) with tracing off and
on. Checks that the result line names exactly the metrics BENCHMARK.json
declares, with their units; that every output check passes; that the
traced self times plus trace.unattributed_s sum to the traced wall; and
that run.py refuses to run from a directory without the sources.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper_suite", "scale_1m", "codec")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run_bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", "7", "--seconds", "1",
         "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=1800)


class BenchmarkTest(unittest.TestCase):
    def result(self, workload, trace):
        proc = run_bench(workload, trace)
        self.assertEqual(proc.returncode, 0,
                         proc.stdout[-4000:] + proc.stderr[-4000:])
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(out), {"correct", "attempted", "failed",
                                    "metrics"})
        self.assertTrue(out["correct"])
        self.assertEqual(out["failed"], 0)
        self.assertGreaterEqual(out["attempted"], 1)
        return out["metrics"]

    def assert_declared(self, metrics, declared):
        self.assertEqual(set(metrics), {m["name"] for m in declared})
        for m in declared:
            self.assertEqual(metrics[m["name"]]["unit"], m["unit"])
            self.assertTrue(math.isfinite(metrics[m["name"]]["value"]),
                            m["name"])

    def test_end_to_end_metrics(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                metrics = self.result(workload, 0)
                self.assert_declared(metrics, SPEC["end_to_end"])
                for name, m in metrics.items():
                    self.assertGreater(m["value"], 0, name)

    def test_traced_attribution_closes(self):
        scale = {"s": 1.0, "ms": 1e-3}
        units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                metrics = self.result(workload, 1)
                self.assert_declared(metrics, SPEC["per_layer"])
                attributed = sum(
                    m["value"] * scale[units[name]]
                    for name, m in metrics.items()
                    if units[name] in scale
                    and not name.startswith(("proc.", "trace.")))
                wall = metrics["trace.wall_s"]["value"]
                unattributed = metrics["trace.unattributed_s"]["value"]
                self.assertAlmostEqual(attributed + unattributed, wall,
                                       delta=1e-6 * wall)
                # Named layers hold a real share of the wall.
                self.assertGreater(attributed, 0.25 * wall)

    def test_refuses_without_sources(self):
        # A checkout holding only BENCHMARK.json and perfbench/.
        partial = os.path.join(ROOT, ".bench_build", "partial-checkout")
        shutil.rmtree(partial, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(partial, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), partial)
        try:
            proc = run_bench("codec", 0, cwd=partial)
        finally:
            shutil.rmtree(partial)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
