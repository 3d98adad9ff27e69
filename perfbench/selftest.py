"""Self-tests of the benchmark itself (not of smcensus).

    python3 perfbench/selftest.py

They check that the correctness gate is live (an injected fault raises the
failure count), that the trace's exact counters repeat bit for bit, that
the verify report is byte-identical across passes, that the metric names
match BENCHMARK.json, and that the benchmark refuses to run without the
smcensus sources.  Inputs are reduced so the whole file runs in about a
minute.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from smcensus import verify  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
COUNTERS = [m["name"] for m in SPEC["per_layer"] if m["unit"] != "s"]

REDUCED = {
    "verify-default": lambda seed: workloads.verify_setup(
        seed, ("--max-n", "4", "--instances", "6", "--samples", "4000",
               "--truncate", "100000")),
    "lattice-large": lambda seed: workloads.lattice_setup(seed, n=20, pool=4),
    "sweep-small": lambda seed: workloads.sweep_setup(seed, instances_per_pass=30),
    "constants": workloads.constants_setup,
}


def traced_pass(workload: str, seed: int):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        inputs = REDUCED[workload](seed)
        outcome = workloads.WORKLOADS[workload][1](inputs, 0)
    finally:
        tracer.uninstall()
    return outcome, tracing.layer_metrics(tracer, COUNTERS), tracer


class BenchmarkSelfTest(unittest.TestCase):

    def test_negative_control_raises_failures(self):
        config = verify.RunConfig(seed=3, max_n=4, num_instances=12)
        clean = workloads.check_sweep(verify.run_sweep(config))
        faulty_config = dataclasses.replace(config, inject_fault=True)
        faulty_rows = verify.run_sweep(faulty_config)
        faulty = workloads.check_sweep(faulty_rows)
        self.assertEqual((clean.failed, clean.wrong), (0, []))
        self.assertGreater(faulty.failed / faulty.attempted, clean.failed / clean.attempted)
        self.assertTrue(faulty.wrong)
        self.assertFalse(verify.criterion_bijection(faulty_config, faulty_rows).passed)

    def test_counters_repeat_and_reports_are_identical(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                first, counts, tracer = traced_pass(workload, 5)
                second, again, _ = traced_pass(workload, 5)
                self.assertEqual(first.wrong, [])
                self.assertEqual(counts, again)
                self.assertEqual(first.output, second.output)
                self.assertTrue(all(end >= start for _, start, end, _ in tracer.spans))
                self.assertTrue(any(counts.values()))
                if workload == "verify-default":
                    self.assertEqual(workloads.report_digest(first),
                                     workloads.report_digest(second))
                    self.assertEqual((first.failed, first.attempted), (1, 14))
                    self.assertGreater(counts["counting.mc_orders"], 0)
                    self.assertGreater(counts["distributions.gap_dependence_draws"], 0)

    def test_metric_names_match_benchmark_json(self):
        names = [m["name"] for m in SPEC["per_layer"]]
        derived = tracing.layer_metrics(tracing.Tracer(), names)
        self.assertEqual(set(names) - set(derived),
                         {"trace.overhead_s", "verify.sweep_threads2_s"})
        self.assertEqual({w["name"] for w in SPEC["workloads"]}, set(workloads.WORKLOADS))

    def test_refuses_to_run_without_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / HERE.name,
                            ignore=shutil.ignore_patterns("__pycache__", "traces"))
            proc = subprocess.run(
                [sys.executable, *SPEC["command"][1:], "--workload", "constants",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=120)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
