"""Wall-clock discipline of every rate the benchmark reports.

Each workload runs briefly and writes its report; every rate in it must be
its work divided by its wall interval — including the phases that run on
two pool threads, where a CPU-time rate would overstate the result. The
end-to-end throughput metric must be the median of those wall-clock rates
(one per chunk of the run).

    python3 -m unittest discover -s perfbench/tests
"""

import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run as runner  # noqa: E402

WORKLOADS = ["derive-cold", "app-hardened", "serve-warm", "fleet-sim"]
SECONDS = 1.0


class WallClockRates(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.out_dir = runner.build_dir()
        cls.binary = runner.build(cls.out_dir)
        cls.reports = {}
        cls.elapsed = {}
        scratch = os.path.join(cls.out_dir, "tmp")
        os.makedirs(scratch, exist_ok=True)
        for workload in WORKLOADS:
            report = os.path.join(cls.out_dir, "reports", f"wallclock-{workload}.json")
            os.makedirs(os.path.dirname(report), exist_ok=True)
            start = time.monotonic()
            run = subprocess.run([cls.binary, "--workload", workload, "--seed", "5",
                                  "--seconds", str(SECONDS), "--trace", "0", "--report", report,
                                  "--scratch", scratch],
                                 cwd=ROOT, capture_output=True, text=True, timeout=170)
            cls.elapsed[workload] = time.monotonic() - start
            if run.returncode != 0:
                raise AssertionError(f"{workload} failed: {run.stderr}")
            with open(report) as f:
                cls.reports[workload] = json.load(f)

    def test_every_rate_is_work_over_wall_interval(self):
        for workload, report in self.reports.items():
            self.assertTrue(report["rates"], workload)
            for rate in report["rates"]:
                with self.subTest(workload=workload, rate=rate["name"]):
                    self.assertGreater(rate["wall_s"], 0)
                    self.assertGreater(rate["work"], 0)
                    # The interval is wall time inside this process's life.
                    self.assertLessEqual(rate["wall_s"], self.elapsed[workload])
                    self.assertAlmostEqual(rate["value"], rate["work"] / rate["wall_s"],
                                           delta=1e-9 * rate["value"])

    def test_two_thread_phases_are_not_cpu_time_rates(self):
        two_thread = [(w, r) for w, rep in self.reports.items() for r in rep["rates"]
                      if r["threads"] == 2]
        self.assertEqual({w for w, _ in two_thread}, {"serve-warm"})
        for workload, rate in two_thread:
            with self.subTest(workload=workload, rate=rate["name"]):
                self.assertEqual(self.reports[workload]["pool_threads"], 2)
                if abs(rate["cpu_s"] - rate["wall_s"]) > 0.05 * rate["wall_s"]:
                    cpu_rate = rate["work"] / rate["cpu_s"]
                    self.assertGreater(abs(rate["value"] - cpu_rate), 0.04 * rate["value"])

    def test_throughput_metric_is_the_median_chunk_wall_rate(self):
        for workload, report in self.reports.items():
            with self.subTest(workload=workload):
                values = [rate["value"] for rate in report["rates"]]
                self.assertAlmostEqual(report["metrics"]["throughput_per_s"]["value"],
                                       statistics.median(values),
                                       delta=1e-9 * statistics.median(values))


class BareDirectory(unittest.TestCase):
    def test_fails_without_a_result_when_only_the_benchmark_is_present(self):
        with tempfile.TemporaryDirectory(dir=runner.build_dir()) as bare:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(BENCH, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            run = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "derive-cold",
                                  "--seed", "1", "--seconds", "1", "--trace", "0"],
                                 cwd=bare, capture_output=True, text=True, timeout=170)
            self.assertNotEqual(run.returncode, 0)
            self.assertNotIn("metrics", run.stdout)


if __name__ == "__main__":
    unittest.main()
