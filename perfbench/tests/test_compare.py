"""Tests of perfbench/compare.py on fixture result sets.

    python3 -m unittest discover -s perfbench/tests
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import compare  # noqa: E402

FIXTURES = os.path.join(HERE, "fixtures")


def fixture(name):
    return os.path.join(FIXTURES, name)


class CompareFixtures(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(fixture("spec.json")) as f:
            cls.spec = json.load(f)
        cls.base, cls.base_failed = compare.load_runs(fixture("base.jsonl"))
        cls.change, cls.change_failed = compare.load_runs(fixture("change.jsonl"))
        cls.rows = {row["metric"]: row for row in compare.compare(cls.base, cls.change, cls.spec)}

    def test_failed_runs_are_excluded(self):
        self.assertEqual(len(self.base_failed), 0)
        self.assertEqual(len(self.change_failed), 1)
        self.assertEqual(len(self.change["w1"]), 10)

    def test_clear_latency_gain_is_better(self):
        self.assertEqual(self.rows["lat_us"]["verdict"], "better")
        self.assertAlmostEqual(self.rows["lat_us"]["gain"], 0.2, places=2)

    def test_rate_drop_beyond_bound_is_worse(self):
        self.assertEqual(self.rows["rate_per_s"]["verdict"], "worse")
        self.assertLess(self.rows["rate_per_s"]["gain"], -0.1)

    def test_small_shift_is_unchanged(self):
        self.assertEqual(self.rows["tail_us"]["verdict"], "unchanged")

    def test_spread_wider_than_bound_is_unresolved(self):
        row = self.rows["noisy_us"]
        self.assertGreater(row["base"]["spread"], row["bound"])
        self.assertEqual(row["verdict"], "unresolved")

    def test_wide_spread_but_every_run_better_is_better(self):
        row = self.rows["wide_but_clear_us"]
        self.assertGreater(row["change"]["spread"], row["bound"])
        self.assertEqual(row["verdict"], "better")

    def test_quartiles_match_statistics_module(self):
        row = self.rows["lat_us"]
        values = [100 + 0.1 * i for i in range(10)]
        q1, med, q3 = __import__("statistics").quantiles(values, n=4)
        self.assertAlmostEqual(row["base"]["q1"], q1)
        self.assertAlmostEqual(row["base"]["median"], med)
        self.assertAlmostEqual(row["base"]["q3"], q3)

    def test_cli_prints_every_pair_and_flags_failed_runs(self):
        run = subprocess.run([sys.executable, os.path.join(os.path.dirname(HERE), "compare.py"),
                              fixture("base.jsonl"), fixture("change.jsonl"),
                              "--spec", fixture("spec.json")],
                             capture_output=True, text=True)
        self.assertEqual(run.returncode, 1)  # the change set holds a failed run
        self.assertIn("was not correct", run.stderr)
        lines = [line for line in run.stdout.splitlines() if line.startswith("w1")]
        self.assertEqual(len(lines), 5)
        verdicts = {line.split()[1]: line.split()[-1] for line in lines}
        self.assertEqual(verdicts, {"lat_us": "better", "rate_per_s": "worse",
                                    "tail_us": "unchanged", "noisy_us": "unresolved",
                                    "wide_but_clear_us": "better"})


if __name__ == "__main__":
    unittest.main()
