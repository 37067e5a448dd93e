#!/usr/bin/env python3
"""Compares two sets of perfbench runs, per (workload, end-to-end metric).

    python3 perfbench/compare.py BASE.jsonl CHANGE.jsonl [--spec BENCHMARK.json]

Each input is a JSON-lines file, one run per line:
    {"workload": "derive-cold", "seed": 11, "result": <run.py's last line>}
Runs are paired in file order (run i of the base with run i of the change),
so alternate the two sides when you make them.

For each pair it prints each side's median and quartiles, the spread
((q3 - q1) / median) and a verdict, by the rules of the benchmark's guide:
  unresolved  either side's spread exceeds the metric's bound, unless every
              change run reads better than every base run (then better);
  worse       the change's median is worse than the base's by more than the
              bound;
  better      the change wins at least nine tenths of the pairs (ties count
              for neither) and the medians differ by more than the base's
              interquartile distance;
  unchanged   otherwise.
Quartiles are statistics.quantiles(values, n=4). Runs whose result is not
correct are reported and left out.
"""

import argparse
import json
import os
import statistics
import sys

DEFAULT_SPEC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                            "BENCHMARK.json")


def load_runs(path):
    """Returns {workload: [result, ...]} in file order, and the failed runs."""
    runs, failed = {}, []
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            record = json.loads(line)
            if not record["result"].get("correct"):
                failed.append(record)
                continue
            runs.setdefault(record["workload"], []).append(record["result"])
    return runs, failed


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    spread = (q3 - q1) / med if med else float("inf")
    return {"median": med, "q1": q1, "q3": q3, "spread": spread, "n": len(values)}


def verdict(base, change, better, bound):
    """Verdict for one metric from two lists of values (paired by index)."""
    sign = 1 if better == "higher" else -1
    b, c = summarize(base), summarize(change)
    # Positive = the change is better, as a share of the base median.
    gain = sign * (c["median"] - b["median"]) / b["median"]
    all_better = min(sign * v for v in change) > max(sign * v for v in base)
    if max(b["spread"], c["spread"]) > bound:
        return ("better" if all_better else "unresolved"), b, c, gain
    if gain < -bound:
        return "worse", b, c, gain
    pairs = list(zip(base, change))
    wins = sum(1 for x, y in pairs if sign * y > sign * x)
    if pairs and wins >= 0.9 * len(pairs) and abs(c["median"] - b["median"]) > b["q3"] - b["q1"]:
        return "better", b, c, gain
    return "unchanged", b, c, gain


def compare(base_runs, change_runs, spec):
    """Yields one row per (workload, end-to-end metric) both sides measured."""
    for workload in [w["name"] for w in spec["workloads"]]:
        for metric in spec["end_to_end"]:
            name = metric["name"]
            base = [r["metrics"][name]["value"] for r in base_runs.get(workload, [])
                    if name in r["metrics"]]
            change = [r["metrics"][name]["value"] for r in change_runs.get(workload, [])
                      if name in r["metrics"]]
            if not base or not change:
                continue
            v, b, c, gain = verdict(base, change, metric["better"], metric["bound"])
            yield {"workload": workload, "metric": name, "unit": metric["unit"],
                   "bound": metric["bound"], "base": b, "change": c, "gain": gain, "verdict": v}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("change")
    parser.add_argument("--spec", default=DEFAULT_SPEC)
    args = parser.parse_args()
    with open(args.spec) as f:
        spec = json.load(f)
    base_runs, base_failed = load_runs(args.base)
    change_runs, change_failed = load_runs(args.change)
    for side, failed in (("base", base_failed), ("change", change_failed)):
        for record in failed:
            print(f"{side}: run {record['workload']} seed {record.get('seed')} was not correct",
                  file=sys.stderr)
    print(f"{'workload':14} {'metric':18} {'base median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34} {'gain':>8} {'spreads':>13}  verdict")
    for row in compare(base_runs, change_runs, spec):
        b, c = row["base"], row["change"]
        print(f"{row['workload']:14} {row['metric']:18} "
              f"{b['median']:12.6g} [{b['q1']:9.6g}, {b['q3']:9.6g}] "
              f"{c['median']:12.6g} [{c['q1']:9.6g}, {c['q3']:9.6g}] "
              f"{row['gain']:+8.2%} {b['spread']:6.3f}/{c['spread']:6.3f}  {row['verdict']}")
    return 1 if base_failed or change_failed else 0


if __name__ == "__main__":
    sys.exit(main())
