#!/usr/bin/env python3
"""Builds and runs the HEALERS layered end-to-end benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first run configures and builds
perfbench/ (the repository's src/ libraries plus the perfbench program) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that variable is
unset; later runs only rebuild what changed. The program's detailed report,
span file (traced runs) and temporary files go to the same build directory.

Any workload the program knows can be run, also one BENCHMARK.json leaves
out (serve-warm; see perfbench/README.md). The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.
Untraced runs report every end-to-end metric BENCHMARK.json declares;
traced runs report every per-layer metric, where 0 means the workload makes
no call into that layer's measured function. Exits non-zero without a
result when the checkout has no source tree, the build fails, or the program
fails.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out_dir):
    """Configures (once) and builds the perfbench program; returns its path."""
    os.makedirs(out_dir, exist_ok=True)
    log_path = os.path.join(out_dir, "build.log")
    with open(os.path.join(out_dir, ".lock"), "w") as lock, open(log_path, "a") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            configure = ["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"]
            if subprocess.run(configure + generator, stdout=log, stderr=log,
                              timeout=BUILD_TIMEOUT_S).returncode != 0:
                fail(f"configure failed, see {log_path}")
        jobs = str(min(4, os.cpu_count() or 1))
        if subprocess.run(["cmake", "--build", out_dir, "--target", "perfbench", "-j", jobs],
                          stdout=log, stderr=log, timeout=BUILD_TIMEOUT_S).returncode != 0:
            fail(f"build failed, see {log_path}")
    return os.path.join(out_dir, "perfbench")


def complete_metrics(result, spec, traced):
    """Checks the program's metrics against BENCHMARK.json; fills per-layer
    metrics the workload does not exercise with 0."""
    declared = spec["per_layer"] if traced else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    metrics = result["metrics"]
    unknown = sorted(set(metrics) - set(units))
    if unknown:
        fail(f"perfbench reported undeclared metrics {unknown}")
    for name, unit in units.items():
        if name not in metrics:
            if not traced:
                fail(f"perfbench did not report end-to-end metric {name}")
            metrics[name] = {"value": 0, "unit": unit}
        elif metrics[name]["unit"] != unit:
            fail(f"metric {name} has unit {metrics[name]['unit']}, declared {unit}")
    result["metrics"] = {name: metrics[name] for name in units}
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no HEALERS source tree under {ROOT}")
    if not os.path.exists(spec_path):
        fail(f"missing {spec_path}")
    with open(spec_path) as f:
        spec = json.load(f)

    out_dir = build_dir()
    binary = build(out_dir)
    for sub in ("reports", "traces", "tmp"):
        os.makedirs(os.path.join(out_dir, sub), exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace,
               "--report", os.path.join(out_dir, "reports", stem + ".json"),
               "--scratch", os.path.join(out_dir, "tmp")]
    if args.trace == "1":
        command += ["--spans", os.path.join(out_dir, "traces", stem + ".trace.json")]
    try:
        run = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = run.stdout.strip().splitlines()
    if not lines:
        fail(f"{args.workload} printed no result (exit {run.returncode})")
    result = json.loads(lines[-1])
    if not result.get("correct"):
        print(json.dumps(result))
        sys.exit(1)
    if run.returncode != 0:
        fail(f"{args.workload} exited {run.returncode}")
    print(json.dumps(complete_metrics(result, spec, args.trace == "1")))


if __name__ == "__main__":
    main()
