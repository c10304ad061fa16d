#!/usr/bin/env python3
"""Builds and runs the repo benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The first run configures and builds
perfbench/CMakeLists.txt (the library sources in src/ plus the benchmark
program) into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when
the variable is unset; later runs only rebuild what changed. Build output
goes to standard error when the build fails. The last line of standard output is the result: one JSON
object with "correct", "attempted", "failed" and "metrics", whose metric
names and units are checked against BENCHMARK.json (end_to_end for
--trace 0, per_layer for --trace 1). Any failure to build, run or validate
exits non-zero without printing a result.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def run_quiet(cmd):
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail("command failed: " + " ".join(cmd))


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources at src/: run from a full checkout", 2)
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_quiet(cmd)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_quiet(["cmake", "--build", out, "--target", target, "-j", jobs])
    return os.path.join(out, target)


def declared_metrics(trace):
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e, 2)
    key = "per_layer" if trace else "end_to_end"
    return ({w["name"] for w in spec["workloads"]},
            {m["name"]: m["unit"] for m in spec[key]})


def validate(result, declared):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys are %s" % sorted(result)
    if not isinstance(result["correct"], bool):
        return "correct is not a boolean"
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            return key + " is not a whole number"
    if result["attempted"] < 1:
        return "no op was attempted"
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != declared:
        return "metrics %s do not match BENCHMARK.json %s" % (got, declared)
    for name, m in result["metrics"].items():
        if not isinstance(m.get("value"), (int, float)):
            return "metric %s has no numeric value" % name
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()

    if args.selftest:
        sys.exit(subprocess.run([build("perfbench_selftest")]).returncode)

    workloads, declared = declared_metrics(args.trace == 1)
    if args.workload not in workloads:
        fail("unknown workload %r; BENCHMARK.json has %s"
             % (args.workload, sorted(workloads)), 2)
    binary = build("mope_perfbench")
    data_dir = os.path.join(os.path.dirname(build_dir()), "durable_data")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--data-dir", data_dir]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark run exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)
    if proc.returncode != 0:
        fail("benchmark exited with code %d" % proc.returncode)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("benchmark printed no JSON result")
    problem = validate(result, declared)
    if problem:
        fail(problem)
    print(lines[-1])


if __name__ == "__main__":
    main()
