#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics.

    python3 perfbench/spread.py --workload <name> [--seeds 1,2,3] [--trace 0|1]

Runs perfbench/run.py once per seed, for BENCHMARK.json's run_seconds, and
prints one line per run and then, for each metric, the median, the
quartiles (statistics.quantiles(values, n=4)) and the distance between the
quartiles as a share of the median, next to the metric's bound. The last
line of standard output is the same summary as one JSON object. Exits
non-zero when a run fails or reports incorrect output.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    seeds = [int(s) for s in args.seeds.split(",")]
    values = {}
    for seed in seeds:
        cmd = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(spec["run_seconds"]),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True)
        if proc.returncode != 0:
            sys.exit("spread: run with seed %d exited with code %d"
                     % (seed, proc.returncode))
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"] or result["failed"] != 0:
            sys.exit("spread: run with seed %d is incorrect: %s"
                     % (seed, json.dumps(result)))
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print("seed %d: %s"
              % (seed, {name: round(m["value"], 4)
                        for name, m in result["metrics"].items()}),
              flush=True)

    summary = {}
    for name, vals in values.items():
        q1, _, q3 = statistics.quantiles(vals, n=4)
        median = statistics.median(vals)
        spread = (q3 - q1) / median if median != 0 else None
        summary[name] = {"median": median, "q1": q1, "q3": q3,
                         "spread": spread, "bound": bounds.get(name)}
        print("%-28s median %12.6g  q1 %12.6g  q3 %12.6g  spread %s%s"
              % (name, median, q1, q3,
                 "-" if spread is None else "%.4f" % spread,
                 "" if bounds.get(name) is None
                 else "  bound %.2f" % bounds[name]))
    print(json.dumps({"workload": args.workload, "runs": len(seeds),
                      "metrics": summary}))


if __name__ == "__main__":
    main()
