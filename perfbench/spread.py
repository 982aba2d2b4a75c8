#!/usr/bin/env python3
"""Check that the benchmark is steady: run one workload on several seeds.

    python3 perfbench/spread.py --workload sort-remote --runs 10 [--first-seed 1]

For every end-to-end metric in BENCHMARK.json this prints the median over the
runs and the spread -- the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median -- next to the
metric's bound.  A spread above a third of the bound is flagged, and the exit
status is then 1.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()

    spec = json.load(open(os.path.join(HERE, "..", "BENCHMARK.json")))
    metrics = spec["end_to_end"]
    values = {m["name"]: [] for m in metrics}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
             "--trace", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        lines = out.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if out.returncode == 0 and lines else None
        if result is None or not result["correct"]:
            sys.exit("seed %d: exit %d\n%s" % (seed, out.returncode, out.stderr[-2000:]))
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print("seed %d: %s" % (seed, json.dumps(
            {k: v["value"] for k, v in result["metrics"].items()})), file=sys.stderr)

    steady = True
    print("| metric | median | spread | bound |\n|---|---:|---:|---:|")
    for m in metrics:
        v = values[m["name"]]
        med = statistics.median(v)
        q = statistics.quantiles(v, n=4)
        spread = (q[2] - q[0]) / med if med else 0.0
        bound = m["bound"]
        flag = ""
        if spread > bound / 3:
            flag, steady = " (over bound/3)", False
        print("| %s | %.6g | %.4f%s | %s |" % (m["name"], med, spread, flag, bound))
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
