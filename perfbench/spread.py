#!/usr/bin/env python3
"""Run one workload of the benchmark once per seed and report each metric's
median and spread (interquartile range over median) against the bounds in
BENCHMARK.json.

Run from the repository root:

    python3 perfbench/spread.py --workload served-udf --seeds 1-10
    python3 perfbench/spread.py --workload sql-infer --seeds 1-5 --trace 1

With --trace 0 a spread above a third of its metric's bound is flagged;
setup_s is exempt (only its median is compared between runs).
"""
import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--out", help="append every run's result line to this file")
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    results = []
    for seed in seeds(args.seeds):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]), "--trace", args.trace]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit("seed %d failed (exit %d):\n%s" % (seed, proc.returncode, proc.stderr))
        res = json.loads(lines[-1])
        results.append(res)
        if args.out:
            with open(args.out, "a") as f:
                f.write(lines[-1] + "\n")
        print("seed %d: correct=%s attempted=%d failed=%d" % (seed, res["correct"], res["attempted"], res["failed"]),
              file=sys.stderr)
    print("%d runs of %s; all correct: %s" % (len(results), args.workload, all(r["correct"] for r in results)))
    for name in sorted(results[0]["metrics"]):
        vals = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(vals)
        spread = float("nan")
        if len(vals) >= 2 and med:
            q = statistics.quantiles(vals, n=4)
            spread = (q[2] - q[0]) / med
        flag = ""
        if name in bounds and name != "setup_s" and not spread <= bounds[name] / 3:
            flag = "  above a third of bound %.2f" % bounds[name]
        print("%-42s median %14.4f %-8s spread %.3f%s" % (
            name, med, results[0]["metrics"][name]["unit"], spread, flag))


if __name__ == "__main__":
    main()
