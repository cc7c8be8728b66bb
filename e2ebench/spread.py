#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports each metric's spread.

  python3 e2ebench/spread.py [--workloads a,b] [--seeds 1-10] [--seconds 20]
                             [--trace 0|1] [--out FILE] [--against FILE]

For every workload and metric it prints the median, the quartiles (Python's
statistics.quantiles(n=4)) and the spread (q3 - q1) / median, next to the
bound from BENCHMARK.json and whether the spread is under a third of it.
--out writes the same summary as JSON (the committed baseline.json is one).
--against FILE, an earlier --out summary, also prints by how much each median
is worse than that summary's, as a share of it, and whether that stays within
the bound.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in config["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=config["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    parser.add_argument("--against")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    lower_is_better = {m["name"]: m["better"] == "lower" for m in config["end_to_end"]}
    earlier = json.loads(pathlib.Path(args.against).read_text()) if args.against else None

    summary = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
                check=False, cwd=ROOT)
            result = json.loads(done.stdout.strip().split("\n")[-1])
            if done.returncode != 0 or not result["correct"] or result["failed"]:
                sys.exit("%s seed %d: exit %d, correct=%s, failed=%d" %
                         (workload, seed, done.returncode, result["correct"],
                          result["failed"]))
            runs.append(result["metrics"])
        metrics = {}
        print("%s (%d seeds)" % (workload, len(runs)))
        for name in runs[0]:
            values = [r[name]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else 0.0
            metrics[name] = {"unit": runs[0][name]["unit"], "median": median,
                             "q1": q1, "q3": q3, "spread": spread}
            bound = bounds.get(name)
            verdict = ""
            if bound is not None:
                verdict = "bound %.3f %s" % (bound, "ok" if spread < bound / 3 else "WIDE")
            if earlier is not None and bound is not None:
                before = earlier["workloads"][workload][name]["median"]
                worse = (median - before) if lower_is_better[name] else (before - median)
                worse = worse / before if before else 0.0
                verdict += ", median worse by %.4f %s" % (worse, "ok" if worse <= bound else "OVER")
            print("  %-40s median %-14.6g spread %.4f %s" % (name, median, spread, verdict))
        summary["workloads"][workload] = metrics
    if args.out:
        pathlib.Path(args.out).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
