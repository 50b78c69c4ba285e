#!/usr/bin/env python3
"""Steadiness check: run one workload over several seeds and report, for each
end-to-end metric, the median and the quartile spread as a share of the
median, against the metric's bound in BENCHMARK.json.

    python3 simbench/steady.py --workload NAME [--seeds 10] [--first-seed 1]
                               [--seconds S] [--json OUT]

Runs are sequential. A spread above a third of its bound is flagged. Seeds
whose result is not correct are listed; their metrics still count.
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
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--json", help="write the per-seed values here")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    values = {m["name"]: [] for m in bench["end_to_end"]}
    incorrect = []
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        out = subprocess.run(
            bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, check=True).stdout.decode()
        result = json.loads(out.strip().splitlines()[-1])
        if not result["correct"]:
            incorrect.append(seed)
            print("seed %d: INCORRECT, %d of %d runs failed"
                  % (seed, result["failed"], result["attempted"]), file=sys.stderr)
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.6g" % (n, v[-1]) for n, v in values.items())), file=sys.stderr)

    steady = True
    for m in bench["end_to_end"]:
        v = values[m["name"]]
        q1, med, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / med
        flag = "" if spread < m["bound"] / 3 else "  UNSTEADY"
        steady = steady and not flag
        print("%-24s median %-14.6g q1 %-14.6g q3 %-14.6g spread %.4f (bound %.2f)%s"
              % (m["name"], med, q1, q3, spread, m["bound"], flag))
    print("incorrect seeds: %s" % (incorrect or "none"))
    if args.json:
        with open(args.json, "w") as f:
            json.dump({"workload": args.workload, "values": values,
                       "incorrect_seeds": incorrect}, f, indent=1)
    sys.exit(0 if steady and not incorrect else 1)


if __name__ == "__main__":
    main()
