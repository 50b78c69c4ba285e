#!/usr/bin/env python3
"""Run one workload of the simulator benchmark and print its result line.

    python3 simbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds simbench/simbench.exe from source with dune, runs it, adds the peak
resident memory of the process tree (end-to-end runs) and, for the default
seed, checks every simulation result's digest against reference.json. The
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. See README.md in this directory.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "simbench", "simbench.exe")


def run_seconds():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return json.load(f)["run_seconds"]
    except (OSError, ValueError, KeyError):
        return None


def build():
    if not os.path.isfile(os.path.join(ROOT, "dune-project")):
        sys.exit("simbench: no dune-project at %s: not a checkout of the simulator" % ROOT)
    # Build output goes to stderr: stdout carries only the result line.
    done = subprocess.run(
        ["dune", "build", "--root", ROOT, "--cache=disabled", "./simbench/simbench.exe"],
        cwd=ROOT, stdout=sys.stderr)
    if done.returncode != 0:
        sys.exit("simbench: build failed")


def run(args):
    """Runs the benchmark program; returns its result object and the peak
    resident memory, in MB, of it and every worker it forked."""
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE)
    out = proc.stdout.read()
    proc.stdout.close()
    # wait4 reports the child's peak RSS together with that of its own
    # waited-for children (the sweep's forked workers), in KB on Linux.
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        sys.exit("simbench: %s exited with %d" % (os.path.basename(EXE), proc.returncode))
    lines = out.decode().strip().splitlines()
    if not lines:
        sys.exit("simbench: no result printed")
    return json.loads(lines[-1]), usage.ru_maxrss / 1024.0


def check_digests(result, reference, workload):
    """Counts each simulation result whose digest differs from the recorded
    one as failed."""
    expected = reference["digests"].get(workload)
    got = result["digests"]
    if expected is None or len(expected) != len(got):
        print("simbench: FAIL no reference digests for %s" % workload, file=sys.stderr)
        return 1
    bad = [i for i, (e, g) in enumerate(zip(expected, got)) if e != g]
    for i in bad:
        print("simbench: FAIL %s run %d: digest %s, reference %s"
              % (workload, i, got[i], expected[i]), file=sys.stderr)
    return len(bad)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=run_seconds(),
                    help="default: run_seconds in BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--reference", default=os.path.join(HERE, "reference.json"),
                    help="digests of the default seed's results")
    args = ap.parse_args()
    if args.seconds is None:
        ap.error("--seconds is required when BENCHMARK.json gives no run_seconds")

    with open(args.reference) as f:
        reference = json.load(f)
    build()
    result, peak_rss_mb = run(args)

    failed = result["failed"]
    if args.seed == reference["default_seed"]:
        failed += check_digests(result, reference, args.workload)
    metrics = result["metrics"]
    if args.trace == 0:
        metrics["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}
    print(json.dumps({
        "correct": result["correct"] and failed == 0,
        "attempted": result["attempted"],
        "failed": min(failed, result["attempted"]),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
