#!/usr/bin/env python3
"""Self-test of the simulator benchmark.

    python3 simbench/selftest.py

Checks that the metric names and units the benchmark prints are the ones
BENCHMARK.json declares, for both --trace 0 and --trace 1; that the default
seed's results match the recorded digests; that a tampered reference digest
is counted as a failed run; that reference.json's layer map covers every
per-layer metric; and that the pFabric stray-packet defect, which keeps
pFabric out of left_right_sweep, still reproduces. Uses the cheapest
workload at --seconds 1 (about 40 s).
"""

import fnmatch
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOAD = "dctcp_k10_hybrid"
# A pFabric run that leaves stray packets (see README.md, known failures).
STRAY_RUN = ["run", "--scenario", "left-right", "--protocol", "pfabric", "--load", "0.9",
             "--flows", "200", "--seed", "4017", "--exact-stats", "--json", "--no-cache"]


def run(trace, reference=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    cmd = bench["command"] + ["--workload", WORKLOAD, "--seed", "1",
                              "--seconds", "1", "--trace", str(trace)]
    if reference:
        cmd += ["--reference", reference]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, check=True).stdout
    result = json.loads(out.decode().strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"], sorted(result)
    return bench, result


def expect(cond, what):
    print("%s: %s" % ("ok  " if cond else "FAIL", what))
    return cond


def pfabric_strays():
    subprocess.run(["dune", "build", "--root", ROOT, "./bin/pase_sim.exe"],
                   cwd=ROOT, stdout=sys.stderr, check=True)
    exe = os.path.join(ROOT, "_build", "default", "bin", "pase_sim.exe")
    out = subprocess.run([exe] + STRAY_RUN, cwd=ROOT, stdout=subprocess.PIPE,
                         check=True).stdout
    return json.loads(out)["stray_pkts"]


def main():
    ok = True
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        bench, result = run(trace)
        declared = {m["name"]: m["unit"] for m in bench[key]}
        printed = {n: m["unit"] for n, m in result["metrics"].items()}
        ok &= expect(printed == declared,
                     "--trace %d prints exactly the %s metrics with their units" % (trace, key))
        ok &= expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                     "--trace %d on the default seed is correct" % trace)

    with open(os.path.join(HERE, "reference.json")) as f:
        reference = json.load(f)
    patterns = [p for layer in reference["layers"].values() for p in layer["metrics"]]
    uncovered = [m["name"] for m in bench["per_layer"]
                 if not any(fnmatch.fnmatch(m["name"], p) for p in patterns)]
    ok &= expect(not uncovered, "layer map covers every per-layer metric %s" % uncovered)

    work = os.path.join(ROOT, ".bench_build", "simbench")
    os.makedirs(work, exist_ok=True)
    tampered = os.path.join(work, "tampered-reference.json")
    digest = reference["digests"][WORKLOAD][0]
    reference["digests"][WORKLOAD][0] = ("0" if digest[0] != "0" else "1") + digest[1:]
    with open(tampered, "w") as f:
        json.dump(reference, f)
    _, result = run(0, reference=tampered)
    os.remove(tampered)
    ok &= expect(not result["correct"] and result["failed"] >= 1,
                 "a tampered reference digest counts as a failed run")

    # Fails once the defect is fixed: pFabric then goes back into
    # left_right_sweep (protocols in simbench.ml) with new digests.
    strays = pfabric_strays()
    ok &= expect(strays > 0, "pFabric stray defect still reproduces (%d stray packets), "
                 "so pFabric stays out of left_right_sweep" % strays)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
