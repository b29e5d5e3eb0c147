#!/usr/bin/env python3
"""Self-check of the repository benchmark.

    python3 perfbench/selfcheck.py [--seconds 1]

Runs every workload of BENCHMARK.json twice untraced and twice traced, each
run short, and asserts that:
  - every run is correct, with no failed operation;
  - every end-to-end metric (untraced) and every per-layer metric (traced)
    is printed with the unit BENCHMARK.json gives it, and nothing else;
  - the deterministic counts repeat exactly across the two runs: c_bytes,
    symbolic.nnz_l, core.pipeline.iters, and native.compiles (each run
    starts from a fresh native cache).
Exits non-zero on the first violation.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DETERMINISTIC = {0: ["c_bytes"],
                 1: ["symbolic.nnz_l", "core.pipeline.iters", "native.compiles"]}


def run(workload, seed, seconds, trace):
    out = subprocess.run(
        ["python3", "perfbench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if out.returncode != 0:
        sys.exit("selfcheck: %s trace=%d exited %d" % (workload, trace,
                                                       out.returncode))
    return json.loads(out.stdout.strip().split("\n")[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for w in spec["workloads"]:
        name = w["name"]
        for trace in (0, 1):
            results = [run(name, args.seed, args.seconds, trace)
                       for _ in range(2)]
            for r in results:
                assert r["correct"] and r["failed"] == 0, (name, trace, r)
                assert r["attempted"] >= 1, (name, trace, r)
                units = {k: v["unit"] for k, v in r["metrics"].items()}
                assert units == expected[trace], (
                    name, trace, sorted(set(units.items())
                                        ^ set(expected[trace].items())))
            for k in DETERMINISTIC[trace]:
                a, b = (r["metrics"][k]["value"] for r in results)
                assert a == b, "%s: %s differs across runs: %r vs %r" % (
                    name, k, a, b)
            print("selfcheck: %-9s trace=%d ok" % (name, trace), flush=True)
    print("selfcheck: all workloads ok")


if __name__ == "__main__":
    main()
