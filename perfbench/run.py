#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload transient --seed 1 --seconds 10 --trace 0

Run from the repository root. Builds the benchmark (perfbench/src, a dune
project of its own) together with the repository's libraries (lib/) in a
workspace under perfbench/_out/build, runs it in its own process with its
own empty native cache directory, and forwards its output; the last line is
the result JSON. Exits non-zero, without a result line, when the build or
the run fails. See perfbench/README.md.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("transient", "activeset")
HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "_out")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.path.dirname(HERE)
    if not os.path.isdir(os.path.join(root, "lib")):
        fail("no lib/ next to perfbench/: run from a repository checkout")
    dune = shutil.which("dune")
    if dune is None:
        fail("dune not found on PATH")
    # The workspace: the benchmark's dune-project, its sources and the
    # repository's libraries, linked in so that one project holds them all.
    ws = os.path.join(OUT, "build")
    os.makedirs(ws, exist_ok=True)
    for name, target in (("dune-project", os.path.join("..", "..", "dune-project")),
                         ("src", os.path.join("..", "..", "src")),
                         ("lib", os.path.join("..", "..", "..", "lib"))):
        link = os.path.join(ws, name)
        if not os.path.islink(link):
            os.symlink(target, link)
    # Dune's shared cache lives outside the checkout: leave it alone.
    build = subprocess.run(
        [dune, "build", "--root", ws, "./src/bench.exe"],
        cwd=ws, env=dict(os.environ, DUNE_CACHE="disabled"),
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if build.returncode != 0:
        sys.stderr.write(build.stdout)
        fail("build failed")
    exe = os.path.join(ws, "_build", "default", "src", "bench.exe")

    # Every run gets its own empty native cache, and a temporary directory
    # inside the checkout for the C compiler; traced runs keep their spans.
    run_dir = os.path.join(OUT, "run-%d" % os.getpid())
    shutil.rmtree(run_dir, ignore_errors=True)
    cache = os.path.join(run_dir, "cache")
    tmp = os.path.join(run_dir, "tmp")
    os.makedirs(cache)
    os.makedirs(tmp)
    env = dict(os.environ, SYMPILER_NATIVE_CACHE=cache, TMPDIR=tmp,
               OCAMLRUNPARAM="")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", os.path.join(
            OUT, "spans-%s-seed%d.jsonl" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=args.seconds + 120)
    except subprocess.TimeoutExpired:
        fail("run timed out")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines[-1].startswith("{"):
        sys.stdout.write("".join(l + "\n" for l in lines
                                 if not l.startswith("{")))
        fail("bench.exe exited %d without a result" % proc.returncode)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
