#!/usr/bin/env python3
"""Build and run the view-synchrony stack benchmark.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload kv-unbatched --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

The benchmark itself is perfbench/vsbench.ml.  This script builds it with
dune from the checkout's sources, runs it, and passes its output through:
the last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Build output goes to standard
error.  The traced run (--trace 1) writes its span ledger to _perfbench/.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ["kv-unbatched", "kv-pipelined", "churn-check", "trace-analyse"]
TARGET = "./perfbench/vsbench.exe"
EXE = os.path.join("_build", "default", "perfbench", "vsbench.exe")
OUT = "_perfbench"
RUN_TIMEOUT_S = 170


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="check that the span ledger attributes an injected "
                         "busy-wait to the right layer")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")

    for need in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(need):
            print(f"perfbench: {need} not found; run this from the root of "
                  "a view-synchrony source checkout", file=sys.stderr)
            return 2

    # The shared dune cache lives outside the checkout; build without it.
    build = subprocess.run(["dune", "build", "--root", ".", TARGET],
                           stdout=sys.stderr,
                           env=dict(os.environ, DUNE_CACHE="disabled"))
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode

    os.makedirs(OUT, exist_ok=True)
    env = dict(os.environ, PERFBENCH_OUT=OUT, OCAML_RUNTIME_EVENTS_DIR=OUT)
    if args.self_test:
        cmd = [EXE, "--self-test"]
    else:
        cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        return subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
