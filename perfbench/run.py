#!/usr/bin/env python3
"""Benchmark of the quasihopf engine: one workload, one run.

    python3 perfbench/run.py --workload trace-q2 --seed 1 --seconds 40 --trace 0

Run from the root of a checkout.  This process makes the workload's input
specs from the seed (untimed), then starts the measured process
(``child.py``) and waits for it.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Problems found by the output checks go to standard error.
The exit code is 0 when a result was printed, whether or not it is correct.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("trace-q2", "axioms-q2", "reduction-q1")
# A run, its build of the inputs included, must end within 180 s.
DEADLINE_S = 175


def main():
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "quasihopf", "__init__.py")):
        print(f"error: no engine sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    spec_dir = os.path.join(OUT, f"specs-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(spec_dir)
    try:
        for fname, text in workloads.WORKLOADS[args.workload].specs(
                args.seed).items():
            with open(os.path.join(spec_dir, fname), "w") as fh:
                fh.write(text)
        return measure(args, spec_dir, started)
    finally:
        shutil.rmtree(spec_dir, ignore_errors=True)


def measure(args, spec_dir, started):
    env = dict(os.environ, PYTHONHASHSEED="0")
    cmd = [sys.executable, os.path.join(HERE, "child.py"), args.workload,
           spec_dir, str(args.seed), str(args.seconds), str(args.trace)]
    t_spawn = time.perf_counter()
    proc = subprocess.Popen(cmd + [repr(t_spawn)], stdout=subprocess.PIPE,
                            env=env, text=True)
    try:
        stdout, _ = proc.communicate(
            timeout=DEADLINE_S - (time.perf_counter() - started))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print("error: the measured process ran out of time", file=sys.stderr)
        return 3
    if proc.returncode != 0:
        print(f"error: the measured process exited with {proc.returncode}",
              file=sys.stderr)
        return 3
    result = json.loads(stdout.strip().splitlines()[-1])
    print("round wall times (s): " + ", ".join(f"{t:.3f}" for t in result["round_s"])
          + (" (traced)" if args.trace else ""), file=sys.stderr)
    for problem in result["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"correct": not result["problems"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
