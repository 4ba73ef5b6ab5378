#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/spread.py --label set-a --seeds 1-10 \
        [--workloads trace-q2,axioms-q2,reduction-q1]

Runs ``run.py`` untraced once per (workload, seed), one run at a time, and
prints per workload and metric the median, the quartiles
(``statistics.quantiles``, n=4) and the quartile distance as a share of the
median, next to the metric's bound from BENCHMARK.json.  The runs are saved to
``perfbench/results/<label>.json``; ``--compare a,b`` prints the change of
each median from saved set a to saved set b instead of running anything.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def bounds():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return spec, {m["name"]: m.get("bound") for m in spec["end_to_end"]}


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def collect(spec, bound_of, workloads, seeds):
    runs = []
    for name in workloads:
        for seed in seeds:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                   name, "--seed", str(seed), "--seconds",
                   str(spec["run_seconds"]), "--trace", "0"]
            t0 = time.perf_counter()
            done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  text=True, check=True)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            result.update(workload=name, seed=seed,
                          wall_s=time.perf_counter() - t0)
            runs.append(result)
            print(f"{name} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} " +
                  " ".join(f"{k}={v['value']:.4g}"
                           for k, v in result["metrics"].items()
                           if k in bound_of) + f" wall={result['wall_s']:.1f}s",
                  flush=True)
    return runs


def report(runs, bound_of):
    by = {}
    for r in runs:
        for k, v in r["metrics"].items():
            by.setdefault((r["workload"], k), []).append(v["value"])
    out = {}
    for (name, metric), values in by.items():
        if metric not in bound_of or len(values) < 2:
            continue
        s = summary(values)
        out[f"{name} {metric}"] = s
        bound = bound_of[metric]
        print(f"{name:13s} {metric:13s} n={len(values):2d} "
              f"median={s['median']:.4f} q1={s['q1']:.4f} q3={s['q3']:.4f} "
              f"spread={s['spread']:.4f} bound={bound}"
              f"{'  OVER A THIRD OF THE BOUND' if s['spread'] > bound / 3 else ''}")
    return out


def compare(a, b, bound_of):
    for key, sa in a["summary"].items():
        sb = b["summary"].get(key)
        if sb is None:
            continue
        metric = key.split()[1]
        change = sb["median"] / sa["median"] - 1
        print(f"{key:28s} {sa['median']:.4f} -> {sb['median']:.4f} "
              f"({change:+.2%}, bound {bound_of[metric]})")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--label")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default="trace-q2,axioms-q2,reduction-q1")
    parser.add_argument("--compare")
    args = parser.parse_args()
    spec, bound_of = bounds()
    if args.compare:
        a, b = (json.load(open(os.path.join(RESULTS, f"{x}.json")))
                for x in args.compare.split(","))
        compare(a, b, bound_of)
        return 0
    started = time.strftime("%Y-%m-%d %H:%M:%S UTC", time.gmtime())
    runs = collect(spec, bound_of, args.workloads.split(","),
                   seeds_of(args.seeds))
    summ = report(runs, bound_of)
    if args.label:
        os.makedirs(RESULTS, exist_ok=True)
        with open(os.path.join(RESULTS, f"{args.label}.json"), "w") as fh:
            json.dump({"label": args.label,
                       "started": started,
                       "runs": runs, "summary": summ}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
