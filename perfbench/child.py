"""The measured process of one benchmark run (started by run.py).

    python3 perfbench/child.py <workload> <spec dir> <seed> <seconds>
        <trace 0|1> <spawn time>

It loads the workload's specs (the set-up, timed from the spawn time that
run.py read from the same monotonic clock just before starting it, so
interpreter start and imports count), then runs whole rounds while another
round fits into <seconds> (at least one), checks the results of every round
and prints one JSON line: the metrics, the operation counts, the round
times and the problems the checks found.  Every round after the first loads
its algebras again, untimed, so that no round finds caches filled by an
earlier one.

``run_s`` is the time of one round at the run's typical speed: the sum,
over the round's operations, of each operation's median wall time over the
run's rounds.  The host slows single rounds by up to half at times; a
median over many rounds leaves such spells out where a mean or a single
long round would not.
"""

import json
import os
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv):
    name, spec_dir, seed, seconds, trace, t_spawn = argv
    seed, seconds, trace, t_spawn = int(seed), float(seconds), trace == "1", \
        float(t_spawn)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import tracer as tracing
    import workloads

    tracer = tracing.Tracer()
    if trace:
        tracing.install(tracer)
    wl = workloads.WORKLOADS[name]

    texts = {}
    for fname in sorted(os.listdir(spec_dir)):
        with open(os.path.join(spec_dir, fname)) as fh:
            texts[fname] = fh.read()
    loaded = wl.load(texts, seed)
    setup_s = time.perf_counter() - t_spawn
    setup_spans = {k: tracer.seconds(k)
                   for k in ("qhspec.parse", "qhspec.to_algebra")}
    tracer.reset()

    round_s, op_s, attempted, failed, problems = [], {}, 0, 0, []
    started = time.perf_counter()
    while True:
        ops = workloads.Ops()
        t0 = time.perf_counter()
        wl.run(loaded, ops, tracer)
        round_s.append(time.perf_counter() - t0)
        for op, t in ops.seconds.items():
            op_s.setdefault(op, []).append(t)
        if len(round_s) == 1:
            peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            layers = tracing.layer_metrics(tracer, setup_spans) if trace else None
        attempted += ops.attempted
        failed += ops.failed
        problems += wl.check(loaded, ops.results, seed)
        elapsed = time.perf_counter() - started
        if trace or elapsed + max(round_s) > seconds:
            break
        loaded = wl.load(texts, seed)

    out = {"attempted": attempted, "failed": failed, "problems": problems,
           "round_s": round_s}
    if trace:
        out["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
        tracer.dump(os.path.join(spec_dir, "..", f"trace-{name}-{seed}.json"),
                    {"workload": name, "seed": seed, "traced_run_s": round_s[0]})
    else:
        out["metrics"] = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "run_s": {"value": sum(map(statistics.median, op_s.values())),
                      "unit": "s"},
            "peak_rss_mib": {"value": peak_rss_mib, "unit": "MiB"},
        }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
