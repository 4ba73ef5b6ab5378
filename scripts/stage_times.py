#!/usr/bin/env python3
"""Wall time of each pipeline stage for one in-process run of Q(N, beta).

    python3 scripts/stage_times.py --n 4 --beta z8^2

The stages are those of `quasihopf sympferm` followed by `quasihopf verify
--suite all`: build, check_axioms, integrals + modulus, cointegrals (right),
symmetrise, from_symmetrised_cointegral, verify_reduction (both sides) and
the pairing of the trivial module with H.  Every check is exhaustive, as in
the CLI.  The report is one JSON object: each stage's seconds, verdict and
the process peak RSS at its end (so the stage that sets the peak is the
first whose figure reaches it), their total and the process peak RSS.  The
exit code is 1 if any stage's check fails.
"""

import argparse
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from quasihopf import intcoint, modtrace  # noqa: E402
from quasihopf.exactmath import parse_scalar  # noqa: E402
from quasihopf.qha import check_axioms  # noqa: E402
from quasihopf.repcat import regular_module, trivial_module  # noqa: E402
from quasihopf.sympferm import BadBeta, build  # noqa: E402


def stages(N, beta):
    """Yield (stage name, thunk returning whether the stage's check passed),
    in pipeline order; each thunk uses the results of the ones before."""
    got = {}

    def run_build():
        got["H"] = build(N, beta, max_n=N).H
        return True

    def run_integrals():
        # solves the left integral and caches it with the modulus on H, where
        # the cointegral stage reads both
        H = got["H"]
        return intcoint.modulus(H).is_counit(H)

    def run_cointegrals():
        got["co"] = intcoint.cointegrals(got["H"], "right")
        return True

    def run_symmetrise():
        got["sym"] = intcoint.symmetrise(got["H"], got["co"])
        return True

    def run_trace():
        got["tr"] = modtrace.from_symmetrised_cointegral(
            got["H"], got["sym"], "right")
        return got["tr"].side == "two-sided"

    def run_pairing():
        H = got["H"]
        reg = regular_module(H)
        pres = modtrace.trivial_presentation(H, reg)
        return modtrace.pairing_nondegeneracy(
            H, got["tr"], trivial_module(H, 1), reg, pres).passed

    yield "build", run_build
    yield "check_axioms", lambda: check_axioms(got["H"]).passed
    yield "integrals + modulus", run_integrals
    yield "cointegrals", run_cointegrals
    yield "symmetrise", run_symmetrise
    yield "from_symmetrised_cointegral", run_trace
    yield "verify_reduction", lambda: modtrace.verify_reduction(
        got["H"], got["tr"]).passed
    yield "pairing", run_pairing


def peak_rss_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--n", type=int, required=True)
    ap.add_argument("--beta", required=True,
                    help="scalar, e.g. z8^7 (beta^4 must equal (-1)^N)")
    args = ap.parse_args(argv)
    if args.n < 1:
        ap.error("--n must be positive")
    try:
        beta = parse_scalar(args.beta, 8)
    except ValueError as e:
        ap.error(f"--beta: {e}")

    rows = []
    try:
        for name, thunk in stages(args.n, beta):
            t0 = time.perf_counter()
            passed = thunk()
            rows.append({"stage": name,
                         "s": round(time.perf_counter() - t0, 3),
                         "passed": passed,
                         "peak_rss_mib": round(peak_rss_mib(), 1)})
    except BadBeta as e:
        ap.error(str(e))
    print(json.dumps({"n": args.n, "beta": args.beta, "stages": rows,
                      "total_s": round(sum(r["s"] for r in rows), 3),
                      "peak_rss_mib": round(peak_rss_mib(), 1)}))
    return 0 if all(r["passed"] for r in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
