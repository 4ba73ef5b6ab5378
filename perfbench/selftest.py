#!/usr/bin/env python3
"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

Every check in ``checks`` must accept the engine's true results on
Q(1, beta) and reject perturbed ones: each single changed coefficient of
the trace form t, each closed-form value off by one, each value of t on a
seeded element off by one, each altered partial-trace total, swapped axiom
reports and cases that are all zero.
Prints one line per check and exits 1 if any perturbation went unnoticed.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
from quasihopf import intcoint, modtrace, qha, qhspec  # noqa: E402

N = 1
ONE = checks.rational(1)


def q1(power):
    doc = qhspec.parse(inputs.spec_text(N, power))
    H = qhspec.to_algebra(doc)
    co = intcoint.cointegrals(H, "right", pin=qhspec.reference_cointegral(doc))
    tr = modtrace.from_symmetrised_cointegral(H, intcoint.symmetrise(H, co))
    named = {k: {i: checks.coords(c) for (i,), c in el.coeffs.items()}
             for k, el in qhspec.named_elements(doc).items()}
    return H, checks.form_coords(tr.form), named


def traces_of(t, named):
    """t(x) for the named elements, in the checks' own arithmetic."""
    return {name: checks.expected_total(t, el, {(0, 0): ONE})
            for name, el in named.items()}


def trace_checks(H, t, named, power):
    return (checks.check_symmetric(H.alg.table, t)
            + checks.check_nondegenerate(H.alg.table, t, H.dim)
            + checks.check_closed_forms(traces_of(t, named), N, power))


def main():
    failures = []

    def expect(label, problems, rejected):
        ok = bool(problems) == rejected
        print(f"{'ok  ' if ok else 'FAIL'} {label}: "
              f"{'rejected' if problems else 'accepted'}")
        if not ok:
            failures.append(label)

    for power in inputs.BETA_POWERS[N % 2]:
        H, t, named = q1(power)
        expect(f"beta=z8^{power}: true trace form",
               trace_checks(H, t, named, power), False)
        missed = []
        for k in range(H.dim):
            for coord in range(checks.DEGREE):
                bumped = list(t.get(k, checks.ZERO))
                bumped[coord] += 1
                t2 = dict(t)
                t2[k] = tuple(bumped)
                if not trace_checks(H, t2, named, power):
                    missed.append((k, coord))
        expect(f"beta=z8^{power}: each of {H.dim * checks.DEGREE} single "
               f"coefficient changes of t", missed or ["all"], True)
        if missed:
            print(f"     unnoticed changes at (index, coordinate) {missed}")
        expect(f"beta=z8^{power}: symmetric check, t bumped on e_1",
               checks.check_symmetric(H.alg.table,
                                      {**t, 1: checks.rational(1)}), True)
        expect(f"beta=z8^{power}: Gram rank of t moved onto the unit word",
               checks.check_nondegenerate(H.alg.table,
                                          {0: t[max(t)]}, H.dim), True)
        got = traces_of(t, named)
        for name in sorted(got):
            off = {**got, name: checks.cadd(got[name], ONE)}
            expect(f"beta=z8^{power}: t(r_{name}) off by one",
                   checks.check_closed_forms(off, N, power), True)
        elements = inputs.trace_elements(power, N)
        values = {i: checks.expected_total(
                      t, {k: checks.rational(c) for k, c in a.items()},
                      {(0, 0): ONE})
                  for i, a in enumerate(elements)}
        expect(f"beta=z8^{power}: t on seeded elements",
               checks.check_element_traces(t, elements, values), False)
        for i in values:
            off = {**values, i: checks.cadd(values[i], ONE)}
            expect(f"beta=z8^{power}: t(a{i}) off by one",
                   checks.check_element_traces(t, elements, off), True)

    good = [(ONE, ONE, ONE), (checks.ZERO, checks.ZERO, checks.ZERO)]
    expect("partial-trace totals that agree",
           checks.check_partial_trace(good), False)
    for which in range(3):
        bad = list(good[0])
        bad[which] = checks.cadd(bad[which], ONE)
        expect(f"partial-trace total {which} altered",
               checks.check_partial_trace([tuple(bad)] + good[1:]), True)
    expect("cases that are all 0 = 0",
           checks.check_nonzero_share([good[1]] * 3), True)

    H = qhspec.to_algebra(qhspec.parse(inputs.spec_text(N, 7)))
    mutant = qhspec.to_algebra(qhspec.parse(inputs.mutate(inputs.spec_text(N, 7))))
    intact, broken = qha.check_axioms(H), qha.check_axioms(mutant)
    expect("axiom reports as expected",
           checks.check_axiom_reports(intact, broken), False)
    expect("mutated algebra passing", checks.check_axiom_reports(intact, intact),
           True)
    expect("intact algebra failing", checks.check_axiom_reports(broken, broken),
           True)

    print(f"{len(failures)} check(s) missed a perturbation" if failures
          else "every check rejected its perturbed inputs")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
