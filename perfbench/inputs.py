"""The benchmark's inputs, all made from the workload seed.

Specs are built with ``sympferm.build`` and written with ``qhspec``, as
``quasihopf sympferm --emit-spec`` writes them; the measured process only
reads them back.  Nothing here is timed.
"""

import random

# beta = zeta_8^k with beta^4 = (-1)^N: odd k for odd N, even k for even N
BETA_POWERS = {1: (1, 3, 5, 7), 0: (0, 2, 4, 6)}

# Sizes keep one round of every workload within a few seconds, so that a run
# holds many rounds and the median of each operation's times over them
# leaves out the host's slow spells.  One Q(3) modtrace round takes ~30 s
# and an exhaustive Q(2) axiom check ~25 s: a run could hold only one.
TRACE_N = 2
AXIOMS_N = 2
ELEMENTS = 4                    # seeded elements a per trace-q2 algebra
AXIOMS_BUDGET = 128             # `quasihopf check --budget 128`
MUTANT_N = 1
REDUCTION_N = 1
CASES = 2                       # Xi(a (x) m) cases per reduction-q1 round
# The mutated copy of Q(1, beta) flips the sign of this structure constant,
# the e_0 component of e_7 e_9 = (f1- K3)(f1+ K).  The copy still loads:
# the twist and the coassociator lie in the span of the K words, so the
# inverse checks of to_algebra never use e_7 e_9.  check_axioms catches it
# (associativity, with a witness).
MUTATION = (7, 9, 0)


def beta_power(N, seed):
    return BETA_POWERS[N % 2][seed % 4]


def beta_powers(N, seed):
    """The powers k of the algebras Q(N, zeta_8^k) that every round of a
    workload on Q(N, beta) runs.

    For odd N that is the one beta the seed picks; beta^2 = +-i for all
    four.  For even N it is one beta of each class, beta^2 = 1 (rational
    structure constants) and beta^2 = -1 (constants in Q(i)), since the
    engine takes 1.4 to 2.2 times as long on the second: a run on one class
    only would make the seed set the run time.  The seed picks the sign of
    each."""
    if N % 2:
        return (beta_power(N, seed),)
    return (4 * (seed % 2), 2 + 4 * (seed // 2 % 2))


def spec_text(N, power):
    """Q(N, zeta_8^power) in the spec format, with the named elements
    x+-, y+- and the reference cointegral that `sympferm --emit-spec` writes."""
    from quasihopf import qhspec, sympferm
    from quasihopf.exactmath import Scalar

    fx = sympferm.build(N, Scalar.zeta(8, power))
    names = {k: fx.elements[k] for k in ("x+", "x-", "y+", "y-")}
    doc = qhspec.from_algebra(fx.H, names, cointegral=fx.cointegral)
    return qhspec.serialize(doc)


def mutate(text, key=MUTATION):
    """Flip the sign of one `mul i j k` constant of a spec."""
    prefix = "mul " + " ".join(map(str, key)) + " "
    lines = text.splitlines()
    for n, line in enumerate(lines):
        if line.startswith(prefix):
            value = line[len(prefix):]
            flipped = value[1:] if value.startswith("-") else "-" + value
            if "+" in value[1:] or "-" in value[1:]:
                raise ValueError(f"cannot flip a compound constant {value!r}")
            lines[n] = prefix + flipped
            return "\n".join(lines) + "\n"
    raise ValueError(f"spec has no constant {prefix.strip()}")


def top_words(N):
    """Basis indices of the four top words F(full, full, i)."""
    from quasihopf import sympferm

    full = (1 << N) - 1
    return [sympferm.basis_index(N, full, full, i) for i in range(4)]


def trace_elements(seed, N=TRACE_N, count=ELEMENTS):
    """Seeded elements a on which trace-q2 evaluates t, as {index: int}:
    the four top words, where the symmetrised cointegral lives, and two
    other basis words, with coefficients from {1, 2, -1}."""
    rng = random.Random(seed)
    top = top_words(N)
    others = [k for k in range(1 << (2 * N + 2)) if k not in top]
    return [{k: rng.choice((1, 2, -1)) for k in rng.sample(others, 2) + top}
            for _ in range(count)]


def reduction_cases(seed, N=REDUCTION_N, count=CASES):
    """Xi(a (x) m) cases as plain data: (a, m) with a {index: int} and
    m {(row, col): int} on the regular module.

    a has two other basis words besides the top words F(full, full, 1) and
    F(full, full, 3) (the symmetrised cointegral vanishes off the top
    words), and m has one diagonal and two off-diagonal entries, so that
    tr(m) t(a) is not 0.

    The cases themselves are drawn once, the same for every seed: their
    positions and coefficients set how dense Xi(a (x) m) is (cancellations
    included), and so the round's time and memory.  The seed draws what
    leaves that density alone, a factor from {1, -1, 2} for each a and each
    m.  The order of the cases stays fixed too, since the peak memory
    depends on it."""
    fixed = random.Random(0)
    rng = random.Random(seed)
    dim = 1 << (2 * N + 2)
    top = top_words(N)
    others = [k for k in range(dim) if k not in top]
    coeffs = (1, 2, -1)
    cases = []
    for _ in range(count):
        a = {k: fixed.choice(coeffs)
             for k in fixed.sample(others, 2) + [top[1], top[3]]}
        r, r1, r2, c1, c2 = fixed.sample(range(dim), 5)
        m = {(r, r): fixed.choice(coeffs), (r1, c1): fixed.choice(coeffs),
             (r2, c2): fixed.choice(coeffs)}
        sa, sm = rng.choice(coeffs), rng.choice(coeffs)
        cases.append(({k: sa * c for k, c in a.items()},
                      {k: sm * c for k, c in m.items()}))
    return cases
