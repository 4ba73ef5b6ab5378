"""Output checks for the benchmark, in arithmetic written here.

Scalars of the engine are read only through their power-basis coordinates
(``Scalar.coords``, Fractions in 1, z, z^2, z^3 with z = zeta_8) and are
multiplied here, modulo z^4 + 1, so that a fault in the engine's own scalar
arithmetic cannot hide in these checks.  Every check returns a list of
problems; an empty list means the check passed.

Nothing here is compared with stored output, and no expected value comes
from ``quasihopf.sympferm``: the closed forms for t(r_x), t(r_y) are stated
in :func:`closed_form_traces`.
"""

from fractions import Fraction

CONDUCTOR = 8
DEGREE = 4                     # z^4 = -1 in Q(zeta_8)
# A prime p = 1 (mod 8), so F_p holds a primitive 8th root of unity W.
PRIME = 998244353
W = pow(3, (PRIME - 1) // 8, PRIME)

ZERO = (Fraction(0),) * DEGREE
# A reduction-q1 run must have at least this share of cases with
# tr(m) t(a) != 0; cases with 0 = 0 on both paths show little.
MIN_NONZERO_SHARE = 0.5


def coords(s):
    """Exact coordinates of an engine scalar over Q(zeta_8)."""
    if s.n != CONDUCTOR:
        raise ValueError(f"checks assume conductor {CONDUCTOR}, got {s.n}")
    return tuple(s.coords)


def cmul(a, b):
    """Product of two coordinate tuples in Q(zeta_8)."""
    out = [Fraction(0)] * DEGREE
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            if not y:
                continue
            k = i + j
            if k < DEGREE:
                out[k] += x * y
            else:
                out[k - DEGREE] -= x * y
    return tuple(out)


def cadd(a, b):
    return tuple(x + y for x, y in zip(a, b))


def cscale(a, q):
    return tuple(x * q for x in a)


def rational(q):
    return (Fraction(q),) + ZERO[1:]


def zeta_power(k):
    """zeta_8^k as coordinates."""
    k %= 2 * DEGREE
    out = [Fraction(0)] * DEGREE
    if k < DEGREE:
        out[k] = Fraction(1)
    else:
        out[k - DEGREE] = Fraction(-1)
    return tuple(out)


def mod_p(c):
    """Image in F_p of a coordinate tuple under zeta_8 -> W."""
    acc = 0
    for k, x in enumerate(c):
        if x:
            acc += x.numerator * pow(x.denominator, -1, PRIME) * pow(W, k, PRIME)
    return acc % PRIME


def fmt(c):
    terms = [f"{x}*z^{k}" for k, x in enumerate(c) if x]
    return " + ".join(terms) if terms else "0"


# -- forms on an algebra given by its structure constants ---------------------


def form_coords(form):
    """{basis index: coordinates} of a LinearForm on H."""
    return {k: coords(v) for (k,), v in form.coeffs.items()}


def _touching(table, t):
    """The (i, j) whose product e_i e_j has a component where t is nonzero;
    t(e_i e_j) = 0 for every other pair."""
    support = set(t)
    return sorted(ij for ij, cell in table.items() if support.intersection(cell))


def form_on_product(table, t, i, j):
    """t(e_i e_j) read straight off the structure constants."""
    acc = ZERO
    for k, c in table.get((i, j), {}).items():
        tk = t.get(k)
        if tk is not None:
            acc = cadd(acc, cmul(coords(c), tk))
    return acc


def check_symmetric(table, t):
    """t(e_i e_j) = t(e_j e_i) for every basis pair (table: the engine's
    {(i, j): {k: Scalar}}, t: {k: coordinates})."""
    for i, j in _touching(table, t):
        ij = form_on_product(table, t, i, j)
        ji = form_on_product(table, t, j, i)
        if ij != ji:
            return [f"t(e{i} e{j}) = {fmt(ij)} but t(e{j} e{i}) = {fmt(ji)}"]
    return []


def gram_rank_mod_p(table, t, dim):
    """Rank over F_p of the Gram matrix t(e_i e_j).

    The reduction Z[zeta_8][1/2] -> F_p is a ring map, so a rank r modulo p
    is a lower bound for the exact rank over Q(zeta_8)."""
    rows = {}
    for i, j in _touching(table, t):
        acc = mod_p(form_on_product(table, t, i, j))
        if acc:
            rows.setdefault(i, {})[j] = acc
    pivots = {}
    for i in range(dim):
        row = rows.get(i)
        while row:
            lead = min(row)
            prow = pivots.get(lead)
            if prow is None:
                inv = pow(row[lead], -1, PRIME)
                pivots[lead] = {c: v * inv % PRIME for c, v in row.items()}
                break
            f = row[lead]
            for c, v in prow.items():
                s = (row.get(c, 0) - f * v) % PRIME
                if s:
                    row[c] = s
                else:
                    row.pop(c, None)
    return len(pivots)


def check_nondegenerate(table, t, dim):
    r = gram_rank_mod_p(table, t, dim)
    if r != dim:
        return [f"Gram matrix rank {r} mod {PRIME}, expected {dim}"]
    return []


def closed_form_traces(N, beta_power):
    """t(r_x+-) = +-1/2 (-1)^(N(N-1)/2) beta^2 and
    t(r_y+-) = +-1/2 (-1)^(N(N-1)/2) (-2)^N, for beta = zeta_8^beta_power."""
    sign = Fraction((-1) ** (N * (N - 1) // 2), 2)
    x = cscale(zeta_power(2 * beta_power), sign)
    y = cscale(zeta_power(0), sign * (-2) ** N)
    return {"x+": x, "x-": cscale(x, -1), "y+": y, "y-": cscale(y, -1)}


def check_closed_forms(got, N, beta_power):
    """got: {name: coordinates} for some of x+, x-, y+, y-."""
    want = closed_form_traces(N, beta_power)
    return [f"t(r_{name}) = {fmt(v)}, closed form {fmt(want[name])}"
            for name, v in sorted(got.items()) if v != want[name]]


def check_element_traces(t, elements, got):
    """got: {i: coordinates of t(a_i)} as the engine evaluated it, for some
    of the elements a_i ({index: int}); each must be the sum of a_i's
    coefficients times the values of the form t."""
    problems = []
    for i, value in sorted(got.items()):
        want = expected_total(
            t, {k: rational(c) for k, c in elements[i].items()},
            {(0, 0): rational(1)})
        if value != want:
            problems.append(f"t(a{i}) = {fmt(value)}, from the form {fmt(want)}")
    return problems


# -- axiom reports -------------------------------------------------------------


def check_axiom_reports(intact, mutated):
    """The intact algebra passes; the mutated copy fails with a witness."""
    problems = []
    if not intact.passed:
        bad = ", ".join(c.name for c in intact.all_failures())
        problems.append(f"intact algebra fails: {bad}")
    if mutated.passed:
        problems.append("mutated algebra passes the axiom check")
    elif not any(c.witness for c in mutated.all_failures()):
        problems.append("mutated algebra fails without a witness")
    return problems


# -- partial-trace property ------------------------------------------------------


def expected_total(t, a, m):
    """tr(m) t(a), from coordinates: a {index: coords}, m {(r, c): coords}."""
    ta = ZERO
    for k, c in a.items():
        tk = t.get(k)
        if tk is not None:
            ta = cadd(ta, cmul(c, tk))
    trace = ZERO
    for (r, c), v in m.items():
        if r == c:
            trace = cadd(trace, v)
    return cmul(trace, ta)


def check_partial_trace(cases):
    """Each case: (presentation total, partial-trace total, tr(m) t(a)),
    all as coordinates; the three must agree exactly."""
    problems = []
    for i, (pres, ptr, want) in enumerate(cases):
        if not (pres == ptr == want):
            problems.append(f"case {i}: presentation {fmt(pres)}, "
                            f"partial trace {fmt(ptr)}, tr(m) t(a) {fmt(want)}")
    return problems


def check_nonzero_share(cases):
    nonzero = sum(1 for _, _, want in cases if want != ZERO)
    if cases and nonzero < MIN_NONZERO_SHARE * len(cases):
        return [f"only {nonzero} of {len(cases)} cases have tr(m) t(a) != 0"]
    return []
