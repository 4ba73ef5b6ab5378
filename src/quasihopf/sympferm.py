"""The symplectic fermion quasi-Hopf family Q(N, beta), as exact data.

Q(N, beta) is generated by K and fermionic pairs f_i^+, f_i^- (1 <= i <= N)
subject to

    {f_i^e, K} = 0,   {f_i^+, f_j^-} = delta_ij e1,
    {f_i^e, f_j^e} = 0,   K^4 = 1,

with e0 = (1 + K^2)/2 and e1 = (1 - K^2)/2 central orthogonal idempotents,
and beta a scalar with beta^4 = (-1)^N.  The basis consists of the words

    F(a, b, i) = (prod_j f_{a_j}^+)(prod_k f_{b_k}^-) K^i

over strictly increasing multi-indices a, b (stored as bit masks) and
i in Z_4, enumerated a-mask major, then b-mask, then i; the dimension is
2^(2N+2).  Multiplication normal-orders words with exact fermionic signs;
the coproduct is extended multiplicatively from the generators, the antipode
anti-multiplicatively, in the word order of the basis.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from quasihopf.algcore import AlgebraData, LinearForm, TensorElement
from quasihopf.exactmath import Scalar
from quasihopf.qha import PivotalData, QuasiHopfAlgebra, QuasiHopfError


class BadBeta(QuasiHopfError):
    pass


class MaxNExceeded(QuasiHopfError):
    pass


MAX_N = 4   # Q(5) has dim 4096, more than an exact run holds in memory


def admissible_betas(N, n=8):
    """All beta in Q(zeta_n) with beta^4 = (-1)^N, for n = 8: four per N."""
    want = Scalar.from_int(n, -1 if N % 2 else 1)
    return [b for b in (Scalar.zeta(n, k) for k in range(n))
            if b ** 4 == want]


# -- fermionic word calculus ---------------------------------------------------


@lru_cache(maxsize=None)
def _reorder(bmask, cmask):
    """Normal-order f^-(bmask) . f^+(cmask).

    Returns terms (sign, plus_mask, minus_mask, e1_flag): the surviving
    f^+ block, the remaining f^- block, and whether a central e1 factor was
    produced by a contraction {f_c^-, f_c^+} = e1 (e1 is idempotent, so one
    flag suffices).
    """
    if cmask == 0:
        return ((1, 0, bmask, False),)
    c = cmask & -cmask
    rest = cmask ^ c
    nb = bmask.bit_count()
    out = []
    s_through = -1 if (nb & 1) else 1
    for (s, pm, mm, e1) in _reorder(bmask, rest):
        out.append((s * s_through, pm | c, mm, e1))
    if bmask & c:
        above = (bmask >> c.bit_length()).bit_count()
        s_contr = -1 if (above & 1) else 1
        for (s, pm, mm, e1) in _reorder(bmask ^ c, rest):
            out.append((s * s_contr, pm, mm, True))
    return tuple(out)


def _merge_blocks(m1, m2):
    """Concatenate two ascending fermion blocks; None if an index repeats."""
    if m1 & m2:
        return None
    inv = 0
    mm = m2
    while mm:
        b = mm & -mm
        inv += (m1 >> b.bit_length()).bit_count()
        mm ^= b
    return (-1 if (inv & 1) else 1, m1 | m2)


def _word_mul(key1, key2):
    """Product of two basis words as {(amask, bmask, i): Fraction}."""
    a1, b1, i1 = key1
    a2, b2, i2 = key2
    len2 = a2.bit_count() + b2.bit_count()
    s0 = -1 if ((i1 * len2) & 1) else 1
    i = (i1 + i2) % 4
    terms = {}
    for (s, pm, mm, e1) in _reorder(b1, a2):
        ma = _merge_blocks(a1, pm)
        if ma is None:
            continue
        mb = _merge_blocks(mm, b2)
        if mb is None:
            continue
        sign = s0 * s * ma[0] * mb[0]
        amask, bmask = ma[1], mb[1]
        if e1:
            for shift, half in (((0), Fraction(sign, 2)),
                                ((2), Fraction(-sign, 2))):
                key = (amask, bmask, (i + shift) % 4)
                terms[key] = terms.get(key, 0) + half
        else:
            key = (amask, bmask, i)
            terms[key] = terms.get(key, 0) + sign
    return {k: v for k, v in terms.items() if v}


def _label(amask, bmask, i, N):
    parts = [f"f{j + 1}+" for j in range(N) if amask >> j & 1]
    parts += [f"f{j + 1}-" for j in range(N) if bmask >> j & 1]
    if i:
        parts.append("K" if i == 1 else f"K{i}")
    return "".join(parts) or "1"


def basis_index(N, amask, bmask, i):
    """Position of the word F(amask, bmask, i) in the fixed basis order
    (a-mask ascending, then b-mask, then the K-exponent)."""
    return ((amask << N) | bmask) * 4 + i


def basis_key(N, index):
    """Inverse of basis_index: (amask, bmask, i)."""
    word, i = divmod(index, 4)
    amask, bmask = divmod(word, 1 << N)
    return amask, bmask, i


@dataclass
class SFFixture:
    """A built Q(N, beta) with its named elements and regression values."""

    N: int
    beta: Scalar
    H: QuasiHopfAlgebra
    integral: TensorElement                  # sum of the four top words
    cointegral: LinearForm                   # expected, top components only
    symmetrised_cointegral: LinearForm       # expected
    elements: dict                           # name -> TensorElement
    expected_traces: dict                    # 'x+', 'x-', 'y+', 'y-' -> Scalar

    def index(self, amask, bmask, i):
        return basis_index(self.N, amask, bmask, i)

    def key(self, index):
        return basis_key(self.N, index)


def build(N, beta):
    """Construct Q(N, beta) as a QuasiHopfAlgebra plus fixture data."""
    if N < 1:
        raise ValueError("N must be positive")
    if N > MAX_N:
        raise MaxNExceeded(f"N={N} exceeds the maximum {MAX_N}")
    n = beta.n
    if n % 4:
        raise BadBeta("the scalar field must contain i (conductor divisible by 4)")
    if beta ** 4 != Scalar.from_int(n, -1 if N % 2 else 1):
        raise BadBeta(f"beta^4 must equal (-1)^{N}")

    dim = 1 << (2 * N + 2)

    def index(amask, bmask, i):
        return basis_index(N, amask, bmask, i)

    keys = [(a, b, i) for a in range(1 << N) for b in range(1 << N)
            for i in range(4)]
    labels = [_label(a, b, i, N) for (a, b, i) in keys]

    table = {}
    for i1, k1 in enumerate(keys):
        for i2, k2 in enumerate(keys):
            prod = _word_mul(k1, k2)
            if prod:
                table[(i1, i2)] = {
                    index(*k): Scalar.from_fraction(n, c)
                    for k, c in prod.items()}

    one = Scalar.one(n)
    unit = TensorElement.wrap(n, 1, {(index(0, 0, 0),): one})
    alg = AlgebraData(n, dim, labels, unit, table)

    def el(pairs):
        """Element from {(amask, bmask, i): Fraction-or-Scalar} data."""
        coeffs = {}
        for key, c in pairs.items():
            if not isinstance(c, Scalar):
                c = Scalar.from_fraction(n, Fraction(c))
            if c:
                coeffs[(index(*key),)] = c
        return TensorElement.wrap(n, 1, coeffs)

    half = Fraction(1, 2)
    half_s = Scalar.from_fraction(n, half)
    i_unit = Scalar.zeta(n, n // 4)  # i in Q(zeta_n)
    K = el({(0, 0, 1): 1})
    e0 = el({(0, 0, 0): half, (0, 0, 2): half})
    e1 = el({(0, 0, 0): half, (0, 0, 2): -half})
    sgn = -1 if N % 2 else 1  # (-1)^N

    def omega_el(s):
        # (e0 + s*i*e1) K = ((1 + s*i)/2) K + ((1 - s*i)/2) K^3
        si = i_unit if s > 0 else -i_unit
        return el({(0, 0, 1): (one + si) * half_s, (0, 0, 3): (one - si) * half_s})

    omega = {"+": omega_el(1), "-": omega_el(-1)}

    def beta_pm(s):
        # e0 + beta^2 (s i K)^N e1 = e0 + beta^2 (s i)^N K^N e1
        si = i_unit if s > 0 else -i_unit
        coef = beta * beta * si ** N
        kn = N % 4
        # K^N e1 = (K^N - K^(N+2))/2
        out = {(0, 0, 0): half_s, (0, 0, 2): half_s}
        for key, val in (((0, 0, kn), coef * half_s),
                         ((0, 0, (kn + 2) % 4), -(coef * half_s))):
            out[key] = out.get(key, Scalar.zero(n)) + val
        return el(out)

    def el_sum(first, *parts):
        out = first
        for p in parts:
            out = out + p
        return out

    beta_plus_raw = beta_pm(1)
    beta_minus_raw = beta_pm(-1)

    # generator coproducts
    def f_plus(i):
        return el({(1 << i, 0, 0): 1})

    def f_minus(i):
        return el({(0, 1 << i, 0): 1})

    dK = K.tensor(K)
    if N % 2 == 0:
        e1K = alg.mul(e1, K)
        dK = dK - (2 * e1K.tensor(e1K))
    delta_gen = {"K": dK}
    for i in range(N):
        delta_gen[("+", i)] = f_plus(i).tensor(unit) + omega["+"].tensor(f_plus(i))
        delta_gen[("-", i)] = f_minus(i).tensor(unit) + omega["-"].tensor(f_minus(i))

    dK_pow = [alg.unit_tensor(2)]
    for _ in range(3):
        dK_pow.append(alg.mul(dK_pow[-1], dK))

    delta_images = []
    for (a, b, i) in keys:
        acc = alg.unit_tensor(2)
        for j in range(N):
            if a >> j & 1:
                acc = alg.mul(acc, delta_gen[("+", j)])
        for j in range(N):
            if b >> j & 1:
                acc = alg.mul(acc, delta_gen[("-", j)])
        if i:
            acc = alg.mul(acc, dK_pow[i])
        delta_images.append(acc)

    counit = LinearForm(n, 1, {(index(0, 0, i),): one for i in range(4)})

    # antipode on generators
    sK = el({(0, 0, 1 if N % 2 == 0 else 3): 1})
    s_gen, s_inv_gen = {"K": sK}, {"K": sK}
    for i in range(N):
        for pm, s in (("+", 1), ("-", -1)):
            fgen = f_plus(i) if pm == "+" else f_minus(i)
            mid = el_sum(e0, e1.scale(i_unit * Scalar.from_int(n, s * sgn)))
            s_gen[(pm, i)] = alg.mul_many(fgen, mid, K)
            s_inv_gen[(pm, i)] = alg.mul(omega[pm], fgen)

    sK_pow = [unit]
    for _ in range(3):
        sK_pow.append(alg.mul(sK_pow[-1], sK))

    def antipode_images(gen_images):
        out = []
        for (a, b, i) in keys:
            acc = sK_pow[i]
            for j in range(N - 1, -1, -1):
                if b >> j & 1:
                    acc = alg.mul(acc, gen_images[("-", j)])
            for j in range(N - 1, -1, -1):
                if a >> j & 1:
                    acc = alg.mul(acc, gen_images[("+", j)])
            out.append(acc)
        return out

    s_images = antipode_images(s_gen)
    s_inv_images = antipode_images(s_inv_gen)

    # coassociator: 1x1x1 + e1 (x) e1 (x) {e0 (K^N - 1) + e1 (beta_pm - 1)}
    def phi_pm(b_el):
        kn = el({(0, 0, N % 4): 1})
        tail = el_sum(alg.mul(e0, kn - unit), alg.mul(e1, b_el - unit))
        return alg.unit_tensor(3) + e1.tensor(e1).tensor(tail)

    phi = phi_pm(beta_plus_raw)
    psi = phi_pm(beta_minus_raw)

    # pivot and Drinfeld twist
    minus_i = -i_unit
    g_coef = minus_i ** (N + 1)
    pivot = alg.mul(el_sum(e0, alg.mul(e1, el({(0, 0, N % 4): g_coef}))), K)
    e0kn = alg.mul(e0, el({(0, 0, N % 4): 1}))

    def twist_pm(b_el):
        return el_sum(e0.tensor(unit), e1.tensor(e0kn),
                      alg.mul(e1, b_el).tensor(e1))

    twist = twist_pm(beta_minus_raw)
    twist_inv = twist_pm(beta_plus_raw)
    pivot_inv = pivot  # g^2 = 1 for every (N, beta); verified by check_axioms

    H = QuasiHopfAlgebra(
        alg, delta_images, counit, s_images, s_inv_images,
        phi, psi, unit, beta_plus_raw,
        pivotal=PivotalData(pivot, pivot_inv, twist, twist_inv))

    full = (1 << N) - 1
    integral = el({(full, full, j): 1 for j in range(4)})

    lam, lam_hat = expected_cointegrals(N, beta, index)

    # named central elements and idempotent projectors
    e0_plus = alg.mul(el_sum(unit, K).scale(Scalar.from_fraction(n, half)), e0)
    e0_minus = alg.mul(el_sum(unit, -1 * K).scale(Scalar.from_fraction(n, half)), e0)
    prod_pairs = unit
    for k in range(N):
        prod_pairs = alg.mul(prod_pairs,
                             el_sum(unit, -2 * alg.mul(f_plus(k), f_minus(k))))
    e1_plus = alg.mul(e1, el_sum(unit, -1 * alg.mul_many(
        K, prod_pairs).scale(i_unit))).scale(Scalar.from_fraction(n, half))
    e1_minus = alg.mul(e1, el_sum(unit, alg.mul_many(
        K, prod_pairs).scale(i_unit))).scale(Scalar.from_fraction(n, half))
    top_pairs = unit
    for j in range(N):
        top_pairs = alg.mul(top_pairs, alg.mul(f_plus(j), f_minus(j)))
    x_plus = alg.mul(top_pairs, e0_plus)
    x_minus = alg.mul(top_pairs, e0_minus)

    elements = {
        "e0": e0, "e1": e1, "K": K,
        "omega+": omega["+"], "omega-": omega["-"],
        "beta+": beta_plus_raw, "beta-": beta_minus_raw,
        "e0+": e0_plus, "e0-": e0_minus,
        "e1+": e1_plus, "e1-": e1_minus,
        "x+": x_plus, "x-": x_minus,
        "y+": e1_plus, "y-": e1_minus,
        "pivot": pivot,
    }

    return SFFixture(N, beta, H, integral, lam, lam_hat, elements,
                     expected_trace_values(N, beta))


def expected_cointegrals(N, beta, index=None):
    """The closed-form cointegral and symmetrised cointegral.

    Both vanish off the four top words F(full, full, i).  Coefficients:
        symmetrised: (beta^2 + i) on i=1 and (beta^2 - i) on i=3;
        plain: a+ on i=0, b+ on i=1, a- on i=2, b- on i=3 with
        a_pm = beta^2 +/- [N even], b_pm = +/- i [N odd].
    """
    n = beta.n
    if index is None:
        index = lambda a, b, i: basis_index(N, a, b, i)
    full = (1 << N) - 1
    i_unit = Scalar.zeta(n, n // 4)
    b2 = beta * beta
    even = Scalar.one(n) if N % 2 == 0 else Scalar.zero(n)
    odd_i = i_unit if N % 2 else Scalar.zero(n)
    lam = LinearForm(n, 1, {
        (index(full, full, 0),): b2 + even,
        (index(full, full, 1),): odd_i,
        (index(full, full, 2),): b2 - even,
        (index(full, full, 3),): -odd_i,
    })
    lam_hat = LinearForm(n, 1, {
        (index(full, full, 1),): b2 + i_unit,
        (index(full, full, 3),): b2 - i_unit,
    })
    return lam, lam_hat


def expected_trace_values(N, beta):
    """Modified trace of right multiplication by x_pm and y_pm."""
    n = beta.n
    sign = Scalar.from_int(n, (-1) ** (N * (N - 1) // 2))
    half = Scalar.from_fraction(n, Fraction(1, 2))
    xval = half * sign * beta * beta
    yval = half * sign * Scalar.from_int(n, (-2) ** N)
    return {"x+": xval, "x-": -xval, "y+": yval, "y-": -yval}
