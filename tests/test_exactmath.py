import copy
import pickle
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from quasihopf.exactmath import (
    RowReducer,
    Scalar,
    SparseMatrix,
    cyclotomic_polynomial,
    field_degree,
    format_scalar,
    kron_sum,
    nullspace,
    parse_scalar,
    rank,
    solve_unique,
)

from .helpers import q_fixture
from .oracles import dense_nullspace, dense_rank


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(8) == (1, 0, 0, 0, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert field_degree(8) == 4
    assert field_degree(1) == 1


def test_zeta8_relations():
    z = Scalar.zeta(8)
    minus_one = Scalar.from_int(8, -1)
    assert z * z * z * z == minus_one
    assert z ** 8 == Scalar.one(8)
    i = Scalar.zeta(8, 2)
    one = Scalar.one(8)
    assert (one + i) * (one - i) == Scalar.from_int(8, 2)
    beta = Scalar.zeta(8, 7)
    assert beta ** 4 == minus_one


def test_rational_field():
    a = Scalar.from_fraction(1, Fraction(3, 4))
    b = Scalar.from_fraction(1, Fraction(-1, 6))
    assert (a + b).coords == (Fraction(7, 12),)
    assert (a * b).coords == (Fraction(-1, 8),)
    assert (a / b).coords == (Fraction(-9, 2),)


def test_inverse_and_division():
    z = Scalar.zeta(8)
    x = Scalar.one(8) + z + z * z
    assert x * x.inverse() == Scalar.one(8)
    with pytest.raises(ZeroDivisionError):
        Scalar.zero(8).inverse()
    with pytest.raises(ZeroDivisionError):
        x / Scalar.zero(8)


@settings(max_examples=60, deadline=None)
@given(st.fractions(max_denominator=10 ** 6).filter(bool),
       st.sampled_from((1, 3, 4, 8)), st.integers(1, 7))
def test_rational_inverse_matches_the_linear_solve(r, n, k):
    """A rational scalar is inverted as den/num; the linear solve, reached
    through the non-rational product r y, gives the same value."""
    x = Scalar.from_fraction(n, r)
    inv = x.inverse()
    assert inv.coords == (1 / r,) + (Fraction(0),) * (field_degree(n) - 1)
    y = Scalar.one(n) + Scalar.zeta(n, k % n or 1)
    if any(y.num[1:]):
        assert (x * y).inverse() * y == inv
    with pytest.raises(ZeroDivisionError):
        Scalar.zero(n).inverse()


@settings(max_examples=60, deadline=None)
@given(st.sampled_from((4, 5, 8, 12)).flatmap(
    lambda n: st.lists(st.integers(-9, 9), min_size=field_degree(n),
                       max_size=field_degree(n)).filter(
        lambda num: any(num[1:])).map(lambda num: (n, num))),
    st.integers(1, 30))
def test_non_rational_inverse(n_num, den):
    n, num = n_num
    x = Scalar(n, num, den)
    assert x * x.inverse() == Scalar.one(n)


def test_conductor_mixing_rejected():
    with pytest.raises(ValueError):
        Scalar.one(8) + Scalar.one(4)


small_rationals = st.fractions(
    min_value=-4, max_value=4, max_denominator=3)


def scalars(n):
    d = field_degree(n)
    return st.lists(small_rationals, min_size=d, max_size=d).map(
        lambda cs: Scalar.from_coords(n, cs))


@settings(max_examples=60, deadline=None)
@given(scalars(8), scalars(8), scalars(8))
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a
    if not b.is_zero():
        assert (a / b) * b == a


@settings(max_examples=60, deadline=None)
@given(scalars(8))
def test_serialization_roundtrip(a):
    assert parse_scalar(format_scalar(a), 8) == a


def test_parse_scalar_forms():
    assert parse_scalar("z8^7", 8) == Scalar.zeta(8, 7)
    assert parse_scalar("-1/2+3*z8", 8) == Scalar.from_coords(
        8, [Fraction(-1, 2), 3, 0, 0])
    assert parse_scalar("0", 8) == Scalar.zero(8)
    assert parse_scalar("z8^9", 8) == Scalar.zeta(8)  # exponents wrap
    with pytest.raises((ValueError, ZeroDivisionError)):
        parse_scalar("1/0", 8)
    with pytest.raises(ValueError):
        parse_scalar("z4", 8)
    with pytest.raises(ValueError):
        parse_scalar("", 8)


@pytest.mark.parametrize("text", ["1_0", "\u0663", "z8^\u0661", "1/\u0662",
                                  "z\u0668", "\u00b2*z8", "z8^", "1/"])
def test_parse_scalar_takes_ascii_digits_only(text):
    """int() reads '1_0' as 10 and Arabic-Indic or superscript digits as
    numbers; the scalar syntax has ASCII decimal digits only."""
    with pytest.raises(ValueError, match="ASCII decimal digits"):
        parse_scalar(text, 8)


def _matrix_from_lists(n, rows):
    m = SparseMatrix(n, len(rows), len(rows[0]) if rows else 0)
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            if v:
                m.set(i, j, v)
    return m


def test_rank_trivial_cases():
    n = 8
    zero3 = SparseMatrix(n, 3, 3)
    assert rank(zero3) == 0
    assert rank(SparseMatrix.identity(n, 3)) == 3
    assert nullspace(SparseMatrix.identity(n, 2)) == []


def test_nullspace_one_dim():
    n = 8
    one = Scalar.one(n)
    m = _matrix_from_lists(n, [[one, -one]])
    basis = nullspace(m)
    assert len(basis) == 1
    assert basis[0] == (one, one)


def _dense(m):
    zero = Scalar.zero(m.n)
    rows = [[zero] * m.cols for _ in range(m.rows)]
    for (i, j), v in m.entries.items():
        rows[i][j] = v
    return rows


matrix_strategy = st.integers(1, 4).flatmap(
    lambda r: st.integers(1, 4).flatmap(
        lambda c: st.lists(
            st.tuples(st.integers(0, r - 1), st.integers(0, c - 1),
                      small_rationals),
            max_size=8,
        ).map(lambda entries: (r, c, entries))))


@settings(max_examples=80, deadline=None)
@given(matrix_strategy)
def test_rank_nullspace_against_dense_oracle(data):
    r, c, entries = data
    n = 8
    m = SparseMatrix(n, r, c)
    for (i, j, v) in entries:
        m.add_to(i, j, Scalar.from_fraction(n, v))
    dense = _dense(m)
    assert rank(m) == dense_rank(dense)
    got = nullspace(m)
    want = dense_nullspace(dense, c, Scalar.zero(n), Scalar.one(n))
    assert got == want
    # every basis vector is genuinely in the kernel
    for v in got:
        for row in dense:
            acc = Scalar.zero(n)
            for a, x in zip(row, v):
                acc = acc + a * x
            assert acc.is_zero()
    assert rank(m) + len(got) == c


def test_row_reducer_streaming_matches_batch():
    n = 4
    m = _matrix_from_lists(n, [
        [Scalar.from_int(n, 1), Scalar.from_int(n, 2), Scalar.from_int(n, 3)],
        [Scalar.from_int(n, 2), Scalar.from_int(n, 4), Scalar.from_int(n, 6)],
        [Scalar.zero(n), Scalar.one(n), Scalar.one(n)],
    ])
    red = RowReducer(n, 3)
    for row in m.row_dicts():
        red.add_row(row)
    assert red.rank == rank(m) == 2
    assert red.nullspace() == nullspace(m)


def test_solve_unique():
    n = 1
    m = _matrix_from_lists(n, [
        [Scalar.from_int(n, 2), Scalar.from_int(n, 1)],
        [Scalar.from_int(n, 1), Scalar.from_int(n, 1)],
    ])
    x = solve_unique(m, {0: Scalar.from_int(n, 3), 1: Scalar.from_int(n, 2)})
    assert x == {0: Scalar.one(n), 1: Scalar.one(n)}
    singular = _matrix_from_lists(n, [[Scalar.one(n), Scalar.one(n)]])
    with pytest.raises(ValueError):
        solve_unique(singular, {0: Scalar.one(n)})


def test_matrix_product_and_apply():
    n = 8
    a = SparseMatrix.identity(n, 2)
    z = Scalar.zeta(n)
    a.set(0, 1, z)
    b = SparseMatrix.identity(n, 2)
    b.set(1, 0, z)
    prod = a @ b
    assert prod.get(0, 0) == Scalar.one(n) + z * z
    vec = prod.apply({0: Scalar.one(n)})
    assert vec[0] == Scalar.one(n) + z * z
    assert vec[1] == z


def test_solve_unique_inconsistent():
    n = 1
    m = _matrix_from_lists(n, [
        [Scalar.one(n), Scalar.one(n)],
        [Scalar.one(n), Scalar.one(n)],
    ])
    with pytest.raises(ValueError, match="inconsistent"):
        solve_unique(m, {0: Scalar.one(n), 1: Scalar.from_int(n, 2)})


def test_warm_scalar_constants_construct_nothing(monkeypatch):
    zero, one = Scalar.zero(8), Scalar.one(8)

    def boom(*args, **kwargs):
        raise AssertionError("a Scalar was constructed")

    monkeypatch.setattr(Scalar, "__init__", boom)
    monkeypatch.setattr(Scalar, "from_int", classmethod(boom))
    assert Scalar.zero(8) is zero
    assert Scalar.one(8) is one


# -- the scalar kernel against an independent reference ----------------------
#
# The reference does Fraction-coordinate polynomial arithmetic and reduces
# mod Phi_n by long division, sharing no code path with Scalar's integer
# numerators, rational fast path or precomputed reduction rows.


def _ref_reduce(poly, n):
    phi = cyclotomic_polynomial(n)
    d = len(phi) - 1
    poly = list(poly) + [Fraction(0)] * max(0, d - len(poly))
    for k in range(len(poly) - 1, d - 1, -1):
        c = poly[k]
        if c:
            for j, pj in enumerate(phi):
                poly[k - d + j] -= c * pj
    return tuple(poly[:d])


def _ref_mul(a, b, n):
    conv = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            conv[i + j] += ai * bj
    return _ref_reduce(conv, n)


def _assert_canonical(s, n):
    assert type(s) is Scalar and s.n == n
    assert len(s.num) == field_degree(n) and type(s.num) is tuple
    assert all(type(a) is int for a in s.num) and type(s.den) is int
    assert s.den > 0
    assert gcd(s.den, *s.num) == 1
    if not any(s.num):
        assert s.den == 1
    for attr, value in (("n", 8), ("num", s.num), ("den", 1), ("other", 0)):
        with pytest.raises(AttributeError):
            setattr(s, attr, value)


def kernel_scalars(n):
    d = field_degree(n)
    special = st.sampled_from([0, 1, -1, Fraction(1, 2), Fraction(-1, 2)])
    rational = st.fractions(min_value=-9, max_value=9, max_denominator=12)
    cyclotomic = st.lists(
        st.fractions(min_value=-9, max_value=9, max_denominator=6),
        min_size=d, max_size=d).map(lambda cs: Scalar.from_coords(n, cs))
    return st.one_of(special.map(lambda c: Scalar.from_fraction(n, c)),
                     rational.map(lambda c: Scalar.from_fraction(n, c)),
                     cyclotomic)


scalar_pairs = st.sampled_from([1, 4, 8]).flatmap(
    lambda n: st.tuples(st.just(n), kernel_scalars(n), kernel_scalars(n)))


@settings(max_examples=300, deadline=None)
@given(scalar_pairs)
def test_kernel_matches_polynomial_reference(case):
    n, a, b = case
    ca, cb = a.coords, b.coords
    want_mul = _ref_mul(ca, cb, n)
    for got, want in (
            (a * b, want_mul),
            (b * a, want_mul),
            (a + b, tuple(x + y for x, y in zip(ca, cb))),
            (a - b, tuple(x - y for x, y in zip(ca, cb))),
            (-a, tuple(-x for x in ca))):
        _assert_canonical(got, n)
        assert got.coords == want


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([1, 4, 8]).flatmap(
    lambda n: st.tuples(st.just(n), kernel_scalars(n))))
def test_multiplying_by_one_and_minus_one(case):
    n, x = case
    one = Scalar.one(n)
    assert x * one == x and one * x == x
    minus = Scalar.from_int(n, -1)
    for got in (x * minus, minus * x):
        _assert_canonical(got, n)
        assert got == -x


def test_scalars_survive_pickle_and_deepcopy():
    values = [Scalar.zero(8), Scalar.one(8),
              Scalar.from_fraction(8, Fraction(-3, 4)), Scalar.zeta(8)]
    for x in values:
        for got in (pickle.loads(pickle.dumps(x)), copy.deepcopy(x),
                    copy.copy(x)):
            assert got == x and hash(got) == hash(x)
            _assert_canonical(got, 8)


# -- the sparse integer kernel against the Scalar loops ----------------------
#
# The reference is the product SparseMatrix ran before its integer kernel:
# one Scalar multiply and one Scalar add per term, in the entries' order.


def _scalar_apply(m, vec):
    cols = {}
    for (r, c), v in m.entries.items():
        cols.setdefault(c, []).append((r, v))
    out = {}
    for j, x in vec.items():
        for i, a in cols.get(j, ()):
            cur = out.get(i)
            out[i] = a * x if cur is None else cur + a * x
    return {i: v for i, v in out.items() if v}


def _scalar_matmul(a, b):
    out = {}
    for j in range(b.cols):
        column = {k: v for (k, c), v in b.entries.items() if c == j}
        for i, v in _scalar_apply(a, column).items():
            out[i, j] = v
    return out


def _assert_kernel_result(got, want, n):
    assert got == want
    for v in got.values():
        assert v  # no zero entry is stored
        _assert_canonical(v, n)


def matrix_values(n):
    # 1/2, 1/3 and zeta_n^k mix denominators and rational with cyclotomic
    # entries; 0 is a drawn value that must not be stored
    special = st.sampled_from(
        [Scalar.from_fraction(n, Fraction(1, 2)),
         Scalar.from_fraction(n, Fraction(-1, 3))]
        + [Scalar.zeta(n, k) for k in range(n)])
    return st.one_of(special, kernel_scalars(n))


@st.composite
def kernel_cases(draw):
    n = draw(st.sampled_from([1, 4, 8]))
    values = matrix_values(n)

    def matrix(rows, cols):
        m = SparseMatrix(n, rows, cols)
        for cell in draw(st.sets(st.tuples(st.integers(0, max(rows - 1, 0)),
                                           st.integers(0, max(cols - 1, 0))),
                                 max_size=rows * cols)):
            m.set(*cell, draw(values))
        return m

    r, k, c = (draw(st.integers(0, 4)) for _ in range(3))
    a, b = matrix(r, k), matrix(k, c)
    vec = draw(st.dictionaries(st.integers(0, max(k - 1, 0)), values)) if k else {}
    return n, a, b, vec


@settings(max_examples=150, deadline=None)
@given(kernel_cases())
def test_sparse_kernel_matches_scalar_loops(case):
    n, a, b, vec = case
    _assert_kernel_result((a @ b).entries, _scalar_matmul(a, b), n)
    _assert_kernel_result(a.apply(vec), _scalar_apply(a, vec), n)
    assert a.apply({}) == {}

    # [a | a] [b; -b] = 0 and [a | a] (vec; -vec) = 0, by exact cancellation
    side = SparseMatrix(n, a.rows, 2 * a.cols, a.entries)
    for (r, c), v in a.entries.items():
        side.set(r, a.cols + c, v)
    stack = SparseMatrix(n, 2 * b.rows, b.cols, b.entries)
    for (r, c), v in b.entries.items():
        stack.set(b.rows + r, c, -v)
    assert (side @ stack).entries == {}
    assert side.apply({**vec, **{a.cols + j: -x for j, x in vec.items()}}) == {}

    # set() after a product drops the cached index
    if a.rows and a.cols:
        a.set(0, a.cols - 1, Scalar.zeta(n) + Scalar.from_fraction(n, Fraction(1, 3)))
        _assert_kernel_result((a @ b).entries, _scalar_matmul(a, b), n)
        _assert_kernel_result(a.apply(vec), _scalar_apply(a, vec), n)
        a.add_to(0, a.cols - 1, Scalar.from_fraction(n, Fraction(5, 7)))
        _assert_kernel_result(a.apply(vec), _scalar_apply(a, vec), n)


def test_sparse_kernel_empty_operands():
    for n in (1, 4, 8):
        empty = SparseMatrix(n, 3, 2)
        ident = SparseMatrix.identity(n, 2)
        assert (empty @ ident).entries == {}
        assert (ident @ SparseMatrix(n, 2, 0)).entries == {}
        assert empty.apply({0: Scalar.one(n)}) == {}
        assert ident.apply({}) == {}
        assert ident.apply({1: Scalar.zero(n)}) == {}


def test_sparse_kernel_refuses_mixed_conductors():
    a = SparseMatrix.identity(8, 2)
    with pytest.raises(ValueError, match="conductor mismatch"):
        a @ SparseMatrix.identity(4, 2)
    with pytest.raises(ValueError, match="conductor mismatch"):
        a.apply({0: Scalar.one(4)})


# -- kron_sum against the Scalar-loop Kronecker sums -------------------------
#
# The reference is how the module category formed sum c_t M_t1 (x) ... (x)
# M_tk before kron_sum: one nested loop per factor over the entries, one
# Scalar product c * v1 * ... * vk per entry tuple, added into place.


def _scalar_kron_sum(n, shapes, terms):
    rows = cols = 1
    for r, c in shapes:
        rows, cols = rows * r, cols * c
    m = SparseMatrix(n, rows, cols)
    for c, factors in terms:
        partial = [((0, 0), c)]
        for (r_i, c_i), f in zip(shapes, factors):
            partial = [((r * r_i + r2, col * c_i + c2), v * w)
                       for (r, col), v in partial
                       for (r2, c2), w in f.entries.items()]
        for (r, col), v in partial:
            m.add_to(r, col, v)
    return m


def _assert_kron_sum(n, shapes, terms):
    got = kron_sum(n, shapes, terms)
    want = _scalar_kron_sum(n, shapes, terms)
    assert (got.rows, got.cols) == (want.rows, want.cols)
    _assert_kernel_result(got.entries, want.entries, n)
    return got


@st.composite
def kron_cases(draw):
    n = draw(st.sampled_from([1, 4, 8]))
    values = matrix_values(n)
    shapes = draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                           min_size=1, max_size=3))

    def matrix(rows, cols):
        m = SparseMatrix(n, rows, cols)
        for cell in draw(st.sets(st.tuples(st.integers(0, max(rows - 1, 0)),
                                           st.integers(0, max(cols - 1, 0))),
                                 max_size=rows * cols)):
            m.set(*cell, draw(values))
        return m

    coeffs = st.one_of(st.just(Scalar.zero(n)), values)
    terms = [(draw(coeffs), tuple(matrix(*s) for s in shapes))
             for _ in range(draw(st.integers(0, 3)))]
    return n, shapes, terms


@settings(max_examples=150, deadline=None)
@given(kron_cases())
def test_kron_sum_matches_scalar_loops(case):
    _assert_kron_sum(*case)


def test_kron_sum_on_the_coherence_terms_of_q1():
    """One, two and three factors with the regular action of Q(1, z8):
    beta, each Delta(e_i) (genuinely cyclotomic coefficients) and the
    coassociator and its inverse; plus a zero coefficient and no terms."""
    H = q_fixture(1, 1).H
    A = H.alg
    n, d = H.n, H.dim
    reg = [A.left_mult_matrix(A.basis(i)) for i in range(d)]

    def terms(x):
        return [(c, tuple(reg[i] for i in key)) for key, c in x.coeffs.items()]

    cyclotomic = [c for x in H.delta_images for c in x.coeffs.values()
                  if any(c.num[1:])]
    assert cyclotomic
    square = (d, d)
    _assert_kron_sum(n, [square], terms(H.beta))
    for x in H.delta_images:
        _assert_kron_sum(n, [square] * 2, terms(x))
    for x in (H.coassociator, H.coassociator_inv):
        got = _assert_kron_sum(n, [square] * 3, terms(x))
        assert got.nnz() > 0
    # a zero coefficient adds nothing
    some = terms(H.delta_images[1])
    with_zero = some + [(Scalar.zero(n), (reg[2], reg[3]))]
    assert _assert_kron_sum(n, [square] * 2, with_zero) == \
        kron_sum(n, [square] * 2, some)
    # no terms: the zero matrix of the product shape
    for shapes in ([(2, 3)], [(2, 3), (4, 1)], [(2, 3), (4, 1), (1, 5)]):
        empty = _assert_kron_sum(n, shapes, [])
        assert empty.entries == {}
    assert (empty.rows, empty.cols) == (8, 15)
