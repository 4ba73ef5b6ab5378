from fractions import Fraction

import pytest

from quasihopf.exactmath import Scalar
from quasihopf.sympferm import (
    BadBeta,
    MAX_N_ENV,
    MaxNExceeded,
    admissible_betas,
    build,
    expected_trace_values,
)

from .helpers import principal_beta, q_fixture, q_principal


def test_dimensions_and_enumeration():
    fx = q_fixture(1, 7)
    assert fx.H.dim == 16
    assert len(fx.H.alg.labels) == 16
    # (a_mask, b_mask, i) enumerated a-major, then b, then i
    assert fx.index(0, 0, 0) == 0
    assert fx.index(0, 0, 3) == 3
    assert fx.index(0, 1, 0) == 4
    assert fx.index(1, 0, 0) == 8
    assert fx.index(1, 1, 3) == 15
    assert q_fixture(2, 6).H.dim == 64


def test_admissible_betas():
    one = Scalar.one(8)
    for N in (1, 2, 3):
        betas = admissible_betas(N)
        assert len(betas) == 4
        want = Scalar.from_int(8, -1 if N % 2 else 1)
        assert all(b ** 4 == want for b in betas)
    assert principal_beta(1) == Scalar.zeta(8, 7)
    assert principal_beta(2) == Scalar.zeta(8, 6)


def test_bad_beta_rejected():
    with pytest.raises(BadBeta):
        build(1, Scalar.one(8))
    with pytest.raises(BadBeta):
        build(2, Scalar.zeta(8, 1))
    with pytest.raises(BadBeta):
        build(1, Scalar.zeta(8, 1) + Scalar.one(8))


def test_max_n_guard(monkeypatch):
    with pytest.raises(MaxNExceeded):
        build(5, Scalar.zeta(8, 7))
    monkeypatch.setenv(MAX_N_ENV, "1")
    with pytest.raises(MaxNExceeded):
        build(2, Scalar.zeta(8, 6))
    monkeypatch.delenv(MAX_N_ENV)
    assert build(2, Scalar.zeta(8, 6), max_n=2).H.dim == 64


def test_counit_values():
    fx = q_fixture(1, 7)
    H = fx.H
    assert H.eps(fx.elements["K"]).is_one()
    f_plus = H.basis(fx.index(1, 0, 0))
    f_minus = H.basis(fx.index(0, 1, 0))
    assert H.eps(f_plus).is_zero()
    assert H.eps(f_minus).is_zero()


def test_anticommutators():
    fx = q_fixture(2, 6)
    H = fx.H
    A = H.alg

    def f(sign, i):
        return A.basis(fx.index(1 << i, 0, 0) if sign > 0
                       else fx.index(0, 1 << i, 0))

    K = fx.elements["K"]
    e1 = fx.elements["e1"]
    zero = A.mul(f(1, 0), f(1, 0))
    assert zero.is_zero()
    # {f_i^+, f_j^-} = delta_ij e1
    for i in range(2):
        for j in range(2):
            anti = A.mul(f(1, i), f(-1, j)) + A.mul(f(-1, j), f(1, i))
            assert anti == (e1 if i == j else anti - anti)
    # {f, K} = 0
    for i in range(2):
        assert (A.mul(f(1, i), K) + A.mul(K, f(1, i))).is_zero()
    # K^4 = 1
    K2 = A.mul(K, K)
    assert A.mul(K2, K2) == A.unit


def test_coproduct_of_k_in_even_sector():
    # For even N the correction term kills the even sector:
    # Delta(K) (e0 (x) 1) = K e0 (x) K
    fx = q_fixture(2, 6)
    H = fx.H
    A = H.alg
    e0 = fx.elements["e0"]
    K = fx.elements["K"]
    dk = H.delta(K)
    lhs = A.mul(dk, e0.tensor(A.unit))
    assert lhs == A.mul(K, e0).tensor(K)
    # and for odd N there is no correction at all
    fx1 = q_fixture(1, 7)
    K1 = fx1.elements["K"]
    assert fx1.H.delta(K1) == K1.tensor(K1)


def test_central_idempotents():
    for N in (1, 2):
        fx = q_principal(N)
        A = fx.H.alg
        e0, e1 = fx.elements["e0"], fx.elements["e1"]
        assert e0 + e1 == A.unit
        assert A.mul(e0, e1).is_zero()
        assert A.mul(e0, e0) == e0
        for name in ("e0", "e1", "e1+", "e1-", "x+", "x-", "y+", "y-"):
            z = fx.elements[name]
            for i in range(A.dim):
                b = A.basis(i)
                assert A.mul(z, b) == A.mul(b, z), name
        for name in ("e1+", "e1-", "e0+", "e0-"):
            z = fx.elements[name]
            assert A.mul(z, z) == z, name
        assert A.mul(fx.elements["e1+"], fx.elements["e1-"]).is_zero()
        # e1+ + e1- = e1 and e0+ + e0- = e0
        assert fx.elements["e1+"] + fx.elements["e1-"] == e1
        assert fx.elements["e0+"] + fx.elements["e0-"] == e0


def test_beta_elements():
    for N in (1, 2):
        fx = q_principal(N)
        H = fx.H
        A = H.alg
        bp, bm = fx.elements["beta+"], fx.elements["beta-"]
        assert A.mul(bp, bm) == A.unit
        assert H.S(bp) == bm and H.S(bm) == bp
        assert H.S_inv(bp) == bm
        assert H.beta == bp


def test_pivot_order_two():
    for N in (1, 2, 3):
        fx = q_principal(N)
        g = fx.elements["pivot"]
        assert fx.H.alg.mul(g, g) == fx.H.one()


def test_integral_element():
    fx = q_fixture(1, 7)
    A = fx.H.alg
    # h L = eps(h) L for every basis element
    for i in range(A.dim):
        assert A.mul(A.basis(i), fx.integral) == \
            fx.integral.scale(fx.H.eps(A.basis(i)))
        assert A.mul(fx.integral, A.basis(i)) == \
            fx.integral.scale(fx.H.eps(A.basis(i)))


def test_expected_values_at_principal_beta():
    fx = q_fixture(1, 7)
    minus_2i = Scalar.from_int(8, -2) * Scalar.zeta(8, 2)
    assert fx.symmetrised_cointegral.coeffs == {
        (fx.index(1, 1, 3),): minus_2i}
    half = Scalar.from_fraction(8, Fraction(1, 2))
    i_unit = Scalar.zeta(8, 2)
    assert fx.expected_traces["x+"] == -(half * i_unit)
    assert fx.expected_traces["y+"] == Scalar.from_int(8, -1)

    vals2 = expected_trace_values(2, Scalar.one(8))
    assert vals2["x+"] == Scalar.from_fraction(8, Fraction(-1, 2))
    assert vals2["y+"] == Scalar.from_int(8, -2)


def test_cointegral_support_is_top_words():
    for N in (1, 2):
        for power in (7, 5) if N % 2 else (0, 2):
            fx = q_fixture(N, power)
            full = (1 << N) - 1
            tops = {(fx.index(full, full, i),) for i in range(4)}
            assert set(fx.cointegral.coeffs) <= tops
            assert set(fx.symmetrised_cointegral.coeffs) <= {
                (fx.index(full, full, 1),), (fx.index(full, full, 3),)}


def test_basis_index_key_roundtrip():
    from quasihopf.sympferm import basis_index, basis_key

    for N in (1, 2, 3):
        count = 0
        prev = -1
        for a in range(1 << N):
            for b in range(1 << N):
                for i in range(4):
                    idx = basis_index(N, a, b, i)
                    assert idx == prev + 1  # enumeration is contiguous
                    assert basis_key(N, idx) == (a, b, i)
                    prev = idx
                    count += 1
        assert count == 2 ** (2 * N + 2)
