from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from quasihopf.algcore import (
    BadPermutation,
    LinearForm,
    OrderMismatch,
    TensorElement,
    flip,
    sandwiches,
)
from quasihopf.exactmath import Scalar, SparseMatrix
from quasihopf.intcoint import modulus
from quasihopf.qha import derive_UVu

from .helpers import q_fixture, sweedler, z2, z4
from .references import reference_sandwich


def test_group_algebra_product():
    H = z2()
    A = H.alg
    e, g = A.basis(0), A.basis(1)
    assert A.mul(e + g, e - g).is_zero()  # (e+g)(e-g) = 0 since g^2 = e
    assert A.mul(g, g) == e


def test_unit_tensor_is_neutral():
    H = z2()
    A = H.alg
    x = TensorElement(A.n, 2, {(0, 1): Scalar.from_int(A.n, 3),
                               (1, 1): Scalar.from_fraction(A.n, Fraction(-1, 2))})
    assert A.mul(A.unit_tensor(2), x) == x
    assert A.mul(x, A.unit_tensor(2)) == x


def test_fermion_generators_square_to_zero():
    fx = q_fixture(1, 7)
    A = fx.H.alg
    f_plus = A.basis(fx.index(1, 0, 0))
    assert A.mul(f_plus, f_plus).is_zero()
    f_minus = A.basis(fx.index(0, 1, 0))
    assert A.mul(f_minus, f_minus).is_zero()


def test_order_mismatch():
    H = z2()
    with pytest.raises(OrderMismatch):
        H.alg.mul(H.alg.unit_tensor(1), H.alg.unit_tensor(2))


def test_flip_transposition():
    n = 1
    a = TensorElement(n, 2, {(0, 1): Scalar.one(n)})
    assert flip(a, (2, 1)) == TensorElement(n, 2, {(1, 0): Scalar.one(n)})
    assert flip(flip(a, (2, 1)), (2, 1)) == a
    with pytest.raises(BadPermutation):
        flip(a, (1, 1))


small_keys = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2))
small_tensors = st.dictionaries(
    small_keys, st.integers(-3, 3), max_size=5).map(
        lambda d: TensorElement(1, 3, {k: Scalar.from_int(1, v)
                                       for k, v in d.items()}))


@settings(max_examples=50, deadline=None)
@given(small_tensors, st.permutations([1, 2, 3]))
def test_flip_respects_composition(x, perm):
    perm = tuple(perm)
    # applying perm twice equals applying the composed permutation
    twice = flip(flip(x, perm), perm)
    composed = tuple(perm[p - 1] for p in perm)
    assert twice == flip(x, composed)


def test_hooks_on_group_algebra():
    H = z2()
    A = H.alg
    # eps -> g = g since Delta(g) = g (x) g and eps(g) = 1
    g = A.basis(1)
    assert H.coopposite().hit_elem_left(g, H.counit) == g
    assert H.hit_elem_left(g, H.counit) == g


@pytest.mark.parametrize("make", (sweedler, lambda: q_fixture(1, 7).H),
                         ids=("sweedler", "q1"))
def test_right_hook_is_the_left_one_on_the_coopposite(make):
    """H^cop's left hook action is f -> h = h_(1) f(h_(2)) and H's is
    h <- f = f(h_(1)) h_(2), both summed here over the terms of Delta(h),
    for every basis h and every dual basis form f."""
    H = make()
    A = H.alg
    for h in range(H.dim):
        terms = H.delta(A.basis(h)).coeffs.items()
        for i in range(H.dim):
            f = LinearForm(H.n, 1, {(i,): Scalar.one(H.n)})
            right = left = TensorElement(H.n, 1)
            for (x, y), c in terms:
                right = right + A.basis(x).scale(c * f.evaluate(A.basis(y)))
                left = left + A.basis(y).scale(c * f.evaluate(A.basis(x)))
            assert H.coopposite().hit_elem_left(A.basis(h), f) == right
            assert H.hit_elem_left(A.basis(h), f) == left


def test_hook_with_unit_shift_element():
    # lam <- 1 = lam; the relevant shift for unimodular algebras is by u = 1
    fx = q_fixture(1, 7)
    A = fx.H.alg
    lam = fx.cointegral
    shifted = LinearForm(A.n, 1, {
        (a,): v for a in range(A.dim)
        if (v := lam.evaluate(A.mul(A.unit, A.basis(a))))})
    assert shifted == lam


def test_form_contraction_counit_axiom():
    H = z2()
    A = H.alg
    one = A.unit_tensor(1)
    assert H.counit.evaluate(one).is_one()
    for i in range(A.dim):
        d = H.delta(A.basis(i))
        assert H.counit.contract(d, (0,)) == A.basis(i)
        assert H.counit.contract(d, (1,)) == A.basis(i)


def test_form_contraction_against_triple_loop_oracle():
    """(sym (x) pivot-mult)(q_r Delta(h) p_r) computed two ways."""
    fx = q_fixture(1, 7)
    H = fx.H
    A = H.alg
    ce = H.canonical_elements()
    sym = fx.symmetrised_cointegral
    g = fx.elements["pivot"]
    for h in (0, 5, 9, 15):
        mid = A.mul(A.mul(ce.q_r, H.delta(A.basis(h))), ce.p_r)
        # library path: contract the form on leg 0, multiply by the pivot
        lib = A.mul(g, sym.contract(mid, (0,)))
        # oracle: naive loop over every stored coefficient
        acc = {}
        for (x, y), c in mid.coeffs.items():
            s = sym.coeffs.get((x,))
            if s is None:
                continue
            for (k,), gc in A.mul(g, A.basis(y)).coeffs.items():
                acc[(k,)] = acc.get((k,), Scalar.zero(A.n)) + c * s * gc
        oracle = TensorElement(A.n, 1, acc)
        assert lib == oracle
        # which must equal sym(h) * 1 by the defining condition
        assert lib == A.unit.scale(sym.evaluate(A.basis(h)))


@settings(max_examples=40, deadline=None)
@given(st.dictionaries(st.tuples(st.integers(0, 1), st.integers(0, 1)),
                       st.integers(-3, 3), max_size=4),
       st.dictionaries(st.tuples(st.integers(0, 1), st.integers(0, 1)),
                       st.integers(-3, 3), max_size=4),
       st.integers(-3, 3))
def test_contract_is_bilinear(d1, d2, c):
    H = z2()
    n = H.n
    x = TensorElement(n, 2, {k: Scalar.from_int(n, v) for k, v in d1.items()})
    y = TensorElement(n, 2, {k: Scalar.from_int(n, v) for k, v in d2.items()})
    f = LinearForm(n, 1, {(0,): Scalar.from_int(n, 2),
                          (1,): Scalar.from_int(n, -1)})
    lhs = f.contract(x + y.scale(Scalar.from_int(n, c)), (1,))
    rhs = f.contract(x, (1,)) + f.contract(y, (1,)).scale(Scalar.from_int(n, c))
    assert lhs == rhs


def _reference_sandwiches(Hq, X, Y):
    """The per-h reference loop, stacked like sandwiches: rows (x, y),
    columns h."""
    dim = Hq.dim
    return SparseMatrix(Hq.n, dim * dim, dim, {
        (x * dim + y, h): c for h in range(dim)
        for (x, y), c in reference_sandwich(Hq, h, X, Y).coeffs.items()})


_SANDWICHED = {
    "z2": z2, "z4": z4, "sweedler": sweedler,
    **{f"q1-z8^{k}": (lambda k=k: q_fixture(1, k).H) for k in (1, 3, 5, 7)},
    **{f"q2-z8^{k}": (lambda k=k: q_fixture(2, k).H) for k in (0, 2)},
}


@pytest.mark.parametrize("name", sorted(_SANDWICHED))
def test_sandwiches_match_the_per_basis_reference(name):
    """Every pair the engine sandwiches Delta(h) with: (V, U) of the
    cointegral system, (1, p_l) and (q_l, 1) of the reduction checker,
    (q_r, p_r) and the one-sided pairs of the straightening maps, on H and
    on H^cop."""
    H = _SANDWICHED[name]()
    gamma = modulus(H)
    for Hq in (H, H.coopposite()):
        ce = Hq.canonical_elements()
        cap_u, cap_v, _ = derive_UVu(Hq, gamma.form)
        for X, Y in ((cap_v, cap_u), (None, ce.p_l), (ce.q_l, None),
                     (ce.q_r, ce.p_r), (None, ce.p_r), (ce.q_r, None),
                     (None, None)):
            assert sandwiches(Hq.alg, Hq.delta_images, X, Y) == \
                _reference_sandwiches(Hq, X, Y)


# two second legs that do not commute, so that a fault in the order of the
# second-leg products shows; no canonical pair of a shipped algebra has them
_NONCOMMUTING = {"q1": ("f1+", "f1-"), "sweedler": ("g", "x")}
_ALGEBRAS = {"q1": lambda: q_fixture(1, 7).H, "sweedler": sweedler}


def _arbitrary_pair_element(data, H, legs):
    index = st.integers(0, H.dim - 1)
    terms = data.draw(st.dictionaries(st.tuples(index, index),
                                      st.integers(-3, 3).filter(bool),
                                      max_size=4))
    for leg in legs:
        terms[data.draw(index), H.alg.labels.index(leg)] = \
            data.draw(st.integers(1, 3))
    return TensorElement(H.n, 2, {k: Scalar.from_int(H.n, v)
                                  for k, v in terms.items()})


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_sandwiches_of_arbitrary_sparse_elements(data):
    name = data.draw(st.sampled_from(sorted(_ALGEBRAS)))
    H = _ALGEBRAS[name]()
    X = _arbitrary_pair_element(data, H, _NONCOMMUTING[name])
    Y = _arbitrary_pair_element(data, H, _NONCOMMUTING[name])
    for x, y in ((X, Y), (X, None), (None, Y)):
        assert sandwiches(H.alg, H.delta_images, x, y) == \
            _reference_sandwiches(H, x, y)
