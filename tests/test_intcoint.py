import pytest

from quasihopf import cli, intcoint, qha, qhspec
from quasihopf.algcore import AlgebraData, LinearForm, TensorElement
from quasihopf.exactmath import RowReducer, Scalar
from quasihopf.modtrace import from_symmetrised_cointegral, verify_reduction
from quasihopf.qha import MissingPivotalData, QuasiHopfAlgebra, derive_UVu
from quasihopf.report import Check, check_every

from .helpers import (
    ADMISSIBLE,
    cointegral_bundle,
    proportional,
    q_fixture,
    q_principal,
    sweedler,
    z2,
    z4,
)
from .oracles import dense_nullspace, dense_rank
from .references import (
    check_nakayama,
    reference_cointegral_blocks,
    reference_cointegral_space,
    reference_sandwich,
)


def test_group_algebra_integral():
    H = z2()
    space = intcoint.integrals(H, "left")
    assert len(space.basis) == 1
    assert space.basis[0] == H.alg.basis(0) + H.alg.basis(1)
    assert intcoint.modulus(H).is_counit(H)


def test_symplectic_fermion_integrals():
    fx = q_principal(1)
    left = intcoint.integrals(fx.H, "left")
    right = intcoint.integrals(fx.H, "right")
    assert left.basis == [fx.integral]
    assert right.basis == left.basis
    assert intcoint.modulus(fx.H, left.basis[0]).is_counit(fx.H)


def test_stacked_integral_system_against_dense_oracle():
    """The sparse streaming solve agrees with naive dense elimination."""
    fx = q_fixture(1, 7)
    H = fx.H
    A = H.alg
    dim = H.dim
    zero, one = Scalar.zero(H.n), Scalar.one(H.n)
    rows = []
    for h in range(dim):
        eh = H.eps(A.basis(h))
        block = [[zero] * dim for _ in range(dim)]
        for a in range(dim):
            cell = A.table.get((h, a), {})
            for k, c in cell.items():
                block[k][a] = block[k][a] + c
            if eh:
                block[a][a] = block[a][a] - eh
        rows.extend(block)
    basis = dense_nullspace(rows, dim, zero, one)
    assert len(basis) == 1
    got = intcoint.integrals(H, "left").basis
    assert [tuple(v.coeffs.get((i,), zero) for i in range(dim))
            for v in got] == basis


def test_sweedler_is_not_unimodular():
    H = sweedler()
    left = intcoint.integrals(H, "left")
    right = intcoint.integrals(H, "right")
    # x + gx on the left, x - gx (up to scalar) on the right
    assert left.basis[0] == H.alg.basis(2) + H.alg.basis(3)
    assert left.basis != right.basis
    gamma = intcoint.modulus(H)
    assert not gamma.is_counit(H)
    assert gamma.of(H.alg.basis(1)) == Scalar.from_int(H.n, -1)
    assert gamma.of(H.alg.basis(2)).is_zero()


def test_modulus_rejects_corrupt_integral():
    H = z2()
    fake = H.alg.basis(0)  # not an integral
    with pytest.raises(intcoint.InconsistentModulus):
        intcoint.modulus(H, fake)


def _reference_integrals(H, side):
    """The full stacked solve that integrals replaced: every basis h's block
    of rows goes to the reducer.  Returns the basis, or raises
    DimensionZero."""
    A = H.alg
    dim = H.dim
    red = RowReducer(H.n, dim)
    for h in range(dim):
        eh = H.eps(A.basis(h))
        rows = {}
        for a in range(dim):
            pair = (h, a) if side == "left" else (a, h)
            for k, c in A.table.get(pair, {}).items():
                rows.setdefault(k, {})[a] = c
            if eh:
                row = rows.setdefault(a, {})
                cur = row.get(a)
                row[a] = -eh if cur is None else cur - eh
        for row in rows.values():
            red.add_row(row)
    basis = [TensorElement(H.n, 1, {(i,): c for i, c in enumerate(vec) if c})
             for vec in red.nullspace()]
    if not basis:
        raise intcoint.DimensionZero(f"no nonzero {side} integral")
    return basis


_INTEGRAL_ALGEBRAS = {
    "z2": z2, "z4": z4, "sweedler": sweedler,
    **{f"q1-z8^{k}": (lambda k=k: q_fixture(1, k).H) for k in (1, 3, 5, 7)},
    **{f"q2-z8^{k}": (lambda k=k: q_fixture(2, k).H) for k in (0, 2)},
}


@pytest.mark.parametrize("name", sorted(_INTEGRAL_ALGEBRAS))
def test_integrals_match_the_full_stacked_solve(name):
    H = _INTEGRAL_ALGEBRAS[name]()
    for side in ("left", "right"):
        assert intcoint.integrals(H, side).basis == \
            _reference_integrals(H, side), side


def _z4_failing_last():
    """k[Z4] with the products g3 e_a negated, built from the table: the
    integral 1 + g + g2 + g3 of k[Z4] satisfies the integral condition at
    1, g and g2, and first fails at g3, the last basis element."""
    H = z4()
    A = H.alg
    minus = Scalar.from_int(H.n, -1)
    table = {(i, j): {k: c * minus for k, c in cell.items()} if i == 3
             else cell for (i, j), cell in A.table.items()}
    alg = AlgebraData(A.n, A.dim, A.labels, A.unit, table)
    return QuasiHopfAlgebra(
        alg, H.delta_images, H.counit, H.antipode_images,
        H.antipode_inv_images, H.coassociator, H.coassociator_inv,
        H.alpha, H.beta, pivotal=H.pivotal)


def test_integrals_check_the_last_basis_element():
    H = _z4_failing_last()
    L = z4().alg.element({a: 1 for a in range(4)})
    A = H.alg
    assert [A.mul(A.basis(h), L) == L for h in range(4)] == \
        [True, True, True, False]
    for side in ("left", "right"):
        with pytest.raises(intcoint.DimensionZero):
            _reference_integrals(H, side)
        with pytest.raises(intcoint.DimensionZero):
            intcoint.integrals(H, side)


def test_integrals_reduce_few_rows(monkeypatch):
    H = q_fixture(2, 2).H
    rows = []
    add_row = RowReducer.add_row

    def counting(self, row):
        rows.append(row)
        return add_row(self, row)

    monkeypatch.setattr(RowReducer, "add_row", counting)
    intcoint.integrals(H, "left")
    assert len(rows) <= 400  # the full stacked system feeds 1,936


def _reference_multiplicative_failure(H, form):
    """The scan that _multiplicative_failure replaced: the first basis pair
    (i, j), in row-major order, with form(e_i e_j) != form(e_i) form(e_j)."""
    A = H.alg
    values = [form.coeffs.get((i,), Scalar.zero(H.n)) for i in range(H.dim)]
    return next(((i, j) for i in range(H.dim) for j in range(H.dim)
                 if A.form_on_product(form, i, j) != values[i] * values[j]),
                None)


@pytest.mark.parametrize("make", (lambda: q_fixture(1, 7).H, sweedler, z4),
                         ids=("q1-z8^7", "sweedler", "z4"))
def test_multiplicativity_matches_the_pair_scan(make):
    """gamma itself and gamma + e*_i for every basis i."""
    H = make()
    gamma = intcoint.modulus(H).form
    forms = [gamma] + [gamma + LinearForm(H.n, 1, {(i,): Scalar.one(H.n)})
                       for i in range(H.dim)]
    got = [intcoint._multiplicative_failure(H.alg, f) for f in forms]
    assert got == [_reference_multiplicative_failure(H, f) for f in forms]
    assert got[0] is None
    assert all(bad is not None for bad in got[1:])


def test_multiplicativity_witness():
    """On Sweedler, gamma + e*_gx first fails at (g, x): g x = gx."""
    H = sweedler()
    form = intcoint.modulus(H).form + LinearForm(
        H.n, 1, {(3,): Scalar.one(H.n)})
    assert intcoint._multiplicative_failure(H.alg, form) == (1, 2)


def test_group_algebra_cointegral():
    H = z2()
    for side in ("left", "right"):
        res = intcoint.cointegrals(H, side)
        assert res.form == LinearForm(H.n, 1, {(0,): Scalar.one(H.n)})
        sym = intcoint.symmetrise(H, res)
        assert sym == res.form  # pivot 1, u = 1


@pytest.mark.parametrize("N", (1, 2))
def test_cointegral_matches_closed_form(N):
    fx, co, sym = cointegral_bundle(N, ADMISSIBLE[N][-1])
    assert co.form == fx.cointegral
    assert sym == fx.symmetrised_cointegral


def test_symmetrised_value_at_principal_beta():
    # beta^2 = -i, so only the K^3 top component survives, with weight -2i
    fx, _, sym = cointegral_bundle(1, 7)
    minus_2i = Scalar.from_int(8, -2) * Scalar.zeta(8, 2)
    assert sym == LinearForm(8, 1, {(fx.index(1, 1, 3),): minus_2i})


def _convert_right_to_left(H, lam_r):
    """(lam_r <- u) composed with S is a left cointegral.  On H.coopposite()
    it converts a left cointegral of H into a right one."""
    gamma = intcoint.modulus(H)
    _, _, u = derive_UVu(H, gamma.form)
    A = H.alg
    return LinearForm(H.n, 1, {
        (a,): v for a in range(H.dim)
        if (v := lam_r.evaluate(A.mul(u, H.S(A.basis(a)))))})


def test_right_to_left_conversion():
    fx, co, _ = cointegral_bundle(1, 7)
    H = fx.H
    left = intcoint.cointegrals(H, "left")
    converted = _convert_right_to_left(H, co.form)
    assert proportional(converted, left.form)
    back = _convert_right_to_left(H.coopposite(), left.form)
    assert proportional(back, co.form)


def test_left_symmetrisation_agrees():
    fx = q_fixture(1, 7)
    H = fx.H
    left = intcoint.cointegrals(H, "left")
    sym_l = intcoint.symmetrise(H, left)
    assert proportional(sym_l, fx.symmetrised_cointegral)


def test_cointegral_needs_pivotal_data():
    H = z2()
    bare = QuasiHopfAlgebra(
        H.alg, H.delta_images, H.counit, H.antipode_images,
        H.antipode_inv_images, H.coassociator, H.coassociator_inv,
        H.alpha, H.beta, pivotal=None)
    with pytest.raises(MissingPivotalData):
        intcoint.cointegrals(bare, "right")


def test_symmetrise_rejects_wrong_pivot():
    from quasihopf.qha import PivotalData

    H = z2()
    # 2 + g is invertible in k[Z2] but is not a pivot
    fake = H.alg.basis(0).scale(Scalar.from_int(H.n, 2)) + H.alg.basis(1)
    skewed = QuasiHopfAlgebra(
        H.alg, H.delta_images, H.counit, H.antipode_images,
        H.antipode_inv_images, H.coassociator, H.coassociator_inv,
        H.alpha, H.beta, pivotal=None)
    skewed.pivotal = PivotalData(fake, skewed.invert_element(fake),
                                 H.alg.unit_tensor(2), H.alg.unit_tensor(2))
    res = intcoint.cointegrals(skewed, "right")
    with pytest.raises(intcoint.VerificationFailed):
        intcoint.symmetrise(skewed, res)


def test_gram_rank_against_dense_oracle():
    fx, _, sym = cointegral_bundle(1, 7)
    H = fx.H
    A = H.alg
    zero = Scalar.zero(H.n)
    rows = []
    for i in range(H.dim):
        row = [zero] * H.dim
        for j in range(H.dim):
            row[j] = sym.evaluate(A.mul(A.basis(i), A.basis(j)))
        rows.append(row)
    assert dense_rank(rows) == 16
    assert intcoint.gram_matrix_rank(H, sym) == 16


def test_form_properties_unimodular_vs_not():
    fx, _, sym = cointegral_bundle(1, 7)
    gamma = intcoint.modulus(fx.H)
    rep = intcoint.check_form_properties(fx.H, sym, gamma)
    assert rep.passed
    assert rep.find("gram rank").value == "16"

    Hs = sweedler()
    gs = intcoint.modulus(Hs)
    left = intcoint.cointegrals(Hs, "left")
    sym_l = intcoint.symmetrise(Hs, left)
    rep = intcoint.check_form_properties(Hs, sym_l, gs)
    assert rep.find("gram rank").value == "4"
    assert not rep.find("symmetric").passed          # twisted only
    assert intcoint.check_twisted_symmetry(Hs, sym_l, gs, "left").passed


def _reference_symmetric(H, form):
    """The scan over basis pairs i < j, two form_on_product calls each."""
    A = H.alg
    return check_every(
        Check("reference"), A.labels, "symmetric",
        ((i, j) for i in range(H.dim) for j in range(i + 1, H.dim)),
        lambda i, j: A.form_on_product(form, i, j)
        == A.form_on_product(form, j, i))


def test_check_symmetric_matches_the_pair_scan():
    fx, _, sym = cointegral_bundle(1, 7)
    Hs = sweedler()
    sym_l = intcoint.symmetrise(Hs, intcoint.cointegrals(Hs, "left"))
    cases = [(fx.H, sym), (Hs, sym_l)] + [
        (H, LinearForm(H.n, 1, {(k,): Scalar.one(H.n)}))
        for H in (fx.H, Hs) for k in range(H.dim)]
    witnesses = []
    for H, form in cases:
        got = intcoint.check_symmetric(Check("form"), H, form)
        ref = _reference_symmetric(H, form)
        assert (got.ok, got.witness) == (ref.ok, ref.witness)
        witnesses.append(got.witness)
    assert witnesses[:2] == [None, "(g, gx)"]
    assert sum(w is not None for w in witnesses) > 2


def test_twisted_symmetry_right_on_sweedler():
    Hs = sweedler()
    gs = intcoint.modulus(Hs)
    right = intcoint.cointegrals(Hs, "right")
    sym_r = intcoint.symmetrise(Hs, right)
    assert intcoint.check_twisted_symmetry(Hs, sym_r, gs, "right").passed


def test_nakayama_relations():
    Hs = sweedler()
    gs = intcoint.modulus(Hs)
    left = intcoint.cointegrals(Hs, "left")
    right = intcoint.cointegrals(Hs, "right")
    assert check_nakayama(Hs, left.form, gs, "left").passed
    assert check_nakayama(Hs, right.form, gs, "right").passed

    fx, co, _ = cointegral_bundle(1, 7)
    gq = intcoint.modulus(fx.H)
    lq = intcoint.cointegrals(fx.H, "left")
    assert check_nakayama(fx.H, co.form, gq, "right").passed
    assert check_nakayama(fx.H, lq.form, gq, "left").passed


def test_modulus_is_computed_once_per_algebra(monkeypatch):
    text = qhspec.serialize(qhspec.from_algebra(q_fixture(1, 7).H))
    solves = []
    solve = intcoint.integrals

    def counting(H, side="left"):
        solves.append(side)
        return solve(H, side)

    monkeypatch.setattr(intcoint, "integrals", counting)
    H = qhspec.to_algebra(qhspec.parse(text))
    co = intcoint.cointegrals(H, "right")
    sym = intcoint.symmetrise(H, co)
    tr = from_symmetrised_cointegral(H, sym, "right")
    assert tr.side == "two-sided"
    assert solves == ["left"]

    fresh = qhspec.to_algebra(qhspec.parse(text))
    assert intcoint.modulus(fresh).form == intcoint.modulus(H).form
    assert solves == ["left", "left"]


def test_coopposite_is_built_once(monkeypatch):
    """One coopposite per algebra, one derive_qp per algebra, and one right
    pair per algebra: its two unit identities are evaluated once, and the
    left pair of each algebra is the right pair of the other."""
    text = qhspec.serialize(qhspec.from_algebra(q_fixture(1, 7).H))
    built, paired = [], []
    derive, pair = qha.derive_qp, qha._right_pair

    def counting(H):
        built.append(H)
        return derive(H)

    def counting_pair(H):
        paired.append(H)
        return pair(H)

    monkeypatch.setattr(qha, "derive_qp", counting)
    monkeypatch.setattr(qha, "_right_pair", counting_pair)
    H = qhspec.to_algebra(qhspec.parse(text))
    assert H.coopposite() is H.coopposite()
    assert verify_reduction(H, cli._build_trace(H)).passed
    assert len(built) == 2
    assert built[0] is not built[1]
    assert {id(x) for x in built} == {id(H), id(H.coopposite())}
    assert sorted(map(id, paired)) == sorted(map(id, built))


@pytest.mark.parametrize("make", (sweedler, lambda: q_fixture(1, 7).H),
                         ids=("sweedler", "q1"))
def test_coopposite_has_the_same_modulus(make):
    H = make()
    assert intcoint.modulus(H.coopposite()).form == intcoint.modulus(H).form


@pytest.mark.parametrize("make", (sweedler, lambda: q_fixture(1, 7).H),
                         ids=("sweedler", "q1"))
def test_form_on_product_matches_multiplication(make):
    H = make()
    A = H.alg
    forms = [intcoint.modulus(H).form, H.counit,
             intcoint.cointegrals(H, "right").form]
    for form in forms:
        for i in range(H.dim):
            for j in range(H.dim):
                assert A.form_on_product(form, i, j) == \
                    form.evaluate(A.mul(A.basis(i), A.basis(j)))


def _reference_characterisation(H, sym, gamma, side):
    """The per-basis loop that check_symmetrised replaced: q_r Delta(h) p_r
    built as an order-2 element, sym contracted into its first leg after
    the products, against gamma(Phi_1) sym(Phi_2 h) g^-1 S(Phi_3), on
    side_algebra(H, side).  Returns the first failing basis label, or None."""
    Hq = intcoint.side_algebra(H, side)
    A = H.alg
    p = Hq.require_pivotal()
    ce = Hq.canonical_elements()
    for h in range(H.dim):
        mid = reference_sandwich(Hq, h, ce.q_r, ce.p_r)
        rhs = TensorElement(H.n, 1)
        for (p1, p2, p3), c in Hq.coassociator.coeffs.items():
            v = gamma.of(A.basis(p1)) * c \
                * sym.evaluate(A.mul(A.basis(p2), A.basis(h)))
            if v:
                rhs = rhs + A.mul(p.pivot_inv, Hq.S(A.basis(p3))).scale(v)
        if sym.contract(mid, (0,)) != rhs:
            return A.labels[h]
    return None


def _assert_characterisation_matches(H, sym, gamma):
    """check_symmetrised and the reference agree on passed and witness on
    both sides; returns the witnesses, right side first."""
    got = []
    for side in ("right", "left"):
        H._symmetrised.clear()  # the computation, not a memoized verdict
        entry = intcoint.check_symmetrised(H, sym, gamma, side).find(
            "characterisation")
        want = _reference_characterisation(H, sym, gamma, side)
        assert (entry.passed, entry.witness) == (want is None, want), side
        got.append(want)
    return tuple(got)


_CHARACTERISED = {
    "z2": z2, "z4": z4, "sweedler": sweedler,
    **{f"q1-z8^{k}": (lambda k=k: q_fixture(1, k).H) for k in (1, 3, 5, 7)},
    **{f"q2-z8^{k}": (lambda k=k: q_fixture(2, k).H) for k in (2, 4)},
}


@pytest.mark.parametrize("name", sorted(_CHARACTERISED))
def test_characterisation_matches_the_per_basis_reference(name):
    """The symmetrised right and left cointegrals, with gamma the modulus."""
    H = _CHARACTERISED[name]()
    gamma = intcoint.modulus(H)
    for side in ("right", "left"):
        sym = intcoint.symmetrise(H, intcoint.cointegrals(H, side))
        got = _assert_characterisation_matches(H, sym, gamma)
        if name == "sweedler":
            # not unimodular: each symmetrised cointegral is one-sided
            assert got == ((None, "gx") if side == "right" else ("x", None))
        else:
            assert got == (None, None)


def test_characterisation_of_perturbed_forms_matches_the_reference():
    """lam + e*_i for every basis i of Q(1, z8^7): the witnesses depend on
    the side, and e*_14 first fails at the late index 14."""
    fx = q_fixture(1, 7)
    H = fx.H
    labels = H.alg.labels
    gamma = intcoint.modulus(H)
    got = {}
    for i in range(H.dim):
        form = fx.symmetrised_cointegral + LinearForm(
            H.n, 1, {(i,): Scalar.one(H.n)})
        got[labels[i]] = _assert_characterisation_matches(H, form, gamma)
    assert got["f1+f1-K2"] == ("f1+f1-K2", "f1+f1-K2")
    assert got["f1-K3"] == ("f1+f1-", "f1-K3")
    assert got["f1+f1-K3"] == (None, None)   # a multiple of lam
    assert sum(w != (None, None) for w in got.values()) == H.dim - 1


def test_characterisation_fails_late_on_q2():
    fx = q_fixture(2, 2)
    H = fx.H
    form = fx.symmetrised_cointegral + LinearForm(
        H.n, 1, {(62,): Scalar.one(H.n)})
    assert _assert_characterisation_matches(
        H, form, intcoint.modulus(H)) == (H.alg.labels[62],) * 2


@pytest.mark.parametrize("name", sorted(_CHARACTERISED))
def test_first_leg_contraction_matches_the_reference_values(name):
    """The left-hand side itself, (e*_k (x) id)(q_r Delta(h) p_r) for every
    k and h, on both sides.  On Q(1) and Q(2) a change that only permutes
    the second legs (p2 e_b q2 for q2 e_b p2) keeps the kernel of the
    characterisation at every h, so no verdict or witness can show it; on
    Q(1) the values do."""
    H = _CHARACTERISED[name]()
    for side in ("right", "left"):
        Hq = intcoint.side_algebra(H, side)
        ce = Hq.canonical_elements()
        mids = [reference_sandwich(Hq, h, ce.q_r, ce.p_r)
                for h in range(H.dim)]
        for k in range(H.dim):
            form = LinearForm(H.n, 1, {(k,): Scalar.one(H.n)})
            want = {h: v.coeffs for h, mid in enumerate(mids)
                    if (v := form.contract(mid, (0,)))}
            assert intcoint._leg_contracted(
                Hq, form, 0, ce.q_r, ce.p_r) == want, (side, k)


@pytest.mark.parametrize("name", sorted(_CHARACTERISED))
def test_contraction_on_either_leg_matches_the_reference(name):
    """_leg_contracted against the per-h sandwich contracted after the
    products, on both legs, for the pairs (q_r, p_r) and (V, U), with
    sixteen or so coordinate forms and the right cointegral."""
    H = _CHARACTERISED[name]()
    gamma = intcoint.modulus(H)
    forms = [LinearForm(H.n, 1, {(k,): Scalar.one(H.n)})
             for k in range(0, H.dim, max(1, H.dim // 16))]
    forms.append(intcoint.cointegrals(H, "right").form)
    for side in ("right", "left"):
        Hq = intcoint.side_algebra(H, side)
        ce = Hq.canonical_elements()
        cap_u, cap_v, _ = derive_UVu(Hq, gamma.form)
        for X, Y in ((ce.q_r, ce.p_r), (cap_v, cap_u)):
            mids = [reference_sandwich(Hq, h, X, Y) for h in range(H.dim)]
            for leg in (0, 1):
                for form in forms:
                    want = {h: v.coeffs for h, mid in enumerate(mids)
                            if (v := form.contract(mid, (leg,)))}
                    assert intcoint._leg_contracted(
                        Hq, form, leg, X, Y) == want, (side, leg, form)


_COINTEGRAL_FIXTURES = {
    **_CHARACTERISED,
    **{f"q2-z8^{k}": (lambda k=k: q_fixture(2, k).H) for k in (0, 2, 4, 6)},
}


def _sparse(vec):
    return {i: c for i, c in enumerate(vec) if c}


@pytest.mark.parametrize("name", sorted(_COINTEGRAL_FIXTURES))
def test_cointegrals_match_the_full_stacked_solve(name):
    """The integral block plus the blocks of failing h give the canonical
    nullspace basis of the full system, so the form and the normalization
    are those of the full solve, on both sides."""
    H = _COINTEGRAL_FIXTURES[name]()
    gamma = intcoint.modulus(H)
    for side in ("right", "left"):
        Hq = H.coopposite() if side == "right" else H
        (vec,) = reference_cointegral_space(Hq, gamma)
        first = next(i for i, c in enumerate(vec) if c)
        scale = vec[first].inverse()
        got = intcoint.cointegrals(H, side)
        assert (got.form, got.normalization) == (LinearForm(H.n, 1, {
            (i,): c * scale for i, c in _sparse(vec).items()}), scale), side


@pytest.mark.parametrize("name", ("z2", "z4", "sweedler", "q1-z8^7",
                                  "q2-z8^2"))
def test_cointegral_solve_without_the_integral_block(name):
    """The check-before-reduce loop alone, from all of H^*: every failing h
    feeds its own block, and the result is still the full system's
    canonical basis."""
    H = _COINTEGRAL_FIXTURES[name]()
    gamma = intcoint.modulus(H)
    for side in ("right", "left"):
        Hq = H.coopposite() if side == "right" else H
        want = [_sparse(v) for v in reference_cointegral_space(Hq, gamma)]
        assert intcoint._left_cointegral_space(Hq, gamma, []) == want, side
        assert intcoint._left_cointegral_space(
            Hq, gamma, [gamma.integral]) == want, side


@pytest.mark.parametrize("name", ("sweedler", "q1-z8^7"))
def test_cointegral_check_of_perturbed_forms_matches_the_reference_rows(name):
    """The all-h check on lam + e*_i for every i, and on lam: its first
    failing h is the first block of the full system that the form does not
    satisfy."""
    H = _COINTEGRAL_FIXTURES[name]()
    gamma = intcoint.modulus(H)
    for side in ("right", "left"):
        Hq = H.coopposite() if side == "right" else H
        blocks = reference_cointegral_blocks(Hq, gamma)
        eq = intcoint._LeftCointegralEquation(Hq, gamma)
        lam = intcoint.cointegrals(H, side).form
        forms = [lam] + [lam + LinearForm(H.n, 1, {(i,): Scalar.one(H.n)})
                         for i in range(H.dim)]
        failures = []
        for form in forms:
            want = next((h for h, rows in enumerate(blocks) if any(
                sum((v * form.coeffs[(k,)] for k, v in row.items()
                     if (k,) in form.coeffs), Scalar.zero(H.n))
                for row in rows)), None)
            assert eq.first_failure(form) == want, (side, form)
            failures.append(want)
        assert failures[0] is None
        assert sum(f is not None for f in failures) >= H.dim - 1
