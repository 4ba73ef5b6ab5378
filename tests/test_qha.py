import pytest

from quasihopf.algcore import AlgebraData, LinearForm, flip
from quasihopf.exactmath import RowReducer, Scalar
from quasihopf.qha import (
    AxiomViolation,
    MissingPivotalData,
    QuasiHopfAlgebra,
    _generating_set,
    check_axioms,
    check_qp_coproduct_relations,
    derive_UVu,
    derive_qp,
)

from .helpers import q_fixture, q_principal, sweedler, z2, z4


def test_group_algebra_axioms():
    assert check_axioms(z2()).passed
    assert check_axioms(z4()).passed
    assert check_axioms(sweedler()).passed


def test_symplectic_fermion_axioms():
    rep = check_axioms(q_principal(1).H)
    assert rep.passed, rep.render()


def test_mutated_coassociator_is_localized():
    fx = q_fixture(1, 7)
    H = fx.H
    broken = QuasiHopfAlgebra(
        H.alg, H.delta_images, H.counit, H.antipode_images,
        H.antipode_inv_images, H.alg.unit_tensor(3), H.alg.unit_tensor(3),
        H.alpha, H.beta, pivotal=H.pivotal)
    rep = check_axioms(broken)
    assert not rep.passed
    qc = rep.find("quasi-coassociativity")
    assert not qc.passed
    assert qc.witness is not None  # names the offending basis element


def _replace(H, **data):
    """H with some of its constructor arguments replaced."""
    args = dict(alg=H.alg, delta=H.delta_images, counit=H.counit,
                antipode=H.antipode_images, antipode_inv=H.antipode_inv_images,
                coassociator=H.coassociator,
                coassociator_inv=H.coassociator_inv,
                alpha=H.alpha, beta=H.beta, pivotal=H.pivotal)
    args.update(data)
    return QuasiHopfAlgebra(**args)


def _word_span_rank(A, gens):
    """Rank of the span of 1 and every left-normed word in gens, grown one
    word length at a time until a length adds nothing."""
    span = RowReducer(A.n, A.dim)
    level = [A.unit]
    span.add_row({i: c for (i,), c in A.unit.coeffs.items()})
    while level:
        longer = [A.mul(w, A.basis(g)) for w in level for g in gens]
        level = [w for w in longer
                 if span.add_row({i: c for (i,), c in w.coeffs.items()})]
    return span.rank


GENERATED = {
    "Q(1)": (lambda: q_fixture(1, 7).H, ["K", "f1-", "f1+"]),
    "Q(2)": (lambda: q_fixture(2, 6).H, ["K", "f1-", "f2-", "f1+", "f2+"]),
    "Q(3)": (lambda: q_fixture(3, 5).H,
             ["K", "f1-", "f2-", "f3-", "f1+", "f2+", "f3+"]),
    "Z4": (z4, ["g"]),
    "Sweedler": (sweedler, ["g", "x"]),
}


@pytest.mark.parametrize("name", list(GENERATED))
def test_generating_set(name):
    build, expected = GENERATED[name]
    A = build().alg
    gens = _generating_set(A)
    assert [A.labels[i] for i in gens] == expected
    assert _word_span_rank(A, gens) == A.dim


def test_q3_cell_flip_fails_associativity():
    H = q_fixture(3, 1).H
    A = H.alg
    i, j = A.labels.index("f3+"), A.labels.index("f3-")
    table = dict(A.table)
    table[(i, j)] = {k: -v for k, v in table[(i, j)].items()}
    flipped = AlgebraData(A.n, A.dim, A.labels, A.unit, table)
    rep = check_axioms(_replace(H, alg=flipped))
    assoc = rep.find("associativity")
    assert not assoc.passed
    assert assoc.witness is not None


@pytest.mark.parametrize("layer", ["counit", "coproduct", "antipode"])
def test_corrupted_non_generator_fails_its_multiplicative_entry(layer):
    H = q_fixture(1, 7).H
    k = H.alg.labels.index("K2")
    assert k not in _generating_set(H.alg)
    if layer == "counit":
        coeffs = dict(H.counit.coeffs)
        coeffs[(k,)] = -coeffs[(k,)]
        broken = _replace(H, counit=LinearForm(H.n, 1, coeffs))
        entry = "multiplicative"
    elif layer == "coproduct":
        delta = list(H.delta_images)
        delta[k] = -delta[k]
        broken = _replace(H, delta=delta)
        entry = "multiplicative"
    else:
        antipode = list(H.antipode_images)
        antipode[k] = -antipode[k]
        broken = _replace(H, antipode=antipode)
        entry = "anti-multiplicative"
    rep = check_axioms(broken)
    got = rep.find(layer).find(entry)
    assert not got.passed
    assert got.witness is not None


@pytest.mark.parametrize("entry", ["unit law", "S inverse"])
def test_corrupted_basis_cell_fails_its_per_basis_entry(entry):
    H = q_fixture(1, 7).H
    A = H.alg
    k = A.labels.index("K2")
    if entry == "unit law":
        (one,), = A.unit.coeffs
        table = dict(A.table)
        table[(one, k)] = {i: -v for i, v in table[(one, k)].items()}
        broken = _replace(H, alg=AlgebraData(A.n, A.dim, A.labels, A.unit,
                                             table))
    else:
        antipode_inv = list(H.antipode_inv_images)
        antipode_inv[k] = -antipode_inv[k]
        broken = _replace(H, antipode_inv=antipode_inv)
    got = check_axioms(broken).find(entry)
    assert not got.passed
    assert got.witness == "K2"


def test_qp_trivial_for_group_algebra():
    H = z2()
    ce = derive_qp(H)
    unit2 = H.alg.unit_tensor(2)
    assert ce.q_r == unit2 and ce.p_r == unit2
    assert ce.q_l == unit2 and ce.p_l == unit2


def test_qp_closed_forms():
    fx = q_fixture(1, 7)
    H = fx.H
    A = H.alg
    ce = H.canonical_elements()
    unit = H.one()
    e0, e1 = fx.elements["e0"], fx.elements["e1"]
    bp, bm = fx.elements["beta+"], fx.elements["beta-"]
    kn = fx.elements["K"]  # K^N with N = 1
    tail = A.mul(e1, bp - unit)
    assert ce.q_r == A.unit_tensor(2) + e1.tensor(tail)
    assert ce.p_r == A.unit_tensor(2) + e0.tensor(tail)
    tail_l = A.mul(e0, kn - unit) + A.mul(e1, bp - unit)
    assert ce.q_l == A.unit_tensor(2) + e1.tensor(tail_l)
    tail_lm = A.mul(e0, kn - unit) + A.mul(e1, bm - unit)
    assert ce.p_l == bm.tensor(unit) + A.mul(e1, bm).tensor(tail_lm)


def test_qp_coproduct_relations():
    fx = q_fixture(1, 7)
    assert check_qp_coproduct_relations(fx.H, fx.H.canonical_elements()).passed
    assert check_qp_coproduct_relations(z2(), z2().canonical_elements()).passed


def test_qp_rejects_corrupt_data():
    H = z2()
    K = H.alg.basis(1)
    broken = QuasiHopfAlgebra(
        H.alg, H.delta_images, H.counit, H.antipode_images,
        H.antipode_inv_images, H.coassociator, H.coassociator_inv,
        H.alpha, K, pivotal=H.pivotal)  # beta must be 1 here, not g
    with pytest.raises(AxiomViolation):
        derive_qp(broken)


def test_uvu_trivial_for_group_algebra():
    H = z2()
    U, V, u = derive_UVu(H, H.counit)
    u_cop = derive_UVu(H.coopposite(), H.counit)[2]
    unit2 = H.alg.unit_tensor(2)
    assert U == unit2 and V == unit2
    assert u == H.one() and u_cop == H.one()


def test_uvu_unimodular_symplectic_fermions():
    for N in (1, 2):
        fx = q_principal(N)
        H = fx.H
        U, V, u = derive_UVu(H, H.counit)
        assert u == H.one()
        assert derive_UVu(H.coopposite(), H.counit)[2] == H.one()
        # independent evaluation of V from the closed forms of f and p_r
        A = H.alg
        ce = H.canonical_elements()
        f21 = flip(H.pivotal.twist, (2, 1))
        pr21 = flip(ce.p_r, (2, 1))
        expected = H.S_inv_leg(H.S_inv_leg(A.mul(f21, pr21), 0), 1)
        assert V == expected


def test_uvu_needs_pivotal_data():
    H = z2()
    bare = QuasiHopfAlgebra(
        H.alg, H.delta_images, H.counit, H.antipode_images,
        H.antipode_inv_images, H.coassociator, H.coassociator_inv,
        H.alpha, H.beta, pivotal=None)
    with pytest.raises(MissingPivotalData):
        derive_UVu(bare, H.counit)


def test_opposite_and_coopposite():
    H = z2()
    cop = H.coopposite()
    assert cop.delta_images == H.delta_images  # cocommutative
    assert check_axioms(cop).passed
    assert check_axioms(H.opposite()).passed

    fx = q_fixture(1, 7)
    Hq = fx.H
    Hcop = Hq.coopposite()
    assert check_axioms(Hcop).passed
    assert Hcop.coassociator == flip(Hq.coassociator_inv, (3, 2, 1))
    ce, ce_cop = Hq.canonical_elements(), Hcop.canonical_elements()
    assert ce_cop.q_r == flip(ce.q_l, (2, 1))
    assert ce_cop.p_r == flip(ce.p_l, (2, 1))
    assert ce_cop.q_l == flip(ce.q_r, (2, 1))
    assert ce_cop.p_l == flip(ce.p_r, (2, 1))

    Hcc = Hcop.coopposite()
    assert Hcc.delta_images == Hq.delta_images
    assert Hcc.coassociator == Hq.coassociator
    assert Hcc.alpha == Hq.alpha and Hcc.beta == Hq.beta
    assert Hcc.pivotal.pivot == Hq.pivotal.pivot
    assert Hcc.pivotal.twist == Hq.pivotal.twist


def test_pivotal_checks_catch_wrong_pivot():
    from fractions import Fraction

    from quasihopf.qha import PivotalData

    H = z2()
    two_g = H.alg.basis(1).scale(Scalar.from_int(H.n, 2))
    half_g = H.alg.basis(1).scale(Scalar.from_fraction(H.n, Fraction(1, 2)))
    wrong = QuasiHopfAlgebra(
        H.alg, H.delta_images, H.counit, H.antipode_images,
        H.antipode_inv_images, H.coassociator, H.coassociator_inv,
        H.alpha, H.beta,
        pivotal=PivotalData(two_g, half_g,
                            H.alg.unit_tensor(2), H.alg.unit_tensor(2)))
    rep = check_axioms(wrong)
    assert not rep.passed
    assert not rep.find("eps(g) = 1").passed
    assert not rep.find("Delta(g) twisted by f").passed


def test_opposite_of_symplectic_fermions():
    fx = q_fixture(1, 7)
    rep = check_axioms(fx.H.opposite())
    assert rep.passed, rep.render()
