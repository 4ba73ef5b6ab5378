import random

import pytest

from quasihopf.algcore import AlgebraData, LinearForm, TensorElement, flip
from quasihopf.exactmath import RowReducer, Scalar
from quasihopf.qha import (
    AxiomViolation,
    MissingPivotalData,
    QuasiHopfAlgebra,
    _associativity_failures,
    _delta_multiplicative_failures,
    _generating_set,
    check_axioms,
    derive_UVu,
    derive_qp,
)

from quasihopf.report import Check, check_every

from .helpers import q_fixture, q_principal, sweedler, z2, z4
from .references import opposite


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
    assert assoc.witness == "(f3+, K, f3-K3)"


def test_entries_resting_on_a_failed_entry_are_not_proven():
    # Q(1, z8) with the e_0 component of (f1- K3)(f1+ K), `mul 7 9 0`,
    # sign-flipped: associativity fails, so the entries checked only on G
    # are unproven even where G satisfies them.
    H = q_fixture(1, 1).H
    A = H.alg
    table = dict(A.table)
    table[(7, 9)] = dict(table[(7, 9)])
    table[(7, 9)][0] = -table[(7, 9)][0]
    assert (A.labels[7], A.labels[9]) == ("f1-K3", "f1+K")
    rep = check_axioms(_replace(
        H, alg=AlgebraData(A.n, A.dim, A.labels, A.unit, table)))
    for layer, name in (("algebra", "associativity"),
                        ("antipode", "anti-multiplicative")):
        got = rep.find(layer).find(name)
        assert not got.passed and got.witness is not None and got.value is None
    assert rep.find("associativity").witness == "(f1-K2, K, f1+K)"
    unproven = [("counit", "multiplicative"),
                ("counit", "counit law for Delta"),
                ("coproduct", "multiplicative"),
                ("coproduct", "quasi-coassociativity"),
                ("antipode", "zig-zag with alpha and beta"),
                ("pivotal", "S^2 = conjugation by g"),
                ("pivotal",
                 "twist intertwines Delta S and (S (x) S) Delta^cop")]
    for layer, name in unproven:
        got = rep.find(layer).find(name)
        assert not got.passed and got.witness is None
        assert got.value == "not proven: associativity fails"
    failed = {(layer.name, c.name) for layer in rep.children
              for c in layer.children if not c.passed}
    assert failed == set(unproven) | {("algebra", "associativity"),
                                      ("antipode", "anti-multiplicative")}


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
    if layer == "coproduct":
        assert got.witness == "(K, K)"


def _reference_associativity(H):
    """The per-case loop: (x g) z = x (g z) for g in G, all basis x, z."""
    A = H.alg
    e = [A.basis(i) for i in range(H.dim)]
    return check_every(
        Check("reference"), A.labels, "associativity",
        ((x, g, z) for g in _generating_set(A)
         for x in range(H.dim) for z in range(H.dim)),
        lambda x, g, z: A.mul(A.mul(e[x], e[g]), e[z])
        == A.mul(e[x], A.mul(e[g], e[z])))


def _reference_delta_multiplicative(H):
    """The per-case loop: Delta(g y) = Delta(g) Delta(y) for g in G, all y."""
    A = H.alg
    e = [A.basis(i) for i in range(H.dim)]
    return check_every(
        Check("reference"), A.labels, "multiplicative",
        ((g, y) for g in _generating_set(A) for y in range(H.dim)),
        lambda g, y: H.delta(A.mul(e[g], e[y]))
        == A.mul(H.delta(e[g]), H.delta(e[y])))


def _kernel_entries(H):
    """The two kernel comparisons of check_axioms, as report entries."""
    A = H.alg
    gens = _generating_set(A)
    return (check_every(Check("kernel"), A.labels, "associativity",
                        _associativity_failures(A, gens), lambda *_: False),
            check_every(Check("kernel"), A.labels, "multiplicative",
                        _delta_multiplicative_failures(H, gens),
                        lambda *_: False))


def _assert_matches_references(H, rep=None):
    """The kernel entries (check_axioms's if rep is given) have the
    references' verdicts and witnesses; returns them."""
    assoc, delta = _kernel_entries(H) if rep is None else (
        rep.find("algebra").find("associativity"),
        rep.find("coproduct").find("multiplicative"))
    for got, ref in ((assoc, _reference_associativity(H)),
                     (delta, _reference_delta_multiplicative(H))):
        assert (got.ok, got.witness) == (ref.ok, ref.witness), got.name
    return assoc, delta


REFERENCE_ALGEBRAS = {
    "Z2": z2, "Z4": z4, "Sweedler": sweedler,
    **{f"Q(1, z8^{k})": (lambda k=k: q_fixture(1, k).H) for k in (1, 3, 5, 7)},
    "Q(2, z8^2)": lambda: q_fixture(2, 2).H,
}


@pytest.mark.parametrize("name", list(REFERENCE_ALGEBRAS))
def test_kernel_checks_match_the_per_case_loops(name):
    H = REFERENCE_ALGEBRAS[name]()
    _assert_matches_references(H, check_axioms(H))


def test_kernel_checks_match_the_loops_on_every_cell_flip():
    H = q_fixture(1, 7).H
    A = H.alg
    failed = 0
    for ij in sorted(A.table):
        table = dict(A.table)
        table[ij] = {k: -v for k, v in table[ij].items()}
        broken = _replace(H, alg=AlgebraData(A.n, A.dim, A.labels, A.unit,
                                             table))
        failed += not _assert_matches_references(broken)[0].ok
    assert failed > 0


def test_kernel_checks_match_the_loops_on_every_negated_coproduct_image():
    H = q_fixture(1, 7).H
    for y in range(H.dim):
        delta = list(H.delta_images)
        delta[y] = -delta[y]
        broken = _replace(H, delta=delta)
        assert not _assert_matches_references(broken)[1].ok


@pytest.mark.parametrize("name, sample", [("Q(1, z8^7)", None),
                                          ("Q(2, z8^2)", 48)])
def test_delta_check_matches_the_loop_on_single_coefficient_flips(name,
                                                                  sample):
    """Every coefficient of every Delta(e_m) on Q(1) (52 flips), and a
    seeded sample of Q(2)'s 890, negated one at a time."""
    H = REFERENCE_ALGEBRAS[name]()
    A = H.alg
    gens = _generating_set(A)
    terms = [(m, key) for m, image in enumerate(H.delta_images)
             for key in sorted(image.coeffs)]
    if sample is not None:
        terms = random.Random(23).sample(terms, sample)
    failed = 0
    for m, key in terms:
        delta = list(H.delta_images)
        coeffs = dict(delta[m].coeffs)
        coeffs[key] = -coeffs[key]
        delta[m] = TensorElement(H.n, 2, coeffs)
        broken = _replace(H, delta=delta)
        got = check_every(Check("kernel"), A.labels, "multiplicative",
                          _delta_multiplicative_failures(broken, gens),
                          lambda *_: False)
        ref = _reference_delta_multiplicative(broken)
        assert (got.ok, got.witness) == (ref.ok, ref.witness), (m, key)
        failed += not got.ok
    assert failed > 0


def test_axiom_check_multiplies_few_elements(monkeypatch):
    """check_axioms on Q(2, z8^2) makes at most 5,000 AlgebraData.mul calls
    (about 42,700 with one call per associativity and Delta case)."""
    H = q_fixture(2, 2).H
    calls = [0]
    mul = AlgebraData.mul

    def counted(self, x, y):
        calls[0] += 1
        return mul(self, x, y)

    monkeypatch.setattr(AlgebraData, "mul", counted)
    assert check_axioms(H).passed
    assert calls[0] <= 5000


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


def _check_qp_coproduct_relations(H, ce):
    """Per-basis identities moving Delta through q_r and p_r, on every basis a:

        (1 (x) S^-1(a_(2))) q_r Delta(a_(1)) = (a (x) 1) q_r
        Delta(a_(1)) p_r (1 (x) S(a_(2)))    = p_r (a (x) 1)
    """
    A = H.alg
    one = H.one()
    report = Check("coproduct-relations")

    def moved(a, through):
        acc = TensorElement(H.n, 2)
        for (x, y), c in H.delta(A.basis(a)).coeffs.items():
            acc = acc + through(A.basis(x), A.basis(y)).scale(c)
        return acc

    basis = [(a,) for a in range(H.dim)]
    check_every(report, A.labels, "q_r coproduct relation", basis,
                lambda a: moved(a, lambda x, y: A.mul(A.mul(
                    one.tensor(H.S_inv(y)), ce.q_r), H.delta(x)))
                == A.mul(A.basis(a).tensor(one), ce.q_r))
    check_every(report, A.labels, "p_r coproduct relation", basis,
                lambda a: moved(a, lambda x, y: A.mul(A.mul(
                    H.delta(x), ce.p_r), one.tensor(H.S(y))))
                == A.mul(ce.p_r, A.basis(a).tensor(one)))
    return report


def test_qp_coproduct_relations():
    """A regression check of derive_qp: its q_r and p_r satisfy the two
    per-basis identities that the axioms imply."""
    fx = q_fixture(1, 7)
    assert _check_qp_coproduct_relations(fx.H, fx.H.canonical_elements()).passed
    assert _check_qp_coproduct_relations(z2(), z2().canonical_elements()).passed


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
    assert check_axioms(opposite(H)).passed

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
    rep = check_axioms(opposite(fx.H))
    assert rep.passed, rep.render()
