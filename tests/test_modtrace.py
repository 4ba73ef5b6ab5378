import random

import pytest

from quasihopf import intcoint
from quasihopf.algcore import LinearForm, TensorElement
from quasihopf.exactmath import Scalar, SparseMatrix
from quasihopf.modtrace import (
    BadPresentation,
    ModifiedTrace,
    NotSymmetrisedCointegral,
    NotUnimodular,
    ProjectivePresentation,
    ReductionChecker,
    evaluate,
    from_symmetrised_cointegral,
    pairing_nondegeneracy,
    presentation_from_idempotent,
    symmetric_trace_space,
    tensor_presentation,
    trivial_presentation,
    verify_reduction,
)
from quasihopf.repcat import (
    MatrixRep,
    ModuleMap,
    partial_trace,
    phi_psi,
    regular_module,
    tensor,
    trivial_module,
    xi,
    xi_left,
)

from .helpers import cointegral_bundle, proportional, q_fixture, sweedler, z2, z4


def _trace_for(fx):
    return from_symmetrised_cointegral(fx.H, fx.symmetrised_cointegral)


def _tensor_presentation_left(H, maps):
    """Presentation of W (x) H through the left straightening maps: the
    H-side reference for ReductionChecker, which computes the left side."""
    _, _, phi_l, psi_l = maps
    triv_reg = phi_l.source       # trivialized W (x) H
    target = phi_l.target         # W (x) H
    H_dim = H.dim
    w_dim = triv_reg.dim // H_dim
    reg = target.right
    a_maps, b_maps = [], []
    for j in range(w_dim):
        inj = SparseMatrix(H.n, triv_reg.dim, H_dim)
        for h in range(H_dim):
            inj.set(j * H_dim + h, h, Scalar.one(H.n))
        proj = SparseMatrix(H.n, H_dim, triv_reg.dim)
        for h in range(H_dim):
            proj.set(h, j * H_dim + h, Scalar.one(H.n))
        a_maps.append(phi_l @ ModuleMap(reg, triv_reg, inj))
        b_maps.append(ModuleMap(triv_reg, reg, proj) @ psi_l)
    return ProjectivePresentation(target, a_maps, b_maps)


def test_group_algebra_trace_values():
    H = z2()
    lam_hat = intcoint.symmetrise(H, intcoint.cointegrals(H, "right"))
    tr = from_symmetrised_cointegral(H, lam_hat)
    pres = trivial_presentation(H)
    reg = pres.module
    r_e = ModuleMap.identity(reg)
    r_g = ModuleMap(reg, reg, H.alg.right_mult_matrix(H.basis(1)))
    assert evaluate(tr, pres, r_e) == Scalar.one(H.n)
    assert evaluate(tr, pres, r_g).is_zero()


def test_two_sided_for_symplectic_fermions():
    fx = q_fixture(1, 7)
    assert _trace_for(fx).side == "two-sided"


def test_trace_of_identity_vanishes():
    fx = q_fixture(1, 7)
    tr = _trace_for(fx)
    pres = trivial_presentation(fx.H)
    assert evaluate(tr, pres, ModuleMap.identity(pres.module)).is_zero()


@pytest.mark.parametrize("N,power", [(1, 7), (2, 6), (2, 0)])
def test_named_trace_values(N, power):
    fx = q_fixture(N, power)
    tr = _trace_for(fx)
    pres = trivial_presentation(fx.H)
    reg = pres.module
    for name in ("x+", "x-", "y+", "y-"):
        f = ModuleMap(reg, reg, fx.H.alg.right_mult_matrix(fx.elements[name]))
        assert evaluate(tr, pres, f) == fx.expected_traces[name]


def test_n2_beta_one_values():
    # (-1)^(N(N-1)/2) = -1 at N = 2, so x+ -> -1/2 and y+ -> -2
    fx = q_fixture(2, 0)
    assert fx.expected_traces["x+"] == Scalar.from_fraction(8, __import__(
        "fractions").Fraction(-1, 2))
    assert fx.expected_traces["y+"] == Scalar.from_int(8, -2)


def test_not_unimodular_refusal():
    H = sweedler()
    sym = intcoint.symmetrise(H, intcoint.cointegrals(H, "right"))
    with pytest.raises(NotUnimodular):
        from_symmetrised_cointegral(H, sym)


def test_not_a_cointegral_refusal():
    fx = q_fixture(1, 7)
    wrong = LinearForm(8, 1, {(fx.index(1, 1, 0),): Scalar.one(8)})
    with pytest.raises(NotSymmetrisedCointegral):
        from_symmetrised_cointegral(fx.H, wrong)


def test_presentation_independence():
    fx = q_fixture(1, 7)
    H = fx.H
    tr = _trace_for(fx)
    P1, pres1 = presentation_from_idempotent(H, fx.elements["e0+"])
    half = Scalar.one(8) / Scalar.from_int(8, 2)
    P2, pres2 = presentation_from_idempotent(H, fx.elements["e0+"],
                                             split=[half, half])
    assert len(pres1.maps_in) == 1 and len(pres2.maps_in) == 2
    assert P1.dim == P2.dim == 4
    for a, b in zip(pres1.maps_in, pres1.maps_out):
        assert a.is_intertwiner() and b.is_intertwiner()
    # the same central endomorphism through both presentations
    for z in ("x+", "y+"):
        m1 = ModuleMap(P1, P1, _restrict(H, P1, pres1, fx.elements[z]))
        m2 = ModuleMap(P2, P2, _restrict(H, P2, pres2, fx.elements[z]))
        assert evaluate(tr, pres1, m1) == evaluate(tr, pres2, m2)
    # and id_P has the same trace both ways
    assert evaluate(tr, pres1, ModuleMap.identity(P1)) == \
        evaluate(tr, pres2, ModuleMap.identity(P2))


def _restrict(H, P, pres, element):
    # right multiplication by a central element restricted to the summand
    incl = pres.maps_out[0]
    proj_total = None
    for a in pres.maps_in:
        proj_total = a if proj_total is None else proj_total + a
    full = H.alg.right_mult_matrix(element)
    return (proj_total.matrix @ full) @ incl.matrix


def test_bad_presentation_is_rejected():
    fx = q_fixture(1, 7)
    H = fx.H
    tr = _trace_for(fx)
    reg = regular_module(H)
    ident = ModuleMap.identity(reg)
    half_ident = ident.scale(Scalar.one(8) / Scalar.from_int(8, 2))
    from quasihopf.modtrace import ProjectivePresentation

    bad = ProjectivePresentation(reg, [half_ident], [ident])
    with pytest.raises(BadPresentation):
        evaluate(tr, bad, ident)


def test_reduction_exhaustive_small():
    H = z2()
    lam_hat = intcoint.symmetrise(H, intcoint.cointegrals(H, "right"))
    tr = from_symmetrised_cointegral(H, lam_hat)
    rep = verify_reduction(H, tr)
    assert rep.passed


def test_reduction_mutation_fails_with_witness():
    fx = q_fixture(1, 7)
    wrong = LinearForm(8, 1, {(fx.index(1, 1, 0),): Scalar.one(8)})
    bad = ModifiedTrace(fx.H, "right", wrong, wrong)
    rep = verify_reduction(fx.H, bad, sides=("right",))
    assert not rep.passed
    assert any(f.witness for f in rep.all_failures())
    straightened = rep.find(
        "straightened endomorphisms, exhaustive over basis pairs")
    assert not straightened.passed and straightened.witness


def test_checker_agrees_with_matrix_composites():
    """The staged evaluators match the literal module-map pipeline: the
    checker on H against H's left maps, and on H^cop against H's right
    ones."""
    fx = q_fixture(1, 7)
    H = fx.H
    A = H.alg
    tr = _trace_for(fx)
    reg = regular_module(H)
    maps = phi_psi(H, reg)
    tp_r = tensor_presentation(H, maps)
    tp_l = _tensor_presentation_left(H, maps)
    ck_r = ReductionChecker(H.coopposite(), tr.form)
    ck_l = ReductionChecker(H, tr.form)
    rng = random.Random(5)
    for _ in range(5):
        a = A.basis(rng.randrange(16))
        m = SparseMatrix(H.n, 16, 16)
        m.set(rng.randrange(16), rng.randrange(16), Scalar.one(H.n))
        f_r = xi(H, reg, a, m, maps=maps)
        assert ck_r.lhs(a, m) == evaluate(tr, tp_r, f_r)
        assert ck_r.rhs(a, m) == evaluate(
            tr, trivial_presentation(H), partial_trace(f_r, "right"))
        f_l = xi_left(H, reg, a, m, maps=maps)
        assert ck_l.lhs(a, m) == evaluate(tr, tp_l, f_l)
        assert ck_l.rhs(a, m) == evaluate(
            tr, trivial_presentation(H), partial_trace(f_l, "left"))


def test_extracted_matrices_match_both_sides_on_every_basis_pair():
    """lhs_matrix(a) and rhs_matrix(a) hold lhs(a, E_jk) and rhs(a, E_jk)
    at (j, k), for every basis a and matrix unit E_jk."""
    fx = q_fixture(1, 7)
    H = fx.H
    tr = _trace_for(fx)
    one, zero = Scalar.one(H.n), Scalar.zero(H.n)
    for Hq in (H.coopposite(), H):
        ck = ReductionChecker(Hq, tr.form)
        nonzero = 0
        for a in range(H.dim):
            a_elem = H.alg.basis(a)
            lm, rm = ck.lhs_matrix(a_elem), ck.rhs_matrix(a_elem)
            assert lm.rows == lm.cols == rm.rows == rm.cols == H.dim
            for j in range(H.dim):
                for k in range(H.dim):
                    e_jk = SparseMatrix(H.n, H.dim, H.dim, {(j, k): one})
                    lhs = ck.lhs(a_elem, e_jk)
                    assert lm.get(j, k) == lhs
                    assert rm.get(j, k) == ck.rhs(a_elem, e_jk)
                    nonzero += lhs != zero
        assert nonzero > 0


def test_pairing_nondegenerate_and_counit_control():
    fx = q_fixture(1, 7)
    H = fx.H
    tr = _trace_for(fx)
    reg = regular_module(H)
    pres = trivial_presentation(H, reg)
    rep = pairing_nondegeneracy(H, tr, trivial_module(H, 1), reg, pres)
    assert rep.passed
    # the counit is symmetric but not a cointegral: the pairing with the
    # trivial module degenerates (eps kills the integral)
    eps_tr = ModifiedTrace(H, "right",
                           LinearForm(8, 1, dict(H.counit.coeffs)), None)
    rep = pairing_nondegeneracy(H, eps_tr, trivial_module(H, 1), reg, pres)
    assert not rep.passed


def test_pairing_on_sign_module_of_group_algebra():
    H = z2()
    lam_hat = intcoint.symmetrise(H, intcoint.cointegrals(H, "right"))
    tr = from_symmetrised_cointegral(H, lam_hat)
    minus = Scalar.from_int(H.n, -1)
    sign = MatrixRep(H, [SparseMatrix.identity(H.n, 1),
                         SparseMatrix.identity(H.n, 1).scale(minus)])
    assert sign.check_is_module()
    reg = regular_module(H)
    rep = pairing_nondegeneracy(H, tr, sign, reg, trivial_presentation(H, reg))
    assert rep.passed
    assert rep.find("pairing rank").value == "1"


def test_symmetric_trace_space_is_spanned_by_the_cointegral():
    fx, _, sym = cointegral_bundle(1, 7)
    space = symmetric_trace_space(fx.H)
    assert len(space) == 1
    assert proportional(space[0], sym)


def test_trace_correspondence_is_linear_and_injective():
    fx = q_fixture(1, 7)
    H = fx.H
    lam = fx.symmetrised_cointegral
    c = Scalar.zeta(8, 3)
    tr1 = from_symmetrised_cointegral(H, lam)
    tr2 = from_symmetrised_cointegral(H, lam.scale(c))
    pres = trivial_presentation(H)
    f = ModuleMap(pres.module, pres.module,
                  H.alg.right_mult_matrix(fx.elements["x+"]))
    assert evaluate(tr2, pres, f) == c * evaluate(tr1, pres, f)
    assert tr1.form != tr2.form


def test_cyclicity_between_h_and_h_tensor_h():
    fx = q_fixture(1, 7)
    H = fx.H
    A = H.alg
    tr = _trace_for(fx)
    reg = regular_module(H)
    hh = tensor(reg, reg)
    maps = phi_psi(H, reg)
    tp = tensor_presentation(H, maps)
    pres_h = trivial_presentation(H, reg)
    rng = random.Random(17)
    dim2 = hh.dim
    checked = 0
    for _ in range(100):
        # f: H -> H (x) H determined by the image of 1
        v = {rng.randrange(dim2): Scalar.from_int(H.n, rng.choice((1, -1, 2)))
             for _ in range(2)}
        fmat = SparseMatrix(H.n, dim2, H.dim)
        for h in range(H.dim):
            for k, c in hh.act_basis(h, v).items():
                fmat.add_to(k, h, c)
        f = ModuleMap(reg, hh, fmat)
        # g: H (x) H -> H built from the straightening presentation
        j = rng.randrange(H.dim)
        a = A.basis(rng.randrange(H.dim))
        g = ModuleMap(reg, reg, A.right_mult_matrix(a)) @ tp.maps_out[j]
        assert evaluate(tr, tp, f @ g) == evaluate(tr, pres_h, g @ f)
        checked += 1
    assert checked == 100


@pytest.mark.parametrize("fixture,m", [(z2, 2), (z4, 4)])
def test_semisimple_global_proportionality(fixture, m):
    """On cyclic group algebras the modified trace is 1/|G| times the
    categorical trace, on every right multiplication."""
    H = fixture()
    sym = intcoint.symmetrise(H, intcoint.cointegrals(H, "right"))
    tr = from_symmetrised_cointegral(H, sym)
    reg = regular_module(H)
    tri = trivial_module(H, 1)
    pres = trivial_presentation(H, reg)
    ratio = Scalar.one(H.n) / Scalar.from_int(H.n, m)
    for x in range(m):
        r_x = ModuleMap(reg, reg, H.alg.right_mult_matrix(H.basis(x)))
        lifted = ModuleMap(tensor(tri, reg), tensor(tri, reg), r_x.matrix)
        cat = partial_trace(lifted, "right").matrix.get(0, 0)
        assert evaluate(tr, pres, r_x) == ratio * cat


def test_semisimple_blockwise_proportionality():
    """On k[Z4] the modified trace is blockwise proportional to the
    categorical trace computed as a partial trace over the full object."""
    H = z4()
    lam_hat = intcoint.symmetrise(H, intcoint.cointegrals(H, "right"))
    tr = from_symmetrised_cointegral(H, lam_hat)
    reg = regular_module(H)
    pres = trivial_presentation(H, reg)
    tri = trivial_module(H, 1)
    i_unit = Scalar.zeta(4, 1)
    quarter = Scalar.one(4) / Scalar.from_int(4, 4)
    # central idempotents of k[Z4]; characters g -> i^c
    for c in range(4):
        coeffs = {}
        for k in range(4):
            coeffs[(k,)] = quarter * i_unit ** ((-c * k) % 4)
        idem = TensorElement(H.n, 1, coeffs)
        assert H.alg.mul(idem, idem) == idem
        P, presP = presentation_from_idempotent(H, idem)
        assert P.dim == 1
        t_val = evaluate(tr, presP, ModuleMap.identity(P))
        # categorical trace of id_P: partial trace over P of id on 1 (x) P
        idP = ModuleMap.identity(tensor(tri, P))
        cat = partial_trace(idP, "right").matrix.get(0, 0)
        assert t_val == quarter
        assert cat == Scalar.one(4)
        assert t_val == quarter * cat
    # globally: t(r_x) = 1/4 * categorical trace of r_x, for every basis x
    for x in range(4):
        r_x = ModuleMap(reg, reg, H.alg.right_mult_matrix(H.basis(x)))
        lifted = ModuleMap(tensor(tri, reg), tensor(tri, reg), r_x.matrix)
        cat = partial_trace(lifted, "right").matrix.get(0, 0)
        assert evaluate(tr, pres, r_x) == quarter * cat


def test_presentation_is_validated_once(monkeypatch):
    fx = q_fixture(1, 7)
    tr = _trace_for(fx)
    pres = trivial_presentation(fx.H)
    ident = pres.maps_in[0]
    compositions = []
    compose = ModuleMap.__matmul__

    def counting(self, other):
        compositions.append(1)
        return compose(self, other)

    monkeypatch.setattr(ModuleMap, "__matmul__", counting)
    first = evaluate(tr, pres, ident)
    assert len(compositions) == 1
    assert evaluate(tr, pres, ident) == first
    assert len(compositions) == 1
