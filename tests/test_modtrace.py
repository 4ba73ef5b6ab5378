import random

import pytest

from quasihopf import cli, intcoint
from quasihopf.algcore import AlgebraData, LinearForm, TensorElement
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
)

from quasihopf.sympferm import build

from .categorical import is_intertwiner, is_module, xi_left
from .helpers import cointegral_bundle, proportional, q_fixture, sweedler, z2, z4
from .references import reference_sandwich, symmetric_trace_space


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
        assert is_intertwiner(a) and is_intertwiner(b)
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
    # b_i must land where a_i starts
    tri = trivial_module(H, 1)
    skewed = ProjectivePresentation(
        reg, [ident], [ModuleMap(reg, tri, SparseMatrix(8, 1, reg.dim))])
    with pytest.raises(BadPresentation):
        evaluate(tr, skewed, ident)


def test_reduction_exhaustive_small():
    H = z2()
    lam_hat = intcoint.symmetrise(H, intcoint.cointegrals(H, "right"))
    tr = from_symmetrised_cointegral(H, lam_hat)
    rep = verify_reduction(H, tr)
    assert rep.passed


def test_reduction_mutation_fails_with_witness():
    fx = q_fixture(1, 7)
    wrong = LinearForm(8, 1, {(fx.index(1, 1, 0),): Scalar.one(8)})
    bad = ModifiedTrace(fx.H, "right", wrong)
    rep = verify_reduction(fx.H, bad, sides=("right",))
    assert not rep.passed
    closed = rep.find("closed-form condition")
    assert not closed.passed and closed.witness == "f1+f1-"
    straightened = rep.find(
        "straightened endomorphisms, exhaustive over basis pairs")
    assert not straightened.passed and straightened.witness == "f1+f1-"


def _wrong_form(fx):
    """A form on Q(1) that is not a trace, e*_(1,1,0) + 2 e*_(0,1,2): its
    reduction matrices are not scalar, and some rhs ones not symmetric."""
    return LinearForm(8, 1, {(fx.index(1, 1, 0),): Scalar.one(8),
                             (fx.index(0, 1, 2),): Scalar.from_int(8, 2)})


class _StagedRhs:
    """The composite side per case, t_H(tr(Xi(a (x) m))), with the tail of
    the composite walked per stage vector key (x, y): the reference for
    ReductionChecker.rhs_matrix, which folds that tail into one element Y_x
    per basis x by associativity."""

    def __init__(self, ck):
        self.ck = ck
        self._phipost = {}
        # per coassociator term k e_P (x) e_Q (x) e_R: k, the weights
        # t(e_R e_b) and the element S(e_P) alpha e_Q
        A, H = ck.A, ck.H
        self.post_terms = []
        for (P, Q, R), k in H.coassociator.coeffs.items():
            z = A.mul_many(H.S(A.basis(P)), H.alpha, A.basis(Q))
            tvec = {}
            for b in range(H.dim):
                val = ck.t.evaluate(A.mul(A.basis(R), A.basis(b)))
                if val:
                    tvec[b] = val
            if tvec:
                self.post_terms.append((k, tvec, z))

    def _phipost_at(self, x, y):
        """Fold of the outgoing straightening map with the tail of the
        composite (inverse associator, pivotal evaluation, t)."""
        key = (x, y)
        got = self._phipost.get(key)
        if got is not None:
            return got
        ck = self.ck
        A, H = ck.A, ck.H
        out = {}
        mid = reference_sandwich(H, x, Y=ck.ce.p_l)
        for (w, u), c in mid.coeffs.items():
            w_act = A.mul(A.basis(w), A.basis(y))
            for (w2,), c2 in w_act.coeffs.items():
                for k, tvec, z in self.post_terms:
                    tv = tvec.get(u)
                    if tv is None:
                        continue
                    zc = A.mul(z, A.basis(w2))
                    for (dd,), zv in zc.coeffs.items():
                        wgt = c * c2 * k * tv * zv
                        cur = out.get(dd)
                        out[dd] = wgt if cur is None else cur + wgt
        out = {k: v for k, v in out.items() if v}
        self._phipost[key] = out
        return out

    def __call__(self, a_elem, m):
        A = self.ck.A
        mcols = {}
        for (r2, r), v in m.entries.items():
            mcols.setdefault(r, []).append((r2, v))
        v2 = {}
        for (xr, d), val in self.ck.v1s.entries.items():
            x, r = divmod(xr, self.ck.H.dim)
            cols = mcols.get(r)
            if not cols:
                continue
            xa = A.mul(A.basis(x), a_elem)
            for (x2,), c2 in xa.coeffs.items():
                for r2, mv in cols:
                    key = (x2, r2, d)
                    w = val * c2 * mv
                    cur = v2.get(key)
                    v2[key] = w if cur is None else cur + w
        total = Scalar.zero(self.ck.H.n)
        for (x, y, d), val in v2.items():
            if not val:
                continue
            pv = self._phipost_at(x, y).get(d)
            if pv is not None:
                total = total + val * pv
        return total


def _staged_lhs(ck, e, m):
    """The presentation side per case, sum m[r2, r] (e e_r2)_r: the trace of
    m after left multiplication by e = e(a) (see lhs_matrix)."""
    A = ck.A
    total = Scalar.zero(ck.H.n)
    for (r2, r), mv in m.entries.items():
        v = A.mul(e, A.basis(r2)).coeffs.get((r,))
        if v is not None:
            total = total + mv * v
    return total


def _t_shift(ck, y):
    """sum t(m_2) S^-1(m_1) over the terms m of q_l Delta(e_y)."""
    A, H = ck.A, ck.H
    acc = TensorElement(H.n, 1)
    for (y1, y2), c in reference_sandwich(H, y, X=ck.ce.q_l).coeffs.items():
        tv = ck.t.coeffs.get((y2,))
        if tv is not None:
            acc = acc + H.S_inv(A.basis(y1)).scale(c * tv)
    return acc


def _lhs_element(ck, a):
    """e(e_a) = sum c t_shift(y) e_x over the terms (x, y) of
    Delta(e_a) p_l."""
    A = ck.A
    e = TensorElement(ck.H.n, 1)
    for (x, y), c in reference_sandwich(ck.H, a, Y=ck.ce.p_l).coeffs.items():
        e = e + A.mul(_t_shift(ck, y), A.basis(x)).scale(c)
    return e


# (a, j, k) by label.  With the wrong form rhs_matrix(a) is not symmetric at
# (j, k) on the right side for f1-K2 and f1+f1-K, on the left for f1+f1-K2,
# and on both for f1+f1-, so a transposed key fails; the trace is nonzero at
# f1+f1-K3.
_COMPOSITE_CASES = [
    ("f1-K2", "K", "1"), ("f1-K2", "1", "K"),
    ("f1+f1-", "1", "K"), ("f1+f1-", "K", "1"),
    ("f1+f1-K", "1", "f1+"), ("f1+f1-K", "f1+", "1"),
    ("f1+f1-K2", "1", "f1+"), ("f1+f1-K2", "f1+", "1"),
    ("f1+f1-K3", "K", "K"),
]


def test_checker_agrees_with_matrix_composites():
    """Entry (j, k) of lhs_matrix(a) and rhs_matrix(a) is the literal
    module-map pipeline at (a, E_jk): the checker on H against H's left
    maps, and on H^cop against H's right ones, for the trace and for a
    wrong form."""
    fx = q_fixture(1, 7)
    H = fx.H
    A = H.alg
    wrong = _wrong_form(fx)
    traces = [_trace_for(fx), ModifiedTrace(H, "right", wrong)]
    reg = regular_module(H)
    maps = phi_psi(H, reg)
    tp_r = tensor_presentation(H, maps)
    tp_l = _tensor_presentation_left(H, maps)
    tp_h = trivial_presentation(H)
    checkers = [(ReductionChecker(H.coopposite(), tr.form),
                 ReductionChecker(H, tr.form)) for tr in traces]
    for a_name, j_name, k_name in _COMPOSITE_CASES:
        a = A.basis(A.labels.index(a_name))
        j, k = A.labels.index(j_name), A.labels.index(k_name)
        m = SparseMatrix(H.n, 16, 16, {(j, k): Scalar.one(H.n)})
        f_r = xi(H, reg, a, m, maps=maps)
        f_l = xi_left(H, reg, a, m, maps=maps)
        ptr_r, ptr_l = partial_trace(f_r, "right"), partial_trace(f_l, "left")
        for tr, (ck_r, ck_l) in zip(traces, checkers):
            assert ck_r.lhs_matrix(a).get(j, k) == evaluate(tr, tp_r, f_r)
            assert ck_r.rhs_matrix(a).get(j, k) == evaluate(tr, tp_h, ptr_r)
            assert ck_l.lhs_matrix(a).get(j, k) == evaluate(tr, tp_l, f_l)
            assert ck_l.rhs_matrix(a).get(j, k) == evaluate(tr, tp_h, ptr_l)


def test_extracted_matrices_match_both_sides_on_every_basis_pair():
    """lhs_matrix(a) and rhs_matrix(a) hold the staged per-case sides at
    (j, k), for every basis a and matrix unit E_jk, for the trace and for a
    wrong form."""
    fx = q_fixture(1, 7)
    H = fx.H
    one, zero = Scalar.one(H.n), Scalar.zero(H.n)
    for form in (_trace_for(fx).form, _wrong_form(fx)):
        for Hq in (H.coopposite(), H):
            ck = ReductionChecker(Hq, form)
            staged_rhs = _StagedRhs(ck)
            nonzero = 0
            for a in range(H.dim):
                a_elem = H.alg.basis(a)
                lm, rm = ck.lhs_matrix(a_elem), ck.rhs_matrix(a_elem)
                e = _lhs_element(ck, a)
                assert lm.rows == lm.cols == rm.rows == rm.cols == H.dim
                for j in range(H.dim):
                    for k in range(H.dim):
                        e_jk = SparseMatrix(H.n, H.dim, H.dim, {(j, k): one})
                        lhs = _staged_lhs(ck, e, e_jk)
                        assert lm.get(j, k) == lhs
                        assert rm.get(j, k) == staged_rhs(a_elem, e_jk)
                        nonzero += lhs != zero
            assert nonzero > 0


@pytest.mark.parametrize("N, power", [(1, 7), (2, 2)])
def test_reduction_checker_products_do_not_grow_with_dim(monkeypatch, N,
                                                          power):
    """ReductionChecker set-up plus lhs_matrix and rhs_matrix on every basis
    a, with the canonical elements built, make no order-2 AlgebraData.mul
    call and 33 kernel products, on each side of Q(1, z8^7) (dim 16) and
    Q(2, z8^2) (dim 64): two per term of the inverse coassociator, which has
    8 on both, and 17 more.  With one sandwich product per basis element it
    was 80 and 320 order-2 calls per side."""
    fx = q_fixture(N, power)
    H = fx.H
    mul, matmul = AlgebraData.mul, SparseMatrix.__matmul__
    for Hq in (H.coopposite(), H):
        Hq.canonical_elements()
        calls = {"order 2": 0, "@": 0}

        def counted_mul(self, x, y):
            calls["order 2"] += x.order == 2
            return mul(self, x, y)

        def counted_matmul(self, other):
            calls["@"] += 1
            return matmul(self, other)

        monkeypatch.setattr(AlgebraData, "mul", counted_mul)
        monkeypatch.setattr(SparseMatrix, "__matmul__", counted_matmul)
        ck = ReductionChecker(Hq, fx.symmetrised_cointegral)
        for a in range(H.dim):
            ck.lhs_matrix(H.alg.basis(a))
            ck.rhs_matrix(H.alg.basis(a))
        monkeypatch.undo()
        assert calls == {"order 2": 0, "@": 33}


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
                           LinearForm(8, 1, dict(H.counit.coeffs)))
    rep = pairing_nondegeneracy(H, eps_tr, trivial_module(H, 1), reg, pres)
    assert not rep.passed


def test_pairing_on_sign_module_of_group_algebra():
    H = z2()
    lam_hat = intcoint.symmetrise(H, intcoint.cointegrals(H, "right"))
    tr = from_symmetrised_cointegral(H, lam_hat)
    minus = Scalar.from_int(H.n, -1)
    sign = MatrixRep(H, [SparseMatrix.identity(H.n, 1),
                         SparseMatrix.identity(H.n, 1).scale(minus)])
    assert is_module(sign)
    reg = regular_module(H)
    rep = pairing_nondegeneracy(H, tr, sign, reg, trivial_presentation(H, reg))
    assert rep.passed
    assert rep.find("pairing rank").value == "1"


def test_symmetric_trace_space_is_spanned_by_the_cointegral():
    fx, _, sym = cointegral_bundle(1, 7)
    space = symmetric_trace_space(fx.H)
    assert len(space) == 1
    assert proportional(space[0], sym)


@pytest.mark.parametrize("fixture", [z2, z4])
def test_symmetric_trace_space_on_group_algebras(fixture):
    H = fixture()
    sym = intcoint.symmetrise(H, intcoint.cointegrals(H, "right"))
    space = symmetric_trace_space(H)
    assert len(space) == 1
    assert proportional(space[0], sym)


def test_symmetric_trace_space_is_zero_when_not_unimodular():
    assert symmetric_trace_space(sweedler()) == []


def _count_characterisations(monkeypatch):
    """Record each run of the characterisation loop of check_symmetrised."""
    runs = []
    check_every = intcoint.check_every

    def counting(report, labels, name, cases, holds):
        if name == "characterisation":
            runs.append(report.name)
        return check_every(report, labels, name, cases, holds)

    monkeypatch.setattr(intcoint, "check_every", counting)
    return runs


def test_reduction_condition_is_proven_once_per_side(monkeypatch):
    """symmetrise proves the right side, from_symmetrised_cointegral the
    left one, and verify_reduction reuses both proofs."""
    H = build(1, Scalar.zeta(8, 7)).H
    runs = _count_characterisations(monkeypatch)
    tr = cli._build_trace(H)
    assert verify_reduction(H, tr).passed
    assert runs == ["symmetrised-right-cointegral",
                    "symmetrised-left-cointegral"]


def test_changed_forms_are_checked_in_full(monkeypatch):
    H = build(1, Scalar.zeta(8, 7)).H
    A = H.alg
    lam = cli._build_trace(H).form
    runs = _count_characterisations(monkeypatch)
    # a scaled form is a new form: both sides run, and it is a trace
    scaled = from_symmetrised_cointegral(H, lam.scale(Scalar.zeta(8, 3)))
    assert scaled.side == "two-sided" and len(runs) == 2
    # a form whose coefficients change after its proof is checked again
    form = LinearForm(H.n, 1, dict(lam.coeffs))
    from_symmetrised_cointegral(H, form)
    assert len(runs) == 2
    form.coeffs[(A.labels.index("f1+f1-"),)] = Scalar.one(H.n)
    with pytest.raises(NotSymmetrisedCointegral):
        from_symmetrised_cointegral(H, form)
    assert len(runs) == 4
    # a hand-built wrong trace is checked against the closed form on both
    # sides, and the proven form still passes from the memo
    wrong = ModifiedTrace(H, "right", _wrong_form(q_fixture(1, 7)))
    rep = verify_reduction(H, wrong)
    assert len(runs) == 6
    for side in ("right", "left"):
        closed = rep.find(side).find("closed-form condition")
        assert not closed.passed and closed.witness == "f1-K2"
    assert verify_reduction(H, ModifiedTrace(H, "right", lam)).passed
    assert len(runs) == 6


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
            for k, c in hh.matrix(h).apply(v).items():
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
    products = []
    product = SparseMatrix.__matmul__

    def counting(self, other):
        products.append(1)
        return product(self, other)

    monkeypatch.setattr(SparseMatrix, "__matmul__", counting)
    first = evaluate(tr, pres, ident)
    assert len(products) == 1
    assert evaluate(tr, pres, ident) == first
    assert len(products) == 1
