import random

import pytest

from quasihopf import repcat
from quasihopf.exactmath import Scalar, SparseMatrix
from quasihopf.repcat import (
    DualityData,
    ModuleMap,
    ShapeMismatch,
    associator,
    associator_inv,
    hom_space,
    partial_trace,
    phi_psi,
    regular_module,
    tensor,
    trivial_module,
    xi,
)

from .categorical import (
    dual_map,
    duals_and_pivot,
    is_intertwiner,
    is_module,
    unit_elim_left,
    unit_elim_right,
    unit_intro_left,
    unit_intro_right,
    xi_left,
)
from .helpers import q_fixture, q_principal, sweedler, z2, z4


def _ident(n, d, scale=1):
    return SparseMatrix.identity(n, d).scale(Scalar.from_int(n, scale))


def test_module_dimensions_and_validity():
    H = z2()
    reg = regular_module(H)
    assert reg.dim == 2 and is_module(reg)
    tri = trivial_module(H, 3)
    assert tri.dim == 3 and is_module(tri)
    fx = q_principal(1)
    assert regular_module(fx.H).dim == 16


def test_trivial_action_is_counit():
    H = z2()
    tri = trivial_module(H, 3)
    for i in range(H.dim):
        e = H.eps(H.basis(i))
        assert tri.matrix(i) == SparseMatrix.identity(H.n, 3).scale(e)


def test_tensor_with_unit_collapses():
    H = z2()
    reg = regular_module(H)
    both = tensor(trivial_module(H, 1), reg)
    # the identity on coordinates intertwines 1 (x) V with V
    m = ModuleMap(both, reg, SparseMatrix.identity(H.n, 2))
    assert is_intertwiner(m)


def test_group_algebra_associator_is_identity():
    H = z2()
    reg = regular_module(H)
    a = associator(reg, reg, reg)
    assert a.matrix == SparseMatrix.identity(H.n, 8)


def test_associator_invertible_and_intertwines():
    fx = q_fixture(1, 7)
    reg = regular_module(fx.H)
    a = associator(reg, reg, reg)
    ai = associator_inv(reg, reg, reg)
    assert (a @ ai).matrix == SparseMatrix.identity(fx.H.n, 16 ** 3)
    assert (ai @ a).matrix == SparseMatrix.identity(fx.H.n, 16 ** 3)
    rng = random.Random(0)
    cols = [rng.randrange(16 ** 3) for _ in range(24)]
    assert is_intertwiner(a, basis_indices=range(16), columns=cols)


def test_pentagon_as_module_maps():
    H = z4()
    V = regular_module(H)
    # (assoc (x) 1) . assoc . (1 (x) assoc) = assoc . assoc on V^(x4)
    idV = ModuleMap.identity(V)
    a_vvv = associator(V, V, V)
    lhs = repcat._tensor_map(a_vvv, idV) \
        @ associator(V, tensor(V, V), V) \
        @ repcat._tensor_map(idV, a_vvv)
    rhs = associator(tensor(V, V), V, V) @ associator(V, V, tensor(V, V))
    assert lhs.matrix == rhs.matrix


def test_duality_evaluations_group_algebra():
    H = z2()
    reg = regular_module(H)
    d = DualityData(reg)
    # evL(g* (x) g) = <g*, alpha g> = 1
    assert d.ev_left.matrix.get(0, 1 * 2 + 1) == Scalar.one(H.n)
    assert is_intertwiner(d.ev_left)
    assert is_intertwiner(d.coev_left)
    assert is_intertwiner(d.ev_right)
    assert is_intertwiner(d.coev_right)
    # pivot 1: double dual is the canonical identification
    assert d.double_dual.matrix == SparseMatrix.identity(H.n, 2)


def test_zig_zags():
    for H, dim in ((z2(), 2), (q_principal(1).H, 16)):
        reg = regular_module(H)
        d = DualityData(reg)
        idV = ModuleMap.identity(reg)
        left_zz = unit_elim_right(reg) @ repcat._tensor_map(idV, d.ev_left) \
            @ associator_inv(reg, d.dual, reg) \
            @ repcat._tensor_map(d.coev_left, idV) @ unit_intro_left(reg)
        assert left_zz.matrix == SparseMatrix.identity(H.n, dim)
        right_zz = unit_elim_left(reg) @ repcat._tensor_map(d.ev_right, idV) \
            @ associator(reg, d.dual, reg) \
            @ repcat._tensor_map(idV, d.coev_right) @ unit_intro_right(reg)
        assert right_zz.matrix == SparseMatrix.identity(H.n, dim)


def _gamma_map(H, V, W):
    """The duality-of-tensor-products map dual(W) (x) dual(V) -> dual(V (x) W):
    (phi (x) psi)(v (x) w) = psi(f1 v) phi(f2 w)."""
    f = H.pivotal.twist
    m = SparseMatrix(H.n, V.dim * W.dim, W.dim * V.dim)
    for (a, b), c in f.coeffs.items():
        mv = V.matrix_of_elem(H.basis(a))
        mw = W.matrix_of_elem(H.basis(b))
        for (rv, jv), v1 in mv.entries.items():
            for (rw, kw), v2 in mw.entries.items():
                # output dual coefficient at (jv, kw); input pair (rw, rv)
                m.add_to(jv * W.dim + kw, rw * V.dim + rv, c * v1 * v2)
    return ModuleMap(tensor(repcat.DualRep(W), repcat.DualRep(V)),
                     repcat.DualRep(tensor(V, W)), m)


def test_double_dual_is_monoidal():
    """dual(gamma_{W,V}) . delta_{V (x) W} equals
    gamma_{dual(W), dual(V)} . (delta_V (x) delta_W):
    the double-dual identification is compatible with the twist."""
    for H in (z2(), q_principal(1).H):
        V = regular_module(H)
        W = trivial_module(H, 2)
        dv, dw = DualityData(V), DualityData(W)
        vw = tensor(V, W)
        dvw = DualityData(vw)
        gamma = _gamma_map(H, V, W)
        assert is_intertwiner(gamma)
        gamma_duals = _gamma_map(H, dw.dual, dv.dual)
        lhs = dual_map(gamma) @ dvw.double_dual
        rhs = gamma_duals @ repcat._tensor_map(dv.double_dual, dw.double_dual)
        assert lhs.matrix == rhs.matrix


def test_partial_trace_group_algebra():
    H = z2()
    reg = regular_module(H)
    hh = tensor(reg, reg)
    tr = partial_trace(ModuleMap.identity(hh), "right")
    assert tr.matrix == _ident(H.n, 2, 2)
    trl = partial_trace(ModuleMap.identity(hh), "left")
    assert trl.matrix == _ident(H.n, 2, 2)
    tri = trivial_module(H, 4)
    trt = partial_trace(ModuleMap.identity(tensor(tri, reg)), "left")
    assert trt.matrix == _ident(H.n, 2, 4)


def test_partial_trace_cyclicity_in_traced_slot():
    """tr_r((1 (x) u) . f) = tr_r(f . (1 (x) u)) on a semisimple fixture."""
    H = z4()
    reg = regular_module(H)
    hh = tensor(reg, reg)
    rng = random.Random(3)

    def random_endo():
        m = SparseMatrix(H.n, 16, 16)
        for _ in range(6):
            m.set(rng.randrange(16), rng.randrange(16),
                  Scalar.from_int(H.n, rng.choice((1, -1, 2))))
        # project onto the H-linear part so it is an intertwiner
        basis = hom_space(hh, hh)
        acc = SparseMatrix(H.n, 16, 16)
        for b in basis:
            # coefficient: trace pairing against the candidate
            coef = Scalar.zero(H.n)
            for (i, j), v in b.matrix.entries.items():
                w = m.entries.get((i, j))
                if w is not None:
                    coef = coef + v * w
            acc = acc + b.matrix.scale(coef)
        return ModuleMap(hh, hh, acc)

    u_mat = reg.matrix_of_elem(H.basis(1) + H.basis(3))
    one_u = repcat._tensor_map(ModuleMap.identity(reg),
                       ModuleMap(reg, reg, u_mat))
    # 1 (x) u is H-linear because u acts by central elements here
    assert is_intertwiner(one_u)
    for _ in range(3):
        f = random_endo()
        lhs = partial_trace(one_u @ f, "right")
        rhs = partial_trace(f @ one_u, "right")
        assert lhs.matrix == rhs.matrix


def test_phi_psi_inverse_pairs():
    for H in (z2(), q_principal(1).H):
        reg = regular_module(H)
        phi_r, psi_r, phi_l, psi_l = phi_psi(H, reg)
        d = reg.dim * reg.dim
        assert (phi_r @ psi_r).matrix == SparseMatrix.identity(H.n, d)
        assert (psi_r @ phi_r).matrix == SparseMatrix.identity(H.n, d)
        assert (phi_l @ psi_l).matrix == SparseMatrix.identity(H.n, d)
        assert (psi_l @ phi_l).matrix == SparseMatrix.identity(H.n, d)
        assert is_intertwiner(phi_r)
        assert is_intertwiner(phi_l)


def _reference_phi_psi(H, V):
    """The four straightening maps built column by column, one Scalar
    product per term: the literal reference for phi_psi's kernel products."""
    A = H.alg
    ce = H.canonical_elements()
    reg = repcat.RegularRep(H)
    triv = repcat.TrivialRep(H, V.dim)
    dv = V.dim
    one = Scalar.one(H.n)

    def elem_column(x, j):
        out = {}
        for (i,), c in x.coeffs.items():
            for k, v in V.matrix(i).apply({j: one}).items():
                out[k] = c * v if k not in out else out[k] + c * v
        return {k: v for k, v in out.items() if v}

    def build(source, target, columns):
        m = SparseMatrix(H.n, target.dim, source.dim)
        for col, entries in columns:
            for k, c in entries.items():
                m.add_to(k, col, c)
        return ModuleMap(source, target, m)

    def cols_right(mid_of_h, act_img):
        for h in range(H.dim):
            mid = mid_of_h(h)
            for v in range(dv):
                entries = {}
                for (x, y), c in mid.coeffs.items():
                    for r, cv in elem_column(act_img(y), v).items():
                        k = x * dv + r
                        entries[k] = c * cv if k not in entries \
                            else entries[k] + c * cv
                yield h * dv + v, {k: e for k, e in entries.items() if e}

    def cols_left(mid_of_h, act_img):
        mids = [mid_of_h(h) for h in range(H.dim)]
        for v in range(dv):
            for h in range(H.dim):
                entries = {}
                for (x, y), c in mids[h].coeffs.items():
                    for r, cv in elem_column(act_img(x), v).items():
                        k = r * H.dim + y
                        entries[k] = c * cv if k not in entries \
                            else entries[k] + c * cv
                yield v * H.dim + h, {k: e for k, e in entries.items() if e}

    return (
        build(tensor(reg, triv), tensor(reg, V), cols_right(
            lambda h: A.mul(H.delta(A.basis(h)), ce.p_r), A.basis)),
        build(tensor(reg, V), tensor(reg, triv), cols_right(
            lambda h: A.mul(ce.q_r, H.delta(A.basis(h))),
            lambda y: H.S(A.basis(y)))),
        build(tensor(triv, reg), tensor(V, reg), cols_left(
            lambda h: A.mul(H.delta(A.basis(h)), ce.p_l), A.basis)),
        build(tensor(V, reg), tensor(triv, reg), cols_left(
            lambda h: A.mul(ce.q_l, H.delta(A.basis(h))),
            lambda x: H.S_inv(A.basis(x)))))


def test_phi_psi_matches_the_column_reference():
    """All four maps equal the per-column construction; the non-regular
    tensor(trivial(2), reg) action sees a transposed (r, v) key."""
    algebras = [z2(), z4(), sweedler()] + \
        [q_fixture(1, k).H for k in (1, 3, 5, 7)]
    for H in algebras:
        reg = regular_module(H)
        for V in (reg, trivial_module(H, 2),
                  tensor(trivial_module(H, 2), reg)):
            got = phi_psi(H, V)
            want = _reference_phi_psi(H, V)
            for g, w in zip(got, want):
                assert g.matrix.nnz() > 0
                assert g.matrix == w.matrix
                assert (g.source.dim, g.target.dim) == \
                    (w.source.dim, w.target.dim)


def test_psi_r_collapses_p_r_columns():
    """psi_r(p_r . (1 (x) v)) = 1 (x) v for every v."""
    fx = q_fixture(1, 7)
    H = fx.H
    reg = regular_module(H)
    _, psi_r, _, _ = phi_psi(H, reg)
    ce = H.canonical_elements()
    dim = H.dim
    one_idx = {i: c for (i,), c in H.alg.unit.coeffs.items()}
    for v in range(dim):
        # p_r . (1 (x) e_v) as a vector in H (x) V
        vec = {}
        for (x, y), c in ce.p_r.coeffs.items():
            for (r,), cv in H.alg.mul(H.basis(y), H.basis(v)).coeffs.items():
                key = x * dim + r
                vec[key] = vec.get(key, Scalar.zero(H.n)) + c * cv
        vec = {k: val for k, val in vec.items() if val}
        got = psi_r.apply(vec)
        want = {i * dim + v: c for i, c in one_idx.items()}
        assert got == want


def test_xi_algebra_map():
    H = z2()
    reg = regular_module(H)
    maps = phi_psi(H, reg)
    ident = SparseMatrix.identity(H.n, 2)
    assert xi(H, reg, H.one(), ident, maps=maps).matrix == \
        SparseMatrix.identity(H.n, 4)
    # on W = trivial(1), Xi(g (x) 1) is right multiplication by g
    tri = trivial_module(H, 1)
    maps1 = phi_psi(H, tri)
    got = xi(H, tri, H.basis(1), SparseMatrix.identity(H.n, 1), maps=maps1)
    assert got.matrix == H.alg.right_mult_matrix(H.basis(1))


def test_xi_multiplicativity_seeded():
    fx = q_fixture(1, 7)
    H = fx.H
    reg = regular_module(H)
    maps = phi_psi(H, reg)
    rng = random.Random(11)
    for _ in range(100):
        a, b = (H.basis(rng.randrange(16)) for _ in range(2))
        m = SparseMatrix(H.n, 16, 16)
        nmat = SparseMatrix(H.n, 16, 16)
        for _ in range(2):
            m.set(rng.randrange(16), rng.randrange(16), Scalar.one(H.n))
            nmat.set(rng.randrange(16), rng.randrange(16), Scalar.one(H.n))
        lhs = xi(H, reg, a, m, maps=maps) @ xi(H, reg, b, nmat, maps=maps)
        rhs = xi(H, reg, H.alg.mul(b, a), m @ nmat, maps=maps)
        assert lhs.matrix == rhs.matrix


def test_xi_spans_the_endomorphism_space():
    # the straightened parametrization hits all of End_H(H (x) W)
    cases = [(z2(), regular_module(z2())),
             (z4(), regular_module(z4())),
             (q_principal(1).H, trivial_module(q_principal(1).H, 2))]
    for H, W in cases:
        maps = phi_psi(H, W)
        hw = maps[0].target
        end_dim = len(hom_space(hw, hw))
        from quasihopf.exactmath import RowReducer

        red = RowReducer(H.n, hw.dim * hw.dim)
        count = 0
        for a in range(H.dim):
            for j in range(W.dim):
                for k in range(W.dim):
                    mjk = SparseMatrix(H.n, W.dim, W.dim)
                    mjk.set(j, k, Scalar.one(H.n))
                    f = xi(H, W, H.basis(a), mjk, maps=maps)
                    row = {r * hw.dim + c: v
                           for (r, c), v in f.matrix.entries.items()}
                    red.add_row(row)
                    count += 1
        assert red.rank == end_dim == H.dim * W.dim * W.dim


def test_xi_left_is_module_map():
    fx = q_fixture(1, 7)
    H = fx.H
    reg = regular_module(H)
    maps = phi_psi(H, reg)
    m = SparseMatrix(H.n, 16, 16)
    m.set(2, 3, Scalar.one(H.n))
    f = xi_left(H, reg, H.basis(5), m, maps=maps)
    assert is_intertwiner(f, basis_indices=range(16),
                          columns=range(0, 256, 15))


def test_hom_space_dimensions():
    fx = q_fixture(1, 7)
    H = fx.H
    reg = regular_module(H)
    tri = trivial_module(H, 1)
    assert len(hom_space(tri, reg)) == 1     # maps land on the integral
    assert len(hom_space(reg, tri)) == 1
    maps = hom_space(tri, reg)
    # the image of 1 is a left integral
    img = maps[0].apply({0: Scalar.one(H.n)})
    from quasihopf.algcore import TensorElement

    vec = TensorElement(H.n, 1, {(k,): v for k, v in img.items()})
    lam = fx.integral
    k = min(vec.coeffs)
    assert vec.scale(lam.coeffs[k] / vec.coeffs[k]) == lam


def test_partial_trace_shape_errors():
    H = z2()
    reg = regular_module(H)
    with pytest.raises(ShapeMismatch):
        partial_trace(ModuleMap.identity(reg), "right")


def test_duals_and_pivot_requires_pivotal_data():
    from quasihopf.qha import MissingPivotalData, QuasiHopfAlgebra

    H = z2()
    bare = QuasiHopfAlgebra(
        H.alg, H.delta_images, H.counit, H.antipode_images,
        H.antipode_inv_images, H.coassociator, H.coassociator_inv,
        H.alpha, H.beta, pivotal=None)
    with pytest.raises(MissingPivotalData):
        duals_and_pivot(regular_module(bare))
    data = duals_and_pivot(regular_module(H))
    assert data.ev_right is not None and data.coev_right is not None


# -- partial traces against the materialized composite -------------------------


def _composite_trace(f, side):
    """The partial trace as the literal product of the module maps, with the
    associator matrices and f (x) id formed in full."""
    tmap, ident = repcat._tensor_map, ModuleMap.identity
    if side == "right":
        A, C, B = f.source.left, f.source.right, f.target.left
        d = DualityData(C)
        pre = associator(A, C, d.dual) @ tmap(ident(A), d.coev_left) \
            @ unit_intro_right(A)
        post = unit_elim_right(B) @ tmap(ident(B), d.ev_right) \
            @ associator_inv(B, C, d.dual)
        return post @ tmap(f, ident(d.dual)) @ pre
    C, A, B = f.source.left, f.source.right, f.target.right
    d = DualityData(C)
    pre = associator_inv(d.dual, C, A) @ tmap(d.coev_right, ident(A)) \
        @ unit_intro_left(A)
    post = unit_elim_left(B) @ tmap(d.ev_left, ident(B)) \
        @ associator(d.dual, C, B)
    return post @ tmap(ident(d.dual), f) @ pre


def _seeded_map(M, P, seed):
    """A seeded combination of a basis of Hom_H(M, P)."""
    H = M.H
    rng = random.Random(seed)
    acc = SparseMatrix(H.n, P.dim, M.dim)
    for b in hom_space(M, P):
        acc = acc + b.matrix.scale(Scalar.from_int(H.n, rng.choice((1, -1, 2))))
    return ModuleMap(M, P, acc)


def test_partial_trace_matches_composite_on_the_regular_module():
    fx = q_fixture(1, 7)
    H = fx.H
    reg = regular_module(H)
    maps = phi_psi(H, reg)
    m = SparseMatrix(H.n, 16, 16)
    m.set(2, 2, Scalar.from_int(H.n, 2))
    m.set(3, 9, Scalar.one(H.n))
    a = H.basis(1) + H.basis(3)
    for side, build in (("right", xi), ("left", xi_left)):
        f = build(H, reg, a, m, maps=maps)
        got = partial_trace(f, side)
        assert got.matrix.nnz() > 0
        assert got.matrix == _composite_trace(f, side).matrix
        assert got.source.dim == got.target.dim == 16


def test_partial_trace_matches_composite_on_other_modules():
    H = z4()
    reg = regular_module(H)
    tri = trivial_module(H, 2)
    tri_reg, reg_reg = tensor(tri, reg), tensor(reg, reg)
    cases = [(_seeded_map(tri_reg, tri_reg, 1), "right"),
             (_seeded_map(tri_reg, tri_reg, 2), "left"),
             # A != B: the partner modules of the two coherence legs differ
             (_seeded_map(tri_reg, reg_reg, 3), "right")]
    # Q(1) has an 8-term coassociator; A != B on either side, through an
    # H-linear map on the partner leg: h -> (h x1, h x2) into k^2 (x) H on
    # the right, the integral k -> H on the left
    H1 = q_fixture(1, 7).H
    reg1 = regular_module(H1)
    maps = phi_psi(H1, reg1)
    m = SparseMatrix(H1.n, 16, 16)
    m.set(2, 5, Scalar.one(H1.n))
    m.set(7, 7, Scalar.from_int(H1.n, -3))
    a = H1.basis(1) + H1.basis(6)
    ident = ModuleMap.identity(reg1)
    split = SparseMatrix(H1.n, 32, 16)
    for i, x in enumerate((H1.basis(0) + H1.basis(3), H1.basis(5))):
        for (r, c), v in H1.alg.right_mult_matrix(x).entries.items():
            split.set(i * 16 + r, c, v)
    down = ModuleMap(reg1, tensor(trivial_module(H1, 2), reg1), split)
    up = hom_space(trivial_module(H1, 1), reg1)[0]
    assert is_intertwiner(down) and is_intertwiner(up)
    cases += [
        (repcat._tensor_map(down, ident) @ xi(H1, reg1, a, m, maps=maps),
         "right"),
        (xi_left(H1, reg1, a, m, maps=maps) @ repcat._tensor_map(ident, up),
         "left")]
    for f, side in cases:
        got = partial_trace(f, side)
        assert got.matrix.nnz() > 0
        assert got.matrix == _composite_trace(f, side).matrix


def test_second_partial_trace_reuses_the_coherence_legs(monkeypatch):
    fx = q_fixture(1, 7)
    H = fx.H
    reg = regular_module(H)
    maps = phi_psi(H, reg)
    m = SparseMatrix(H.n, 16, 16)
    m.set(4, 1, Scalar.one(H.n))
    fs = [xi(H, reg, H.basis(k), m, maps=maps) for k in (3, 6)]
    first = partial_trace(fs[0], "right")
    built = []

    class CountingDualityData(DualityData):
        def __init__(self, V):
            built.append("duality")
            super().__init__(V)

    def counting(name):
        fn = getattr(repcat, name)

        def wrapper(*args, **kwargs):
            built.append(name)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(repcat, "DualityData", CountingDualityData)
    # every tensor-product matrix (associators, tensor actions, legs), and
    # the builder of each coherence leg
    for name in ("kron_sum", "_trace_leg"):
        monkeypatch.setattr(repcat, name, counting(name))
    assert partial_trace(fs[0], "right").matrix == first.matrix
    second = partial_trace(fs[1], "right")
    assert built == []
    # the counters see the builds of a trace whose legs are not cached yet
    partial_trace(fs[1], "left")
    assert "kron_sum" in built and "_trace_leg" in built
    monkeypatch.undo()
    assert second.matrix == _composite_trace(fs[1], "right").matrix
