"""Module-category maps and checks that the engine itself does not use.

The unit constraints, the dual of a map, the checked right duality, the
module axioms, the intertwiner check and the left Xi serve the tests as
references and as parts of composites (zig-zags, the literal partial-trace
composite, the H-side reference of the reduction checker).
"""

from functools import lru_cache

from quasihopf.exactmath import Scalar, SparseMatrix, kron_sum
from quasihopf.qha import MissingPivotalData
from quasihopf.repcat import (
    DualityData,
    DualRep,
    ModuleMap,
    TensorRep,
    phi_psi,
    unit_object,
)


def is_module(V):
    """rho is a unital algebra morphism (exhaustive over basis pairs)."""
    A = V.H.alg
    if V.matrix_of_elem(A.unit) != SparseMatrix.identity(V.H.n, V.dim):
        return False
    for i in range(V.H.dim):
        for j in range(V.H.dim):
            prod = A.mul(A.basis(i), A.basis(j))
            if V.matrix(i) @ V.matrix(j) != V.matrix_of_elem(prod):
                return False
    return True


def is_intertwiner(f, basis_indices=None, columns=None):
    """Exact check of f rho_src(h) = rho_tgt(h) f, column by column.

    Exhaustive over all basis elements and source columns by default; pass
    explicit index lists to restrict (used at large dimensions).  Only the
    columns the check needs are read: a column of a tensor product module
    is assembled from columns of its factors, so no action matrix of a
    tensor product module is built.
    """
    H = f.source.H
    zero, one = Scalar.zero(H.n), Scalar.one(H.n)

    @lru_cache(maxsize=None)
    def column(rep, i, c):
        """Column c of rep.matrix(i), as {row: Scalar}."""
        if not isinstance(rep, TensorRep):
            return {r: v for (r, k), v in rep.matrix(i).entries.items()
                    if k == c}
        w_dim = rep.right.dim
        v, w = divmod(c, w_dim)
        out = {}
        for (a, b), coef in H.delta_images[i].coeffs.items():
            right = column(rep.right, b, w)
            for r, x in column(rep.left, a, v).items():
                for s, y in right.items():
                    out[r * w_dim + s] = out.get(r * w_dim + s, zero) \
                        + coef * x * y
        return {k: x for k, x in out.items() if x}

    def act(rep, i, vec):
        out = {}
        for t, x in vec.items():
            for r, y in column(rep, i, t).items():
                out[r] = out.get(r, zero) + x * y
        return {k: v for k, v in out.items() if v}

    for i in range(H.dim) if basis_indices is None else basis_indices:
        for c in range(f.source.dim) if columns is None else columns:
            if f.apply(column(f.source, i, c)) != act(
                    f.target, i, f.apply({c: one})):
                return False
    return True


def unit_intro_right(V):
    """V -> V (x) 1, identity on underlying coordinates."""
    t = TensorRep(V, unit_object(V.H))
    return ModuleMap(V, t, SparseMatrix.identity(V.H.n, V.dim))


def unit_elim_right(V):
    t = TensorRep(V, unit_object(V.H))
    return ModuleMap(t, V, SparseMatrix.identity(V.H.n, V.dim))


def unit_intro_left(V):
    t = TensorRep(unit_object(V.H), V)
    return ModuleMap(V, t, SparseMatrix.identity(V.H.n, V.dim))


def unit_elim_left(V):
    t = TensorRep(unit_object(V.H), V)
    return ModuleMap(t, V, SparseMatrix.identity(V.H.n, V.dim))


def duals_and_pivot(V):
    data = DualityData(V)
    if V.H.pivotal is None:
        raise MissingPivotalData("right duality needs pivotal data")
    return data


def dual_map(f, dual_source=None, dual_target=None):
    """The transpose of f, as a map between the dual modules."""
    ds = DualRep(f.source) if dual_source is None else dual_source
    dt = DualRep(f.target) if dual_target is None else dual_target
    return ModuleMap(dt, ds, f.matrix.transpose())


def xi_left(H, W, a, m, maps=None):
    """The left-handed analogue phi_l . (m (x) r_a) . psi_l in End(W (x) H)."""
    _, _, phi_l, psi_l = maps if maps is not None else phi_psi(H, W)
    mid = ModuleMap(psi_l.target, phi_l.source, kron_sum(
        H.n, [(W.dim, W.dim), (H.dim, H.dim)],
        [(Scalar.one(H.n), (m, H.alg.right_mult_matrix(a)))]))
    return phi_l @ mid @ psi_l
