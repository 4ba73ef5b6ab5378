"""Module-category maps that the engine itself does not use.

The unit constraints, the dual of a map, the checked right duality, the
module axioms and the left Xi serve the tests as references and as parts of
composites (zig-zags, the literal partial-trace composite, the H-side
reference of the reduction checker).
"""

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
