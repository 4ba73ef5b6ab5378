"""The module category of a quasi-Hopf algebra.

Representations are given by one action matrix per algebra basis element,
and act only through these matrices; there is no column-wise path.  Tensor
products act through the coproduct, duals through the antipode, and the
associator is the coassociator acting legwise.  With pivotal data the right
duality and the double-dual identification are available, and partial traces
are built literally as the composites

    tr_r(f): A -> A.1 -> A(C Cd) -> (A C)Cd -> (B C)Cd -> B(C Cd) -> B.1 -> B
    tr_l(g): A -> 1.A -> (Cd C)A -> Cd(C A) -> Cd(C B) -> (Cd C)B -> 1.B -> B

with every coherence map realized explicitly.  Unit constraints are the
identity on underlying coordinates.  Each coherence leg is the coassociator
(resp. its inverse) on the coevaluation columns or the evaluation rows the
composite uses; f (x) id_Cd followed by the sum over the Cd coordinate is
two kernel products, so neither the associator matrices nor the map
tensored with the identity of Cd is formed.  The duality data and the two
coherence legs are cached on C, keyed by the partner module, so a second
partial trace over the same modules pays only for f.

Every sum c_t M_t1 (x) ... (x) M_tk here (tensor actions, associators,
f (x) g, the middle factor of Xi, the coherence legs) is one call of
exactmath.kron_sum, and each straightening isomorphism of phi_psi is one
kernel product.

Module maps are sparse matrices tagged with source and target; every
constructor here yields H-linear maps, and Hom-spaces are computed as exact
nullspaces of the intertwining constraints.
"""

from quasihopf.algcore import sandwiches
from quasihopf.exactmath import RowReducer, Scalar, SparseMatrix, kron_sum
from quasihopf.qha import MissingPivotalData


class ShapeMismatch(ValueError):
    pass


class AlgebraMismatch(ValueError):
    pass


class Representation:
    """Base: a finite-dimensional module, one action matrix per basis element."""

    def __init__(self, H, dim):
        self.H = H
        self.dim = dim
        self._matrices = {}
        self._duality = None
        self._trace_legs = {}

    def matrix(self, i):
        m = self._matrices.get(i)
        if m is None:
            m = self._build_matrix(i)
            self._matrices[i] = m
        return m

    def duality(self):
        """The DualityData of this module, built once."""
        if self._duality is None:
            self._duality = DualityData(self)
        return self._duality

    def matrix_of_elem(self, x):
        return _action(x, self)


class RegularRep(Representation):
    """H acting on itself by left multiplication."""

    def __init__(self, H):
        super().__init__(H, H.dim)

    def _build_matrix(self, i):
        return self.H.alg.left_mult_matrix(self.H.basis(i))


class TrivialRep(Representation):
    """h . v = eps(h) v on a space of the given dimension."""

    def _build_matrix(self, i):
        e = self.H.eps(self.H.basis(i))
        return SparseMatrix.identity(self.H.n, self.dim).scale(e)


class MatrixRep(Representation):
    def __init__(self, H, matrices):
        super().__init__(H, matrices[0].rows if matrices else 0)
        self._matrices = dict(enumerate(matrices))

    def _build_matrix(self, i):
        raise KeyError(i)


class TensorRep(Representation):
    """V (x) W with action through the coproduct; index = v * dim(W) + w."""

    def __init__(self, left, right):
        if left.H is not right.H:
            raise AlgebraMismatch("tensor factors over different algebras")
        super().__init__(left.H, left.dim * right.dim)
        self.left = left
        self.right = right

    def _build_matrix(self, i):
        return _action(self.H.delta_images[i], self.left, self.right)


class DualRep(Representation):
    """Left dual: <h.p, v> = <p, S(h) v>, so the action is rho(S(h)) transposed."""

    def __init__(self, base):
        super().__init__(base.H, base.dim)
        self.base = base

    def _build_matrix(self, i):
        return self.base.matrix_of_elem(self.H.antipode_images[i]).transpose()


class ModuleMap:
    """H-linear map between representations, stored as a sparse matrix."""

    __slots__ = ("source", "target", "matrix")

    def __init__(self, source, target, matrix):
        if matrix.rows != target.dim or matrix.cols != source.dim:
            raise ShapeMismatch(
                f"matrix {matrix.rows}x{matrix.cols} between modules of "
                f"dimensions {source.dim} -> {target.dim}")
        self.source = source
        self.target = target
        self.matrix = matrix

    @classmethod
    def identity(cls, rep):
        return cls(rep, rep, SparseMatrix.identity(rep.H.n, rep.dim))

    def __matmul__(self, other):
        if not isinstance(other, ModuleMap):
            return NotImplemented
        if other.target.dim != self.source.dim:
            raise ShapeMismatch("composition dimension mismatch")
        return ModuleMap(other.source, self.target, self.matrix @ other.matrix)

    def __add__(self, other):
        return ModuleMap(self.source, self.target, self.matrix + other.matrix)

    def scale(self, scalar):
        return ModuleMap(self.source, self.target, self.matrix.scale(scalar))

    def __eq__(self, other):
        if not isinstance(other, ModuleMap):
            return NotImplemented
        return self.matrix == other.matrix and \
            (self.source.dim, self.target.dim) == (other.source.dim, other.target.dim)

    def apply(self, vec):
        return self.matrix.apply(vec)

    def __repr__(self):
        return f"ModuleMap({self.source.dim} -> {self.target.dim}, " \
               f"nnz={self.matrix.nnz()})"


def regular_module(H):
    return RegularRep(H)


def trivial_module(H, dim=1):
    return TrivialRep(H, dim)


def tensor(V, W):
    return TensorRep(V, W)


def unit_object(H):
    return TrivialRep(H, 1)


def _action(x, *modules):
    """The matrix of x, an element of H^(x)k, on the modules' tensor product:
    sum c rho_1(x_1) (x) ... (x) rho_k(x_k)."""
    return kron_sum(modules[0].H.n, [(M.dim, M.dim) for M in modules],
                    [(c, tuple(M.matrix(i) for M, i in zip(modules, key)))
                     for key, c in x.coeffs.items()])


def associator(U, V, W):
    """U (x) (V (x) W) -> (U (x) V) (x) W, acting by the coassociator."""
    src = TensorRep(U, TensorRep(V, W))
    tgt = TensorRep(TensorRep(U, V), W)
    return ModuleMap(src, tgt, _action(U.H.coassociator, U, V, W))


def associator_inv(U, V, W):
    """(U (x) V) (x) W -> U (x) (V (x) W), acting by the inverse coassociator."""
    src = TensorRep(TensorRep(U, V), W)
    tgt = TensorRep(U, TensorRep(V, W))
    return ModuleMap(src, tgt, _action(U.H.coassociator_inv, U, V, W))


class DualityData:
    """Left/right duality and the double-dual map for one module."""

    def __init__(self, V):
        H = V.H
        n = H.n
        d = V.dim
        self.module = V
        self.dual = DualRep(V)
        unit = unit_object(H)

        ev = SparseMatrix(n, 1, d * d, {
            (0, j * d + k): c
            for (j, k), c in V.matrix_of_elem(H.alpha).entries.items()})
        self.ev_left = ModuleMap(TensorRep(self.dual, V), unit, ev)

        coev = SparseMatrix(n, d * d, 1, {
            (k * d + i, 0): c
            for (k, i), c in V.matrix_of_elem(H.beta).entries.items()})
        self.coev_left = ModuleMap(unit, TensorRep(V, self.dual), coev)

        self.ev_right = None
        self.coev_right = None
        self.double_dual = None
        if H.pivotal is not None:
            p = H.pivotal
            sag = H.alg.mul(H.S(H.alpha), p.pivot)
            ev = SparseMatrix(n, 1, d * d, {
                (0, k * d + j): c
                for (j, k), c in V.matrix_of_elem(sag).entries.items()})
            self.ev_right = ModuleMap(TensorRep(V, self.dual), unit, ev)

            # the action of g^-1 S(beta)
            gsb = V.matrix_of_elem(p.pivot_inv) @ V.matrix_of_elem(H.S(H.beta))
            coev = SparseMatrix(n, d * d, 1, {
                (j * d + k, 0): c for (k, j), c in gsb.entries.items()})
            self.coev_right = ModuleMap(unit, TensorRep(self.dual, V), coev)

            self.double_dual = ModuleMap(
                V, DualRep(self.dual), V.matrix_of_elem(p.pivot))


def partial_trace(f, side="right"):
    """Categorical partial trace over the second (right) or first (left)
    tensor factor of an endomorphism-shaped map."""
    if not isinstance(f.source, TensorRep) or not isinstance(f.target, TensorRep):
        raise ShapeMismatch("partial trace needs maps between tensor products")
    if side == "right":
        A, C = f.source.left, f.source.right
        B = f.target.left
        if f.target.right is not C:
            raise ShapeMismatch("right leg must be shared between source and target")
        if C.duality().ev_right is None:
            raise MissingPivotalData("right partial trace needs pivotal data")
    elif side == "left":
        C, A = f.source.left, f.source.right
        B = f.target.right
        if f.target.left is not C:
            raise ShapeMismatch("left leg must be shared between source and target")
        if C.duality().coev_right is None:
            raise MissingPivotalData("left partial trace needs pivotal data")
    else:
        raise ValueError(f"side must be 'left' or 'right', not {side!r}")
    legs = C._trace_legs
    for key in ((side, A, True), (side, B, False)):
        if key not in legs:
            legs[key] = _trace_leg(C, *key)
    columns, rows = legs[side, A, True], legs[side, B, False]
    # f (x) id_Cd on every column (k, j), then the sum over k
    dt = f.target.dim
    stacked = {}
    for (t, kj), v in (f.matrix @ columns).entries.items():
        k, j = divmod(kj, A.dim)
        stacked[k * dt + t, j] = v
    m = rows @ SparseMatrix(f.source.H.n, rows.cols, A.dim, stacked)
    return ModuleMap(A, B, m)


def _trace_leg(C, side, partner, incoming):
    """One coherence leg of a partial trace over C, with its partner module.

    Incoming (partner A), the composite
        right: assoc(A, C, Cd) . (id_A (x) coev_l) . (A -> A.1)
        left:  assoc_inv(Cd, C, A) . (coev_r (x) id_A) . (A -> 1.A)
    as a matrix with rows s, the index in the source of f (A (x) C, resp.
    C (x) A), and columns (k, j), k the Cd coordinate.  Outgoing (partner B),
        right: (B.1 -> B) . (id_B (x) ev_r) . assoc_inv(B, C, Cd)
        left:  (1.B -> B) . (ev_l (x) id_B) . assoc(Cd, C, B)
    as a matrix with rows i and columns (k, t), t the index in the target
    of f.

    Over the coherence terms c x (x) y (x) z, the leg is sum c rho_P(u) (x) w
    for the partner's term u (x on the right, z on the left) and
    w = rho(u1) . pair . rho(u2)^T, with u1 (x) u2 the terms acting on the
    C (x) Cd (resp. Cd (x) C) pair; for an outgoing leg the transposes move
    to rho(u1).  Each w is two small kernel products, and the leg one
    kron_sum.
    """
    H = C.H
    n = H.n
    d = C.duality()
    dc, dp = C.dim, partner.dim
    if side == "right":
        pair = d.coev_left if incoming else d.ev_right
        coherence = H.coassociator if incoming else H.coassociator_inv
        terms = [(x, C.matrix(y), d.dual.matrix(z), c)
                 for (x, y, z), c in coherence.coeffs.items()]
    else:
        pair = d.coev_right if incoming else d.ev_left
        coherence = H.coassociator_inv if incoming else H.coassociator
        terms = [(z, d.dual.matrix(x), C.matrix(y), c)
                 for (x, y, z), c in coherence.coeffs.items()]
    pair = SparseMatrix(n, dc, dc, {divmod(r if incoming else c, dc): v
                                    for (r, c), v in pair.matrix.entries.items()})
    leg = kron_sum(n, [(dp, dp), (dc, dc)], [
        (c, (partner.matrix(u),
             first @ pair @ second.transpose() if incoming
             else first.transpose() @ pair @ second))
        for u, first, second, c in terms])
    entries = {}
    for (ra, colb), v in leg.entries.items():
        r, a = divmod(ra, dc)
        col, b = divmod(colb, dc)
        if side == "right":
            s, k = (r if incoming else col) * dc + a, b
        else:
            s, k = b * dp + (r if incoming else col), a
        if incoming:
            entries[s, k * dp + col] = v
        else:
            entries[r, k * dp * dc + s] = v
    if incoming:
        return SparseMatrix(n, dp * dc, dc * dp, entries)
    return SparseMatrix(n, dp, dc * dp * dc, entries)


def _tensor_map(f, g):
    n = f.source.H.n
    return ModuleMap(TensorRep(f.source, g.source),
                     TensorRep(f.target, g.target),
                     kron_sum(n, [(f.target.dim, f.source.dim),
                                  (g.target.dim, g.source.dim)],
                              [(Scalar.one(n), (f.matrix, g.matrix))]))


def phi_psi(H, V):
    """The exact mutually inverse module isomorphisms between H (x) V with
    the diagonal action and H (x) V with the trivialized right leg:

        phi_r(h (x) v) = (Delta(h) p_r) . (1 (x) v)
        psi_r(h (x) v) = [(id (x) S)(q_r Delta(h))] . (1 (x) v)

    and their left-handed analogues (with p_l, q_l, S^-1, legs swapped).
    The second legs act through the module structure of V, stacked into one
    matrix with rows (r, v) and columns y; for psi it is first composed with
    the matrix of S (resp. S^-1).  Each map is then one product of that
    action with the sandwich matrix of h -> mid(h) for every basis h
    (algcore.sandwiches), re-keyed.
    """
    A = H.alg
    ce = H.canonical_elements()
    reg = RegularRep(H)
    triv = TrivialRep(H, V.dim)
    act = SparseMatrix(H.n, V.dim * V.dim, H.dim, {
        (r * V.dim + v, y): c
        for y in range(H.dim) for (r, v), c in V.matrix(y).entries.items()})

    def through(images):
        return act @ SparseMatrix(H.n, H.dim, H.dim, {
            (i, y): c for y, img in enumerate(images)
            for (i,), c in img.coeffs.items()})

    deltas = H.delta_images
    phi_r = _straightening(TensorRep(reg, triv), TensorRep(reg, V), act,
                           sandwiches(A, deltas, Y=ce.p_r), True)
    psi_r = _straightening(TensorRep(reg, V), TensorRep(reg, triv),
                           through(H.antipode_images),
                           sandwiches(A, deltas, X=ce.q_r), True)
    phi_l = _straightening(TensorRep(triv, reg), TensorRep(V, reg), act,
                           sandwiches(A, deltas, Y=ce.p_l), False)
    psi_l = _straightening(TensorRep(V, reg), TensorRep(triv, reg),
                           through(H.antipode_inv_images),
                           sandwiches(A, deltas, X=ce.q_l), False)
    return phi_r, psi_r, phi_l, psi_l


def _straightening(source, target, act, mids, right):
    """The map (h, v) -> sum c x (x) act(y) e_v over the terms c x (x) y in
    column h of the sandwich matrix mids (right), or with the legs swapped,
    (v, h) -> sum c act(x) e_v (x) y (left): the product of act, rows (r, v)
    and columns the acting leg, with mids re-keyed by (other leg, h)."""
    n, D = source.H.n, source.H.dim
    dv = source.dim // D
    mid = SparseMatrix(n, D, D * D, {
        ((xy % D, xy // D * D + h) if right else (xy // D, xy % D * D + h)): c
        for (xy, h), c in mids.entries.items()})
    entries = {}
    for (rv, oh), c in (act @ mid).entries.items():
        r, v = divmod(rv, dv)
        o, h = divmod(oh, D)
        if right:
            entries[o * dv + r, h * dv + v] = c
        else:
            entries[r * D + o, v * D + h] = c
    return ModuleMap(source, target,
                     SparseMatrix(n, target.dim, source.dim, entries))


def xi(H, W, a, m, maps=None):
    """Xi(a (x) m) = phi_r . (r_a (x) m) . psi_r in End(H (x) W).

    a is an algebra element, m a SparseMatrix on W; Xi is an algebra
    isomorphism from (opposite multiplication) (x) End(W) onto the
    H-linear endomorphisms of H (x) W.
    """
    phi_r, psi_r, _, _ = maps if maps is not None else phi_psi(H, W)
    mid = ModuleMap(psi_r.target, phi_r.source, kron_sum(
        H.n, [(H.dim, H.dim), (W.dim, W.dim)],
        [(Scalar.one(H.n), (H.alg.right_mult_matrix(a), m))]))
    return phi_r @ mid @ psi_r


def hom_space(M, P):
    """Basis of Hom_H(M, P), as exact nullspace of the intertwiner constraints."""
    H = M.H
    if P.H is not H:
        raise AlgebraMismatch("modules over different algebras")
    dm, dp = M.dim, P.dim
    red = RowReducer(H.n, dp * dm)
    for h in range(H.dim):
        mp = P.matrix(h)
        mm = M.matrix(h)
        rows = {}
        for (p2, p), v in mp.entries.items():
            for col_m in range(dm):
                row = rows.setdefault((p2, col_m), {})
                key = p * dm + col_m
                cur = row.get(key)
                row[key] = v if cur is None else cur + v
        for (m2, m1), v in mm.entries.items():
            for p2 in range(dp):
                row = rows.setdefault((p2, m1), {})
                key = p2 * dm + m2
                cur = row.get(key)
                row[key] = -v if cur is None else cur - v
        for row in rows.values():
            row = {k: c for k, c in row.items() if c}
            if row:
                red.add_row(row)
    out = []
    for vec in red.nullspace():
        m = SparseMatrix(H.n, dp, dm)
        for idx, c in enumerate(vec):
            if c:
                m.set(idx // dm, idx % dm, c)
        out.append(ModuleMap(M, P, m))
    return out
