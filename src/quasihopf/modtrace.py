"""Modified traces on projective modules, built from symmetrised cointegrals.

A symmetric linear form t on H extends uniquely to a family of trace maps on
all projectives via presentations: if id_P = sum a_i . b_i with a_i: H -> P,
b_i: P -> H, then t_P(f) = sum t((b_i . f . a_i)(1)).  The form extends to a
right modified trace exactly when

    t(a) 1 = (t (x) g)(q_r Delta(a) p_r)      for all a,

(left variant with g^-1, q_l, p_l and the legs swapped), which is the same
condition as being a symmetrised cointegral.  Its one implementation is
intcoint.check_symmetrised with gamma = eps, which memoizes each proven side
on H: a trace built by from_symmetrised_cointegral costs verify_reduction
nothing there, and a hand-built ModifiedTrace is checked in full.

One path per one-sided pair, as in intcoint: the left variant of a
construction on H is the right one on H.coopposite(), which is exact
because q_r(H^cop) = (q_l)_21 and p_r(H^cop) = (p_l)_21 (pinned by
test_opposite_and_coopposite).  ReductionChecker is written for the left
side, and verify_reduction runs it on H^cop for the right one.  repcat's
left partial trace and left straightening maps, composed by the tests'
xi_left, stay as the independent H-side reference the checker is tested
against.

This module provides:

  * the construction of the trace from a symmetrised cointegral (refusing
    non-unimodular input),
  * presentation-based evaluation on arbitrary projectives,
  * an exhaustive verifier of the partial-trace reduction
    t_{H (x) W}(f) = t_H(tr_r(f)) over f = Xi(a (x) m), with the two sides
    computed through genuinely different code paths (presentation sums
    versus the categorical trace composite).  Both sides are linear in m,
    so the exhaustive check extracts, for each basis element a, the
    dim x dim coefficient matrices of the two sides in m and compares
    them; that covers every pair (a, E_jk) at once,
  * the Hom-pairing non-degeneracy check.
"""

from dataclasses import dataclass, field

from quasihopf.algcore import LinearForm, TensorElement, sandwiches
from quasihopf.exactmath import RowReducer, Scalar, SparseMatrix
from quasihopf.intcoint import (Modulus, check_symmetric, check_symmetrised,
                                modulus)
from quasihopf.qha import QuasiHopfAlgebra, QuasiHopfError
from quasihopf.repcat import ModuleMap, RegularRep, hom_space
from quasihopf.report import Check, check_every


class NotUnimodular(QuasiHopfError):
    pass


class NotSymmetrisedCointegral(QuasiHopfError):
    pass


class BadPresentation(ValueError):
    pass


@dataclass
class ModifiedTrace:
    H: QuasiHopfAlgebra
    side: str                # 'left', 'right', or 'two-sided'
    form: LinearForm         # t, with t_H(r_x) = t(x)


def from_symmetrised_cointegral(H, lam_hat, side="right"):
    """Build the modified trace attached to a symmetrised cointegral.

    Requires H pivotal and unimodular; verifies the defining reduction
    condition on both sides through check_symmetrised (a side that
    symmetrise has proven for this form is a memo hit) and exhaustive
    symmetry, and upgrades the side to 'two-sided' when the form satisfies
    both the left and the right condition.
    """
    H.require_pivotal()
    gamma = modulus(H)
    if not gamma.is_counit(H):
        raise NotUnimodular("modified traces need a unimodular algebra")
    sides_ok = {s: check_symmetrised(H, lam_hat, gamma, s).passed
                for s in ("right", "left")}
    if not sides_ok[side]:
        raise NotSymmetrisedCointegral(
            f"form is not a symmetrised {side} cointegral")
    symmetric = check_symmetric(Check("form"), H, lam_hat)
    if not symmetric.passed:
        raise NotSymmetrisedCointegral(
            f"form is not symmetric at {symmetric.witness}")
    final = "two-sided" if sides_ok["left"] and sides_ok["right"] else side
    return ModifiedTrace(H, final, lam_hat)


@dataclass
class ProjectivePresentation:
    """Maps a_i: H -> P and b_i: P -> H with sum a_i . b_i = id_P."""

    module: object
    maps_in: list
    maps_out: list
    _valid: bool = field(default=False, init=False, repr=False, compare=False)

    def validate(self):
        """Check sum a_i . b_i = id_P; a passed check is remembered.

        The sum is one product: the a_i side by side times the b_i stacked.
        """
        if self._valid:
            return self
        n, dim = self.module.H.n, self.module.dim
        side, stack = {}, {}
        off = 0
        for a, b in zip(self.maps_in, self.maps_out):
            if (a.target.dim, b.source.dim, b.target.dim) != (dim, dim, a.source.dim):
                raise BadPresentation("the maps do not compose to the identity")
            for (r, c), v in a.matrix.entries.items():
                side[r, off + c] = v
            for (r, c), v in b.matrix.entries.items():
                stack[off + r, c] = v
            off += a.source.dim
        total = SparseMatrix(n, dim, off, side) @ SparseMatrix(n, off, dim, stack)
        if total != SparseMatrix.identity(n, dim):
            raise BadPresentation("the maps do not compose to the identity")
        self._valid = True
        return self


def trivial_presentation(H, reg=None):
    reg = RegularRep(H) if reg is None else reg
    ident = ModuleMap.identity(reg)
    return ProjectivePresentation(reg, [ident], [ident])


def presentation_from_idempotent(H, idem, reg=None, split=None):
    """Present the image of right multiplication by an idempotent.

    P gets the basis computed from the column span of r_idem; the single
    map pair is (project, include).  `split` (a list of scalar weights
    summing to 1) fans the pair out into redundant copies, for
    presentation-independence tests.
    """
    A = H.alg
    reg = RegularRep(H) if reg is None else reg
    r_e = A.right_mult_matrix(idem)
    red = RowReducer(H.n, H.dim)
    cols = []
    for a in range(H.dim):
        col = r_e.apply({a: Scalar.one(H.n)})
        if red.add_row(col):
            cols.append(col)
    dim_p = len(cols)
    inc = SparseMatrix(H.n, H.dim, dim_p)
    for j, col in enumerate(cols):
        for k, c in col.items():
            inc.set(k, j, c)
    # left inverse of the inclusion on its image
    solver = RowReducer(H.n, dim_p + H.dim)
    for k in range(H.dim):
        row = {}
        for j in range(dim_p):
            v = inc.entries.get((k, j))
            if v:
                row[j] = v
        row[dim_p + k] = Scalar.from_int(H.n, -1)
        solver.add_row(row)
    solver._rref()
    proj = SparseMatrix(H.n, dim_p, H.dim)
    for pc, prow in solver.pivots.items():
        if pc >= dim_p:
            continue
        for c, v in prow.items():
            if c >= dim_p:
                proj.set(pc, c - dim_p, -v)
    # a pivot row [e_j | B] certifies (-B) . inc = e_j
    if proj @ inc != SparseMatrix.identity(H.n, dim_p):
        raise BadPresentation("projection construction failed")

    mats = [proj @ A.left_mult_matrix(A.basis(i)) @ inc for i in range(H.dim)]
    from quasihopf.repcat import MatrixRep

    P = MatrixRep(H, mats)
    include = ModuleMap(P, reg, inc)
    project_full = proj @ r_e
    if split is None:
        a_maps = [ModuleMap(reg, P, project_full)]
        b_maps = [include]
    else:
        a_maps = [ModuleMap(reg, P, project_full.scale(w)) for w in split]
        b_maps = [include for _ in split]
    return P, ProjectivePresentation(P, a_maps, b_maps).validate()


def evaluate(tr, pres, f):
    """t_P(f) = sum_i t((b_i . f . a_i)(1)) for an endomorphism f of P."""
    if f.source.dim != pres.module.dim or f.target.dim != pres.module.dim:
        raise BadPresentation("endomorphism does not match the presentation")
    pres.validate()
    H = tr.H
    one_vec = {i: c for (i,), c in H.alg.unit.coeffs.items()}
    total = Scalar.zero(H.n)
    for a, b in zip(pres.maps_in, pres.maps_out):
        vec = b.apply(f.apply(a.apply(one_vec)))
        total = total + tr.form.evaluate(TensorElement(
            H.n, 1, {(k,): v for k, v in vec.items()}))
    return total


def tensor_presentation(H, maps):
    """The presentation of H (x) W through the straightening isomorphisms:
    a_j = phi_r . (- (x) w_j), b_j = (id (x) w^j) . psi_r."""
    phi_r, psi_r, _, _ = maps
    reg_triv = phi_r.source       # H (x) trivialized W
    target = phi_r.target         # H (x) W
    H_dim = H.dim
    w_dim = reg_triv.dim // H_dim
    reg = target.left
    a_maps, b_maps = [], []
    for j in range(w_dim):
        inj = SparseMatrix(H.n, reg_triv.dim, H_dim)
        for h in range(H_dim):
            inj.set(h * w_dim + j, h, Scalar.one(H.n))
        proj = SparseMatrix(H.n, H_dim, reg_triv.dim)
        for h in range(H_dim):
            proj.set(h, h * w_dim + j, Scalar.one(H.n))
        a_maps.append(phi_r @ ModuleMap(reg, reg_triv, inj))
        b_maps.append(ModuleMap(reg_triv, reg, proj) @ psi_r)
    return ProjectivePresentation(target, a_maps, b_maps)


# -- the reduction verifier ----------------------------------------------------


class ReductionChecker:
    """Exact comparison of t_{W (x) H}(Xi(a (x) m)) against
    t_H(tr(Xi(a (x) m))) for the left partial trace; on H.coopposite() it
    checks the right side of H, with the same values.

    The left-hand side goes through the presentation sum over the
    straightening maps; the right-hand side walks the literal partial-trace
    composite (coevaluation, associator, the map, inverse associator,
    pivotal evaluation): the stages before the map are applied to 1 once,
    and the stages after it are folded into one element Y_x per basis x.
    W is the left regular module.

    Both sides are linear in m: lhs_matrix(a) and rhs_matrix(a) give the
    coefficient matrices M with side(a, m) = sum m[r2, r] M[r2, r], keyed
    like m's entries.

    Delta(e_x) p_l and q_l Delta(e_a) are built once, for every basis
    element (algcore.sandwiches), and all that uses them is kernel products.
    """

    def __init__(self, H, t_form):
        self.H = H
        self.A = A = H.alg
        self.t = t_form
        self.ce = H.canonical_elements()
        self.p = H.require_pivotal()
        n, dim = H.n, H.dim
        lm = A.left_mult_matrix

        # the composite A -> (Cd C)A -> Cd(C A) applied to 1, with C = H
        # regular: coevR(1) = sum coev[j, k] e^j (x) e_k with coev[j, k] =
        # sum_i (S(beta) e_j)_i (g^-1 e_i)_k, then the inverse coassociator,
        # its first leg acting on Cd; v1 has rows a and columns (c, d)
        coev = (lm(self.p.pivot_inv) @ lm(H.S(H.beta))).transpose()
        v1 = SparseMatrix(n, dim, dim * dim)
        for (P, Q, R), c in H.coassociator_inv.coeffs.items():
            block = lm(H.S(A.basis(P))).transpose() @ coev \
                @ lm(A.basis(Q)).transpose()
            for (a,), ca in A.mul(A.basis(R), A.unit).coeffs.items():
                for (d, k), v in block.entries.items():
                    v1.add_to(a, k * dim + d, c * ca * v)
        # Delta(e_a) p_l and q_l Delta(e_a) in column a of dp and q, rows
        # (x, y) (algcore.sandwiches); row x of sinv_t is S^-1(e_x)
        dp = sandwiches(A, H.delta_images, Y=self.ce.p_l)
        q = sandwiches(A, H.delta_images, X=self.ce.q_l)
        sinv_t = SparseMatrix(n, dim, dim, {
            (x, s): c for x, img in enumerate(H.antipode_inv_images)
            for (s,), c in img.coeffs.items()})

        def multiplied(m):
            """Rows k, sum (e_s e_w)_k m[(s, w), .] over the rows (s, w) of
            m; only the table cells that m's rows use are read."""
            return SparseMatrix(n, dim, dim * dim, {
                (k, sw): c for sw in {sw for sw, _ in m.entries}
                for k, c in A.table.get(divmod(sw, dim), {}).items()}) @ m

        # the inverse straightening on the (C, A) legs of v1, e_c (x) e_a ->
        # sum (S^-1(m_1) e_c) (x) m_2 over the terms m of q_l Delta(e_a):
        # q @ v1 sums over a, then S^-1 maps m_1 to s, then e_s e_c; v1s has
        # rows (m_2 leg, S^-1(m_1) e_c leg) and columns d
        moved = SparseMatrix(n, dim ** 3, dim, {
            ((cd // dim * dim + xy % dim) * dim + cd % dim, xy // dim): v
            for (xy, cd), v in (q @ v1).entries.items()}) @ sinv_t
        acted = multiplied(SparseMatrix(n, dim * dim, dim * dim, {
            (s * dim + cxd // dim ** 2, cxd % dim ** 2): v
            for (cxd, s), v in moved.entries.items()}))
        self.v1s = SparseMatrix(n, dim * dim, dim, {
            (xd // dim * dim + r, xd % dim): v
            for (r, xd), v in acted.entries.items()})
        # the tail of the composite (outgoing straightening map, inverse
        # associator, pivotal evaluation, t), folded: in column u of zs,
        # Z_u = sum k t(e_R e_u) S(e_P) alpha e_Q over the coassociator
        # terms k e_P (x) e_Q (x) e_R, and Y_x = sum c Z_u e_w over the
        # terms (w, u) of Delta(e_x) p_l
        zs = SparseMatrix(n, dim, dim)
        for (P, Q, R), k in H.coassociator.coeffs.items():
            z = A.mul_many(H.S(A.basis(P)), H.alpha, A.basis(Q))
            for u in range(dim):
                if tv := A.form_on_product(self.t, R, u):
                    for (s,), c in z.coeffs.items():
                        zs.add_to(s, u, k * tv * c)

        def folded(elems):
            """Column x: sum c E_u e_w over the terms c e_w (x) e_u of
            Delta(e_x) p_l, with E_u column u of elems."""
            prod = elems @ SparseMatrix(n, dim, dim * dim, {
                (wu % dim, wu // dim * dim + x): c
                for (wu, x), c in dp.entries.items()})
            return multiplied(SparseMatrix(n, dim * dim, dim, {
                (s * dim + wx // dim, wx % dim): c
                for (s, wx), c in prod.entries.items()}))

        # e(a) of lhs_matrix in column a; the t-shifts sum t(m_2) S^-1(m_1)
        # over the terms m of q_l Delta(e_y): q contracted with t, then S^-1
        shifts = sinv_t.transpose() @ (SparseMatrix(n, dim, dim * dim, {
            (x, x * dim + y): tv for (y,), tv in self.t.coeffs.items()
            for x in range(dim)}) @ q)
        self._lhs = folded(shifts)
        # the composite with the map m left open: rows (x, r) and columns
        # (x2, r2) of tails hold sum_d v1s[(x, r), d] (Y_x2 e_r2)_d
        tails = self.v1s @ multiplied(SparseMatrix(n, dim * dim, dim * dim, {
            (s * dim + r2, x2 * dim + r2): c
            for (s, x2), c in folded(zs).entries.items() for r2 in range(dim)}))
        rhs = SparseMatrix(n, dim * dim, dim * dim, {
            (yr2 % dim * dim + xr % dim, xr // dim * dim + yr2 // dim): v
            for (xr, yr2), v in tails.entries.items()})
        # rhs_matrix(e_a) in column a, with (e_x e_a)_x2 from the table
        used = {xx for _, xx in rhs.entries}
        self._rhs = rhs @ SparseMatrix(n, dim * dim, dim, {
            (x * dim + x2, a): c for (x, a), cell in A.table.items()
            for x2, c in cell.items() if x * dim + x2 in used})

    def rhs_matrix(self, a_elem):
        """The coefficient matrix of the composite side at a: entry (r2, r)
        is the sum over the entries val at ((x, r), d) of v1s of
        val sum_x2 (e_x a)_x2 (Y_x2 e_r2)_d, linear in a.

        Stage by stage the tail gives sum c (Z_u (e_w e_r2))_d there; that
        Z_u (e_w e_y) = (Z_u e_w) e_y is associativity, which check_axioms
        proves.
        """
        dim = self.H.dim
        got = self._rhs.apply({a: c for (a,), c in a_elem.coeffs.items()})
        return SparseMatrix(self.H.n, dim, dim,
                            {divmod(k, dim): v for k, v in got.items()})

    def lhs_matrix(self, a_elem):
        """The coefficient matrix of the presentation side at a: the
        presentation sum folded into trace-of-operator form is the transpose
        of left multiplication by an element e(a) = sum c t_shift(y) e_x
        over the terms (x, y) of Delta(a) p_l, linear in a."""
        e = self._lhs.apply({a: c for (a,), c in a_elem.coeffs.items()})
        return self.A.left_mult_matrix(TensorElement.wrap(
            self.H.n, 1, {(k,): v for k, v in e.items()})).transpose()


def verify_reduction(H, tr, sides=("right", "left"), *, sample_budget=None,
                     seed=None):
    """Check the reduction identities for the trace form.

    Two suites per side: the closed-form condition on every basis element
    (intcoint.check_symmetrised with gamma = eps, free for a trace whose
    sides from_symmetrised_cointegral has proven), and the comparison
    t_{H (x) H}(Xi(a (x) m)) = t_H(tr(Xi(a (x) m))), exhaustive over basis
    pairs (a, E_jk): both sides are linear in m, so for each basis a it
    compares the two extracted dim x dim coefficient matrices
    (ReductionChecker.lhs_matrix and rhs_matrix).  Failures are report
    entries carrying the witness, the first failing a.

    ReductionChecker is written for the left side and gets the right one
    on H.coopposite().

    sample_budget and seed are accepted and ignored: the benchmark's
    reduction-q1 workload still passes them, and a TypeError there would
    end its run instead of being counted as a failed operation.
    """
    report = Check("reduction")
    A = H.alg
    eps = Modulus(H.counit)
    e = [A.basis(a) for a in range(H.dim)]
    for side in sides:
        c = report.add(Check(side))
        closed = check_symmetrised(H, tr.form, eps, side)
        c.check("closed-form condition", closed.passed,
                witness=closed.find("characterisation").witness)
        checker = ReductionChecker(
            H.coopposite() if side == "right" else H, tr.form)
        check_every(c, A.labels,
                    "straightened endomorphisms, exhaustive over basis pairs",
                    [(a,) for a in range(H.dim)],
                    lambda a: checker.lhs_matrix(e[a])
                    == checker.rhs_matrix(e[a]))
    return report


def pairing_nondegeneracy(H, tr, M, P, pres):
    """Rank of the pairing Hom(M, P) x Hom(P, M) -> k, (f, g) -> t_P(f g)."""
    maps_mp = hom_space(M, P)
    maps_pm = hom_space(P, M)
    report = Check("hom-pairing")
    report.check("dim Hom(M, P)", True, value=str(len(maps_mp)))
    report.check("dim Hom(P, M)", True, value=str(len(maps_pm)))
    if len(maps_mp) != len(maps_pm):
        report.check("square pairing", False)
        return report
    red = RowReducer(H.n, len(maps_pm))
    for f in maps_mp:
        row = {}
        for j, g in enumerate(maps_pm):
            v = evaluate(tr, pres, f @ g)
            if v:
                row[j] = v
        if row:
            red.add_row(row)
    rank = red.rank
    report.check("pairing rank", rank == len(maps_mp), value=str(rank))
    return report

