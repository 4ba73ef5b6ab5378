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
  * the Hom-pairing non-degeneracy check, and
  * a brute-force solver for the space of symmetric forms satisfying the
    reduction condition, used to cross-validate the cointegral solver.
"""

from dataclasses import dataclass, field

from quasihopf.algcore import LinearForm, TensorElement
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
    """

    def __init__(self, H, t_form):
        self.H = H
        self.A = H.alg
        self.t = t_form
        self.ce = H.canonical_elements()
        self.p = H.require_pivotal()
        A = self.A
        dim = H.dim
        self._sandwich_col = {}
        self._t_shifts = {}

        # the composite A -> (Cd C)A -> Cd(C A) applied to 1, with C = H
        # regular: v1 keys (d, c, a)
        v1 = {}
        psi = H.coassociator_inv
        sbeta = A.left_mult_matrix(H.S(H.beta))
        ginv = A.left_mult_matrix(self.p.pivot_inv)
        coevr = {}
        # coevR(1) = sum_{i,j} (S(beta) e_j)_i  e^j (x) g^-1 e_i
        sb_by = _rows_by_output(sbeta)
        for i in range(dim):
            gcol = ginv.apply({i: Scalar.one(H.n)})
            for j, cb in sb_by.get(i, []):
                for k, cg in gcol.items():
                    key = (j, k)
                    cur = coevr.get(key)
                    coevr[key] = cb * cg if cur is None else cur + cb * cg
        for (P, Q, R), cpsi in psi.coeffs.items():
            rows = _rows_by_output(A.left_mult_matrix(H.S(A.basis(P))))
            rleg = A.mul(A.basis(R), A.unit)
            for (j, k), cc in coevr.items():
                dlegs = rows.get(j)
                if not dlegs or not cc:
                    continue
                ccell = A.mul(A.basis(Q), A.basis(k))
                for (kc2,), c2 in ccell.coeffs.items():
                    for (ka,), ca in rleg.coeffs.items():
                        w = cpsi * cc * c2 * ca
                        for k2, cv in dlegs:
                            key = (k2, kc2, ka)
                            cur = v1.get(key)
                            v1[key] = w * cv if cur is None else cur + w * cv
        # apply the inverse straightening on the (C, A) legs once
        self.v1s = self._apply_sandwich_legs(v1)
        # POST data: per coassociator term, the weight vector t(e_R e_b)
        # and the element S(e_P) alpha e_Q
        self.post_terms = []
        for (P, Q, R), k in H.coassociator.coeffs.items():
            z = A.mul_many(H.S(A.basis(P)), H.alpha, A.basis(Q))
            tvec = {}
            for b in range(dim):
                val = self.t.evaluate(A.mul(A.basis(R), A.basis(b)))
                if val:
                    tvec[b] = val
            if tvec:
                self.post_terms.append((k, tvec, z))
        # the tail of the composite (outgoing straightening map, inverse
        # associator, pivotal evaluation, t), folded: Z_u = sum k tvec[u] z
        # and Y_x = sum c Z_u e_w over the terms (w, u) of Delta(e_x) p_l
        zs = {}
        for k, tvec, z in self.post_terms:
            for u, tv in tvec.items():
                zs[u] = zs[u] + z.scale(k * tv) if u in zs else z.scale(k * tv)
        y_rows = {}   # rows of left multiplication by Y_x, keyed by d
        for x in range(dim):
            y = TensorElement(H.n, 1)
            mid = A.mul(H.delta(A.basis(x)), self.ce.p_l)
            for (w, u), c in mid.coeffs.items():
                if u in zs:
                    y = y + A.mul(zs[u], A.basis(w)).scale(c)
            if y:
                y_rows[x] = _rows_by_output(A.left_mult_matrix(y))
        # the composite with the map m left open:
        # tails[x][x2][(r2, r)] = sum_d v1s[(x, r, d)] (Y_x2 e_r2)_d
        self._tails = {}
        for (x, r, d), val in self.v1s.items():
            for x2, rows in y_rows.items():
                mat = self._tails.setdefault(x, {}).setdefault(x2, {})
                for r2, pv in rows.get(d, ()):
                    cur = mat.get((r2, r))
                    mat[(r2, r)] = val * pv if cur is None else cur + val * pv

    def _sandwich(self, a, c):
        """One column of the inverse straightening psi_l(e_c (x) e_a), with
        keys (W-leg, H-leg) stored as (H-leg, W-leg)."""
        key = (a, c)
        col = self._sandwich_col.get(key)
        if col is not None:
            return col
        A, H = self.A, self.H
        col = {}
        mid = A.mul(self.ce.q_l, H.delta(A.basis(a)))
        for (x1, x2), cm in mid.coeffs.items():
            s_act = A.mul(H.S_inv(A.basis(x1)), A.basis(c))
            for (r,), cv in s_act.coeffs.items():
                k2 = (x2, r)
                cur = col.get(k2)
                col[k2] = cm * cv if cur is None else cur + cm * cv
        col = {k: v for k, v in col.items() if v}
        self._sandwich_col[key] = col
        return col

    def _apply_sandwich_legs(self, v1):
        out = {}
        for (d, c, a), val in v1.items():
            for (x, r), cv in self._sandwich(a, c).items():
                key = (x, r, d)
                cur = out.get(key)
                out[key] = val * cv if cur is None else cur + val * cv
        return {k: v for k, v in out.items() if v}

    def rhs_matrix(self, a_elem):
        """The coefficient matrix of the composite side at a, the sum of
        (e_x a)_x2 tails[x][x2]: entry (r2, r) is the sum over (x, r, d) in
        v1s of val sum_x2 (e_x a)_x2 (Y_x2 e_r2)_d.

        Stage by stage the tail gives sum c (Z_u (e_w e_r2))_d there; that
        Z_u (e_w e_y) = (Z_u e_w) e_y is associativity, which check_axioms
        proves.
        """
        A, n, dim = self.A, self.H.n, self.H.dim
        out = {}
        for x, tails in self._tails.items():
            for (x2,), c in A.mul(A.basis(x), a_elem).coeffs.items():
                for key, v in tails.get(x2, {}).items():
                    cur = out.get(key)
                    out[key] = c * v if cur is None else cur + c * v
        return SparseMatrix(n, dim, dim, {k: v for k, v in out.items() if v})

    def lhs_matrix(self, a_elem):
        """The coefficient matrix of the presentation side at a: the
        presentation sum folded into trace-of-operator form is the transpose
        of left multiplication by an element e(a)."""
        A, H = self.A, self.H
        e_parts = TensorElement(H.n, 1)
        mid = A.mul(H.delta(a_elem), self.ce.p_l)
        for (x, y), c in mid.coeffs.items():
            t_shift = self._t_shift(y)
            if t_shift is not None:
                e_parts = e_parts + A.mul(t_shift, A.basis(x)).scale(c)
        return A.left_mult_matrix(e_parts).transpose()

    def _t_shift(self, y):
        """sum t(m_2) S^-1(m_1) over the terms m of q_l Delta(e_y), or None
        when it is zero; cached per basis y."""
        cache = self._t_shifts
        if y not in cache:
            A, H = self.A, self.H
            acc = TensorElement(H.n, 1)
            mid = A.mul(self.ce.q_l, H.delta(A.basis(y)))
            for (y1, y2), c in mid.coeffs.items():
                tv = self.t.coeffs.get((y2,))
                if tv is not None:
                    acc = acc + H.S_inv(A.basis(y1)).scale(c * tv)
            cache[y] = acc if acc else None
        return cache[y]


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
    keys = [repr(sorted(x.coeffs)) for x in e]
    for side in sides:
        c = report.add(Check(side))
        closed = check_symmetrised(H, tr.form, eps, side)
        c.check("closed-form condition", closed.passed,
                witness=closed.find("characterisation").witness)
        checker = ReductionChecker(
            H.coopposite() if side == "right" else H, tr.form)
        check_every(c, keys,
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


def symmetric_trace_space(H):
    """Brute-force the symmetric forms satisfying the right reduction
    condition, as a linear system over the dim(H) coefficients of t."""
    A = H.alg
    dim = H.dim
    ce = H.canonical_elements()
    p = H.require_pivotal()
    red = RowReducer(H.n, dim)
    for i in range(dim):
        for j in range(i + 1, dim):
            row = {}
            for (k,), c in A.mul(A.basis(i), A.basis(j)).coeffs.items():
                cur = row.get(k)
                row[k] = c if cur is None else cur + c
            for (k,), c in A.mul(A.basis(j), A.basis(i)).coeffs.items():
                cur = row.get(k)
                row[k] = -c if cur is None else cur - c
            row = {k: v for k, v in row.items() if v}
            if row:
                red.add_row(row)
    unit_coords = {i: c for (i,), c in A.unit.coeffs.items()}
    for a in range(dim):
        mid = A.mul(A.mul(ce.q_r, H.delta(A.basis(a))), ce.p_r)
        rows = {}
        for (x, y), c in mid.coeffs.items():
            gy = A.mul(p.pivot, A.basis(y))
            for (r,), cg in gy.coeffs.items():
                row = rows.setdefault(r, {})
                cur = row.get(x)
                row[x] = c * cg if cur is None else cur + c * cg
        for r, uc in unit_coords.items():
            row = rows.setdefault(r, {})
            cur = row.get(a)
            row[a] = -uc if cur is None else cur - uc
        for row in rows.values():
            row = {k: v for k, v in row.items() if v}
            if row:
                red.add_row(row)
    return [LinearForm(H.n, 1, {(i,): c for i, c in enumerate(vec) if c})
            for vec in red.nullspace()]


def _rows_by_output(matrix):
    rows = {}
    for (r, c), v in matrix.entries.items():
        rows.setdefault(r, []).append((c, v))
    return rows
