"""Integrals, the modulus, cointegrals, and symmetrised cointegrals.

A left integral is an element L with h L = eps(h) L for all h; the solution
space is the exact nullspace of the stacked operators (l_h - eps(h) id) over
all basis h.  It is solved by checking before reducing: in basis order, h's
block of rows joins the row reducer only when some vector of the current
solution space fails h L = eps(h) L exactly.  This is exact.  The final
space is the nullspace of a subset of the rows, so it contains the true
space; each skipped h holds exactly on the space at its turn, and later
rows only shrink that space, so it lies inside the true space too.  The
reduced row echelon form of a row space is unique, so the basis returned
is the canonical nullspace basis of the full system, element for element.
The modulus gamma is read off from L h = gamma(h) L and verified to be an
algebra morphism, gamma(e_i e_j) = gamma(e_i) gamma(e_j) on every basis
pair as one kernel product; gamma = eps characterises the unimodular case.
gamma depends only on the algebra and the counit, so it is computed once
per algebra and cached on it; the coopposite algebra has the same algebra
and counit, and the cointegral solver reuses H's modulus for H^cop.

A left cointegral is a form lam with

    (id (x) lam)(V Delta(h) U) = gamma(Phi_1) lam(h S(Phi_2)) Phi_3

for all h, where U = f^-1 (S (x) S)(q_r flipped) and
V = (S^-1 (x) S^-1)(f_21 p_r_21).  A right cointegral is a left cointegral
for the coopposite algebra.  The equation is linear in the dim(H) dual
coefficients of lam, one block of rows per basis h, and linear in h.  The
left integral L (kept with the modulus) gives the block at h = L, the sum
of the basis blocks weighted by L's coefficients; as L x = gamma(x) L, its
right-hand side is lam(L) (gamma (x) gamma S (x) id)(Phi).  It has dim(H)
rows, and on Z2, Z4, Sweedler's algebra and Q(N, beta) for N <= 3 its
nullspace is already the cointegral line.  Its rows are combinations of
the full system's rows, so its nullspace contains the full one.  The solve
is check-before-reduce, as for integrals, with the L-block reduced first:
every vector of the current nullspace is checked at every basis h at once
(lam contracted into the second leg of V Delta(h) U, against
lam(h S(Phi_2)) for every h, each two kernel products), and only the
block of a failing h joins the reducer.  The final space lies in the
nullspace of a subset of combinations of the full rows, so it contains the
full nullspace, and it satisfies every h, so it lies inside it.  The two
row spaces are therefore equal, and as the reduced row echelon form is
unique, the basis is the full system's canonical basis, element for
element.  It must come out exactly one-dimensional.

The symmetrised cointegrals are the shifts

    sym right = lam <- (u g),    sym left = lam <- (u_cop g^-1),

verified against their intrinsic characterisation

    (sym_r (x) id)(q_r Delta(h) p_r) = gamma(Phi_1) sym_r(Phi_2 h) g^-1 S(Phi_3)
    (id (x) sym_l)(q_l Delta(h) p_l) = gamma(Psi_3) sym_l(Psi_2 h) g S^-1(Psi_1)

for every basis h, which in the unimodular case collapse to

    sym_r(h) 1 = (sym_r (x) g)(q_r Delta(h) p_r)
    sym_l(h) 1 = (g^-1 (x) sym_l)(q_l Delta(h) p_l),

the reduction conditions of a right and a left modified trace.
check_symmetrised is their one implementation (modtrace runs it with
gamma = eps), and its verdict is memoized on H per side, gamma and form.

One path per one-sided pair.  H^cop has H's algebra and counit, pivot
g^-1, antipode S^-1, q_r(H^cop) = (q_l)_21 and p_r(H^cop) = (p_l)_21
(pinned by test_opposite_and_coopposite), so each left-side statement on H
is the right-side statement on H.coopposite(), and u_cop is u of H^cop.
cointegrals writes the left equation and solves the right side on H^cop;
symmetrise, check_symmetrised and check_twisted_symmetry write the right
side and run the left side on H^cop (side_algebra).  The modulus is H's
and is passed in, and report names and witnesses keep the side that was
asked for.
"""

from dataclasses import dataclass

from quasihopf.algcore import LinearForm, TensorElement
from quasihopf.exactmath import RowReducer, Scalar, SparseMatrix
from quasihopf.qha import QuasiHopfError, derive_UVu
from quasihopf.report import Check, check_every


class DimensionZero(QuasiHopfError):
    pass


class WrongSolutionDim(QuasiHopfError):
    pass


class InconsistentModulus(QuasiHopfError):
    pass


class VerificationFailed(QuasiHopfError):
    exit_code = 4


@dataclass
class IntegralSpace:
    side: str                    # 'left' or 'right'
    basis: list                  # TensorElements spanning the space


@dataclass
class Modulus:
    form: LinearForm
    integral: TensorElement = None   # the left integral gamma was read from

    def of(self, x):
        return self.form.evaluate(x)

    def is_counit(self, H):
        return self.form == H.counit


@dataclass
class CointegralResult:
    side: str
    form: LinearForm             # normalized cointegral
    normalization: Scalar        # factor applied to the raw RREF solution


def _all_pairs(dim):
    return ((i, j) for i in range(dim) for j in range(dim))


def side_algebra(H, side):
    """The algebra on which a right-side construction gives `side` of H:
    H itself for 'right', H.coopposite() for 'left'."""
    return H if side == "right" else H.coopposite()


def integrals(H, side="left"):
    """Exact basis of {L : h L = eps(h) L} (left) or {L : L h = eps(h) L}:
    the canonical nullspace basis of the stacked system, solved by checking
    before reducing (module docstring).  The space starts as all of H and
    is kept as sparse vectors, so a failing h usually costs one product."""
    A = H.alg
    dim = H.dim
    red = RowReducer(H.n, dim)
    space = [A.basis(a) for a in range(dim)]  # no rows yet: all of H
    for h in range(dim):
        e = A.basis(h)
        eh = H.eps(e)
        if all((A.mul(e, L) if side == "left" else A.mul(L, e))
               == L.scale(eh) for L in space):
            continue
        rows = {}
        for a in range(dim):
            pair = (h, a) if side == "left" else (a, h)
            cell = A.table.get(pair, {})
            for k, c in cell.items():
                rows.setdefault(k, {})[a] = c
            if eh:
                row = rows.setdefault(a, {})
                cur = row.get(a)
                row[a] = -eh if cur is None else cur - eh
        for row in rows.values():
            red.add_row(row)
        space = [TensorElement.wrap(H.n, 1, {(i,): c for i, c in v.items()})
                 for v in red.null_vectors()]
    if not space:
        raise DimensionZero(f"no nonzero {side} integral: input data is corrupt")
    return IntegralSpace(side, space)


def modulus(H, left_integral=None):
    """gamma with L h = gamma(h) L, verified multiplicative.

    Without an explicit integral the result, which keeps the left integral
    it was read from, is computed once and cached on H; a given integral is
    always verified afresh.
    """
    if left_integral is not None:
        return _modulus_from(H, left_integral)
    if H._modulus is None:
        H._modulus = _modulus_from(H, integrals(H, "left").basis[0])
    return H._modulus


def _modulus_from(H, L):
    A = H.alg
    ref_key, ref_val = min(L.coeffs.items())
    coeffs = {}
    for h in range(H.dim):
        prod = A.mul(L, A.basis(h))
        val = prod.coeffs.get(ref_key)
        g = Scalar.zero(H.n) if val is None else val / ref_val
        if prod != L.scale(g):
            raise InconsistentModulus(
                f"L h is not proportional to L at h = {A.labels[h]}")
        if g:
            coeffs[(h,)] = g
    form = LinearForm(H.n, 1, coeffs)
    if not form.evaluate(A.unit).is_one():
        raise InconsistentModulus("gamma(1) != 1")
    bad = _multiplicative_failure(A, form)
    mult = check_every(Check("modulus"), A.labels, "multiplicative",
                       [bad] if bad else [], lambda *_: False)
    if not mult.passed:
        raise InconsistentModulus(f"gamma not multiplicative at {mult.witness}")
    return Modulus(form, L)


def _multiplicative_failure(A, form):
    """The least basis pair (i, j), in row-major order, with form(e_i e_j)
    != form(e_i) form(e_j); None if there is none.  A pair can fail only
    where one side is nonzero, so only the pairs in the union of the two
    supports are compared."""
    dim = A.dim
    values = _values_on_products(A, form)
    products = {i * dim + j: vi * vj for (i,), vi in form.coeffs.items()
                for (j,), vj in form.coeffs.items()}
    bad = [ij for ij in values.keys() | products.keys()
           if values.get(ij) != products.get(ij)]
    return divmod(min(bad), dim) if bad else None


def _values_on_products(A, form):
    """{i * dim + j: form(e_i e_j)} on every basis pair where it is nonzero,
    as one kernel product: the table stacked with rows (i, j) and columns
    k, applied to the form's coordinates.  The product reads only the
    columns in the form's support, so only those are built."""
    dim = A.dim
    coords = {k: v for (k,), v in form.coeffs.items()}
    return SparseMatrix(A.n, dim * dim, dim, {
        (i * dim + j, k): c for (i, j), cell in A.table.items()
        for k, c in cell.items() if k in coords}).apply(coords)


class _LeftCointegralEquation:
    """The left-cointegral equation on Hq, at an element z of Hq:

        (id (x) lam)(V Delta(z) U) = sum_t w_t lam(z S(Phi_2)) Phi_3,

    with w_t = gamma(Phi_1) c_t over the terms c_t Phi_1 (x) Phi_2 (x) Phi_3
    of the coassociator.  At a basis element z = e_h it is h's block of the
    full system; it is linear in z."""

    def __init__(self, Hq, gamma):
        A = self.A = Hq.alg
        self.Hq = Hq
        self.cap_u, self.cap_v, _ = derive_UVu(Hq, gamma.form)
        # gamma(Phi_1) c, S(Phi_2) and Phi_3 of each coassociator term, once
        self.terms = [(w, Hq.S(A.basis(p2)), p3)
                      for (p1, p2, p3), c in Hq.coassociator.coeffs.items()
                      if (w := gamma.of(A.basis(p1)) * c)]
        # sum_t w_t Phi_3 (x) S(Phi_2), paired with lam(h S(Phi_2))
        self.tails = SparseMatrix(Hq.n, Hq.dim, Hq.dim)
        for w, s2, p3 in self.terms:
            for (j,), d in s2.coeffs.items():
                self.tails.add_to(p3, j, w * d)

    def rows(self, z):
        """The equation at z as rows over lam's coordinates, one per
        coordinate of the output; rows that vanish are left out."""
        A = self.A
        zero = Scalar.zero(A.n)
        rows = {}
        mid = A.mul(A.mul(self.cap_v, self.Hq.delta(z)), self.cap_u)
        for (x, y), c in mid.coeffs.items():
            rows.setdefault(x, {})[y] = c
        for w, s2, p3 in self.terms:
            row = rows.setdefault(p3, {})
            for (k,), d in A.mul(z, s2).coeffs.items():
                row[k] = row.get(k, zero) - w * d
        return [r for row in rows.values()
                if (r := {k: v for k, v in row.items() if v})]

    def first_failure(self, lam):
        """The least basis index h at which lam fails the equation, None if
        it holds at every h: both sides for every h at once, lam contracted
        into the second leg of V Delta(h) U (_leg_contracted) against
        _weighted_products."""
        lhs = _leg_contracted(self.Hq, lam, 1, self.cap_v, self.cap_u)
        rhs = _weighted_products(self.A, lam, self.tails, True)
        return _first_difference(lhs, rhs)


def _left_cointegral_space(Hq, gamma, first):
    """Canonical basis of the left cointegrals of Hq, as sparse {i: Scalar}
    dicts, solved by checking before reducing (module docstring): the
    blocks at the elements of `first` are reduced, then, while some vector
    of the space fails the equation, the block of its least failing basis
    element.  cointegrals passes the left integral as `first`."""
    eq = _LeftCointegralEquation(Hq, gamma)
    red = RowReducer(Hq.n, Hq.dim)
    for z in first:
        for row in eq.rows(z):
            red.add_row(row)
    while True:
        space = red.null_vectors()
        bad = next((h for v in space if (h := eq.first_failure(
            LinearForm(Hq.n, 1, {(i,): c for i, c in v.items()})))
            is not None), None)
        if bad is None:
            return space
        for row in eq.rows(Hq.alg.basis(bad)):
            red.add_row(row)


def cointegrals(H, side="right", pin=None):
    """Solve the cointegral system; the solution space must be 1-dimensional.

    Normalization: the first nonzero coefficient (dual-basis order) is scaled
    to match `pin` when a reference form is supplied, else to 1.  A pin with
    no coefficient there raises VerificationFailed.
    """
    H.require_pivotal()
    Hq = H.coopposite() if side == "right" else H
    gamma = modulus(H)  # H^cop has H's algebra and counit, hence H's modulus
    basis = _left_cointegral_space(Hq, gamma, [gamma.integral])
    if len(basis) != 1:
        raise WrongSolutionDim(
            f"{side} cointegral space has dimension {len(basis)}, expected 1")
    vec = basis[0]
    first = min(vec)
    if pin is not None:
        target = pin.coeffs.get((first,))
        if not target:
            raise VerificationFailed(
                f"reference cointegral has no coefficient at "
                f"{H.alg.labels[first]}, the first nonzero coordinate of "
                f"the {side} cointegral")
        scale = target / vec[first]
    else:
        scale = vec[first].inverse()
    form = LinearForm(H.n, 1, {(i,): c * scale for i, c in vec.items()})
    return CointegralResult(side, form, scale)


def symmetrise(H, result):
    """Shift a cointegral by u g (right) or u_cop g^-1 (left) and verify.

    The shift is u g of side_algebra(H, result.side).  Returns the form once
    check_symmetrised has proven it (the proof is memoized on H); raises
    VerificationFailed with the offending basis element if the
    characterisation does not hold.
    """
    Hq = side_algebra(H, result.side)
    p = Hq.require_pivotal()
    A = H.alg
    gamma = modulus(H)
    _, _, u = derive_UVu(Hq, gamma.form)
    shift = A.mul(u, p.pivot)
    sym = LinearForm(H.n, 1, {
        (a,): v for a in range(H.dim)
        if (v := result.form.evaluate(A.mul(shift, A.basis(a))))})
    rep = check_symmetrised(H, sym, gamma, result.side)
    if not rep.passed:
        bad = rep.all_failures()[0]
        raise VerificationFailed(
            f"symmetrised {result.side} cointegral fails at {bad.witness}")
    return sym


def check_symmetrised(H, sym, gamma, side):
    """The intrinsic characterisation of a symmetrised cointegral, per basis:
    the right-side identity on side_algebra(H, side).  With gamma = eps it
    is the closed-form reduction condition, as (eps (x) id (x) id)(Phi) =
    1 (x) 1 and S(1) = 1 follow from the axioms check_axioms proves.

    Both sides are computed for every h at once: sym is contracted into
    the first leg of q_r Delta(h) p_r before anything is multiplied
    (_leg_contracted), and sym(Phi_2 h) for every h and coassociator term
    is read from the table (_weighted_products); each is two kernel
    products.

    The first failing basis label (None on success) is memoized on H by
    side and by snapshots of gamma's and sym's coefficients, so a form
    changed after its proof is checked again.
    """
    key = (side, frozenset(gamma.form.coeffs.items()),
           frozenset(sym.coeffs.items()))
    report = Check(f"symmetrised-{side}-cointegral")
    if key in H._symmetrised:
        bad = H._symmetrised[key]
        report.check("characterisation", bad is None, witness=bad)
        return report
    Hq = side_algebra(H, side)
    A = H.alg
    p = Hq.require_pivotal()
    ce = Hq.canonical_elements()
    lhs = _leg_contracted(Hq, sym, 0, ce.q_r, ce.p_r)
    # sum_t gamma(Phi_1) c_t g^-1 S(Phi_3) (x) Phi_2, paired with sym(Phi_2 h)
    tails = SparseMatrix(H.n, H.dim, H.dim)
    for (p1, p2, p3), c in Hq.coassociator.coeffs.items():
        if w := gamma.of(A.basis(p1)) * c:
            tail = A.mul(p.pivot_inv, Hq.S(A.basis(p3)))
            for (k,), d in tail.coeffs.items():
                tails.add_to(k, p2, w * d)
    bad = _first_difference(lhs, _weighted_products(A, sym, tails, False))
    entry = check_every(report, A.labels, "characterisation",
                        [] if bad is None else [(bad,)], lambda *_: False)
    H._symmetrised[key] = entry.witness
    return report


def _first_difference(lhs, rhs):
    """The least h whose coordinates differ between two {h: {(k,): Scalar}}
    dicts that leave out zero values; None if they are equal."""
    return min((h for h in lhs.keys() | rhs.keys()
                if lhs.get(h) != rhs.get(h)), default=None)


def _weighted_products(A, form, C, h_first):
    """{h: coordinates of sum_(k, j) C[k, j] form(e_h e_j) e_k} for every
    basis h, or with form(e_j e_h) when not h_first; an h whose value is
    zero has no entry.  Two kernel products: the table cells of (h, j) for
    every column j of C, stacked with rows (j, h) and columns k, applied to
    the form's coordinates (as in _values_on_products), then C times that."""
    n, dim = A.n, A.dim
    coords = {k: v for (k,), v in form.coeffs.items()}
    values = SparseMatrix(n, dim * dim, dim, {
        (j * dim + h, k): c for j in {j for _, j in C.entries}
        for h in range(dim)
        for k, c in A.table.get((h, j) if h_first else (j, h), {}).items()
        if k in coords}).apply(coords)
    out = {}
    for (k, h), v in (C @ SparseMatrix(n, dim, dim, {
            divmod(jh, dim): v for jh, v in values.items()})).entries.items():
        out.setdefault(h, {})[(k,)] = v
    return out


def _leg_contracted(Hq, form, leg, X, Y):
    """{h: coordinates of (form (x) id)(X Delta(e_h) Y)} on Hq (leg 0), or
    of (id (x) form)(X Delta(e_h) Y) (leg 1), for every basis h at once; an
    h whose value is zero has no entry.  Apart from algcore.sandwiches: the
    form goes in first, so this never builds dim^2 x dim.

    The sandwich is linear in each leg: with X = sum c_x x1 (x) x2,
    Y = sum c_y y1 (x) y2 and Delta(h) = sum D(h)_ab e_a (x) e_b, and for
    leg 0,

        (form (x) id)(X Delta(h) Y)
            = sum_(x2, y2) x2 [sum_ab D(h)_ab s_(x2, y2)(a) e_b] y2,
        s_(x2, y2)(a) = sum c_x c_y form(x1 e_a y1)

    over the terms with those second legs; for leg 1 the roles of the legs
    swap.  form(x1 e_a y1) is read from the table as
    sum_k T[x1, a][k] form(e_k e_y1).  That is two kernel products:
    (rows (b, h), columns a) @ (rows a, columns (x2, y2)), re-keyed to rows
    ((x2, y2), b) and columns h, then (rows k, columns ((x2, y2), b): the
    coordinates of x2 e_b y2) @ that; column h of the result is the value
    at h."""
    A = Hq.alg
    n, dim = Hq.n, Hq.dim
    keep = 1 - leg
    pairs = {P: j for j, P in enumerate(dict.fromkeys(
        (kx[keep], ky[keep]) for kx in X.coeffs for ky in Y.coeffs))}
    # x -> form(x e_y1) per contracted leg y1, then form(x1 e_a y1) for all a
    after = {y1: LinearForm(n, 1, {(k,): A.form_on_product(form, k, y1)
                                   for k in range(dim)})
             for y1 in dict.fromkeys(ky[leg] for ky in Y.coeffs)}
    values = {(x1, y1): [A.form_on_product(f, x1, a) for a in range(dim)]
              for x1 in dict.fromkeys(kx[leg] for kx in X.coeffs)
              for y1, f in after.items()}
    s = SparseMatrix(n, dim, len(pairs))
    for kx, cx in X.coeffs.items():
        for ky, cy in Y.coeffs.items():
            j = pairs[kx[keep], ky[keep]]
            for a, v in enumerate(values[kx[leg], ky[leg]]):
                if v:
                    s.add_to(a, j, cx * cy * v)
    firsts = SparseMatrix(n, dim * dim, dim, {
        (ab[keep] * dim + h, ab[leg]): c for h, d in enumerate(Hq.delta_images)
        for ab, c in d.coeffs.items()}) @ s
    stack = SparseMatrix(n, dim, len(pairs) * dim)
    for (x2, y2), j in pairs.items():
        for b in range(dim):
            for m, c in A.table.get((x2, b), {}).items():
                for k, d in A.table.get((m, y2), {}).items():
                    stack.add_to(k, j * dim + b, c * d)
    out = {}
    for (k, h), v in (stack @ SparseMatrix(n, len(pairs) * dim, dim, {
            (j * dim + bh // dim, bh % dim): v
            for (bh, j), v in firsts.entries.items()})).entries.items():
        out.setdefault(h, {})[(k,)] = v
    return out


def gram_matrix_rank(H, form):
    """Exact rank of the matrix form(e_i e_j)."""
    A = H.alg
    red = RowReducer(H.n, H.dim)
    for i in range(H.dim):
        row = {j: v for j in range(H.dim)
               if (v := A.form_on_product(form, i, j))}
        if row:
            red.add_row(row)
    return red.rank


def check_form_properties(H, form, gamma):
    """Gram rank, symmetry (with the first failing basis pair), and whether
    gamma is the counit.  Failures are report entries."""
    report = Check("form-properties")
    report.check("gram rank", True, value=str(gram_matrix_rank(H, form)))
    check_symmetric(report, H, form)
    report.check("gamma = eps", gamma.is_counit(H))
    return report


def check_symmetric(report, H, form):
    """Add the entry "symmetric", form(e_i e_j) = form(e_j e_i) on every
    basis pair i < j, to report and return it.

    form(e_i e_j) for every pair is one kernel product
    (_values_on_products).  A pair fails when its two values differ, and
    the witness is the least failing (i, j), as in a scan over i < j.
    """
    A = H.alg
    dim = H.dim
    values = _values_on_products(A, form)
    bad = [tuple(sorted(divmod(ij, dim))) for ij, v in values.items()
           if values.get(ij % dim * dim + ij // dim) != v]
    return check_every(report, A.labels, "symmetric", sorted(bad)[:1],
                       lambda *_: False)


def check_twisted_symmetry(H, sym, gamma, side):
    """sym_l(ab) = sym_l((gamma -> b) a) resp. sym_r(ab) = sym_r((b <- gamma) a),
    exhaustively over basis pairs; checked as the right identity on
    side_algebra(H, side)."""
    Hq = side_algebra(H, side)
    A = H.alg
    report = Check(f"twisted-symmetry-{side}")
    shifted = [Hq.hit_elem_left(A.basis(j), gamma.form) for j in range(H.dim)]
    check_every(report, A.labels, "twisted symmetry", _all_pairs(H.dim),
                lambda i, j: A.form_on_product(sym, i, j)
                == sym.evaluate(A.mul(shifted[j], A.basis(i))))
    return report
