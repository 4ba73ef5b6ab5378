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
for the coopposite algebra.  Both are solved as one stacked sparse linear
system in the dim(H) dual coefficients, with V Delta(h) U for every basis h
from one algcore.sandwiches matrix; the solution space must come out
exactly one-dimensional.

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
cointegrals writes the left system and solves the right side on H^cop;
symmetrise, check_symmetrised, check_nakayama and check_twisted_symmetry
write the right side and run the left side on H^cop (side_algebra).  The
modulus is H's and is passed in, and report names and witnesses keep the
side that was asked for.
"""

from dataclasses import dataclass

from quasihopf.algcore import LinearForm, TensorElement, sandwiches
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

    Without an explicit integral the result is computed once and cached on
    H; a given integral is always verified afresh.
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
    return Modulus(form)


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


def _left_cointegral_rows(H, gamma):
    """Rows of the stacked left-cointegral system, one block per basis h."""
    A = H.alg
    dim = H.dim
    zero = Scalar.zero(H.n)
    cap_u, cap_v, _ = derive_UVu(H, gamma.form)
    # gamma(Phi_1) c, S(Phi_2) and Phi_3 of each coassociator term, once
    terms = [(weight, H.S(A.basis(p2)), p3)
             for (p1, p2, p3), c in H.coassociator.coeffs.items()
             if (weight := gamma.of(A.basis(p1)) * c)]
    blocks = {}
    for (xy, h), c in sandwiches(A, H.delta_images, cap_v, cap_u).entries.items():
        blocks.setdefault(h, {}).setdefault(xy // dim, {})[xy % dim] = c
    for h in range(dim):
        rows = blocks.get(h, {})
        for weight, s2, p3 in terms:
            row = rows.setdefault(p3, {})
            for (w,), d in A.mul(A.basis(h), s2).coeffs.items():
                row[w] = row.get(w, zero) - weight * d
        yield from filter(None, ({k: v for k, v in row.items() if v}
                                 for row in rows.values()))


def cointegrals(H, side="right", pin=None):
    """Solve the cointegral system; the solution space must be 1-dimensional.

    Normalization: the first nonzero coefficient (dual-basis order) is scaled
    to match `pin` when a reference form is supplied, else to 1.
    """
    H.require_pivotal()
    Hq = H.coopposite() if side == "right" else H
    gamma = modulus(H)  # H^cop has H's algebra and counit, hence H's modulus
    red = RowReducer(H.n, H.dim)
    for row in _left_cointegral_rows(Hq, gamma):
        red.add_row(row)
    basis = red.nullspace()
    if len(basis) != 1:
        raise WrongSolutionDim(
            f"{side} cointegral space has dimension {len(basis)}, expected 1")
    vec = basis[0]
    first = next(i for i, c in enumerate(vec) if c)
    scale = Scalar.one(H.n)
    if pin is not None:
        target = pin.coeffs.get((first,))
        if target:
            scale = target / vec[first]
    else:
        scale = vec[first].inverse()
    form = LinearForm(H.n, 1, {(i,): c * scale
                               for i, c in enumerate(vec) if c})
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

    The left-hand side is linear in each leg, so sym is contracted into the
    first leg before anything is multiplied: with q_r = sum c_q q1 (x) q2,
    p_r = sum c_p p1 (x) p2 and Delta(h) = sum D(h)_ab e_a (x) e_b,

        (sym (x) id)(q_r Delta(h) p_r)
            = sum_(q2, p2) q2 [sum_ab D(h)_ab s_(q2, p2)(a) e_b] p2,
        s_(q2, p2)(a) = sum c_q c_p sym(q1 e_a p1)

    over the terms with those second legs, and sym(q1 e_a p1) is read from
    the table as sum_k T[q1, a][k] sym(e_k e_p1).  That is two kernel
    products for every h at once: (rows (b, h), columns a) @ (rows a,
    columns (q2, p2)), re-keyed to rows ((q2, p2), b) and columns h, then
    (rows k, columns ((q2, p2), b): the coordinates of q2 e_b p2) @ that;
    column h of the result is the left-hand side at h.

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
    lhs = _first_leg_contracted(Hq, sym)
    # gamma(Phi_1) Phi_2 (x) g^-1 S(Phi_3), with the third leg precomputed
    terms = [(w, p2, p3) for (p1, p2, p3), c in Hq.coassociator.coeffs.items()
             if (w := gamma.of(A.basis(p1)) * c)]
    tails = {p3: A.mul(p.pivot_inv, Hq.S(A.basis(p3))) for _, _, p3 in terms}

    def holds(h):
        rhs = TensorElement(H.n, 1)
        for w, p2, p3 in terms:
            v = w * A.form_on_product(sym, p2, h)
            if v:
                rhs = rhs + tails[p3].scale(v)
        return TensorElement.wrap(H.n, 1, lhs.get(h, {})) == rhs

    entry = check_every(report, A.labels, "characterisation",
                        [(h,) for h in range(H.dim)], holds)
    H._symmetrised[key] = entry.witness
    return report


def _first_leg_contracted(Hq, sym):
    """{h: coordinates of (sym (x) id)(q_r Delta(e_h) p_r)} on Hq, for every
    basis h at once, as the two kernel products check_symmetrised describes;
    an h whose value is zero has no entry.  Apart from algcore.sandwiches:
    sym goes in first, so this hot step of a trace never builds dim^2 x dim."""
    A = Hq.alg
    n, dim = Hq.n, Hq.dim
    ce = Hq.canonical_elements()
    pairs = {P: j for j, P in enumerate(dict.fromkeys(
        (q2, p2) for _, q2 in ce.q_r.coeffs for _, p2 in ce.p_r.coeffs))}
    # x -> sym(x e_p1) per first leg p1, then sym(q1 e_a p1) for every a
    after = {p1: LinearForm(n, 1, {(k,): A.form_on_product(sym, k, p1)
                                   for k in range(dim)})
             for p1 in dict.fromkeys(p1 for p1, _ in ce.p_r.coeffs)}
    values = {(q1, p1): [A.form_on_product(f, q1, a) for a in range(dim)]
              for q1 in dict.fromkeys(q1 for q1, _ in ce.q_r.coeffs)
              for p1, f in after.items()}
    s = SparseMatrix(n, dim, len(pairs))
    for (q1, q2), cq in ce.q_r.coeffs.items():
        for (p1, p2), cp in ce.p_r.coeffs.items():
            for a, v in enumerate(values[q1, p1]):
                if v:
                    s.add_to(a, pairs[q2, p2], cq * cp * v)
    firsts = SparseMatrix(n, dim * dim, dim, {
        (b * dim + h, a): c for h, d in enumerate(Hq.delta_images)
        for (a, b), c in d.coeffs.items()}) @ s
    stack = SparseMatrix(n, dim, len(pairs) * dim, {
        (k, j * dim + b): c for (q2, p2), j in pairs.items()
        for b in range(dim) for (k,), c in A.mul(
            A.mul(A.basis(q2), A.basis(b)), A.basis(p2)).coeffs.items()})
    lhs = {}
    for (k, h), v in (stack @ SparseMatrix(n, len(pairs) * dim, dim, {
            (j * dim + bh // dim, bh % dim): v
            for (bh, j), v in firsts.entries.items()})).entries.items():
        lhs.setdefault(h, {})[(k,)] = v
    return lhs


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


def check_nakayama(H, form, gamma, side):
    """Antipode conjugation law for cointegrals, exhaustively over pairs:

        left:  lam(S^-1(a) b) = lam(b S(a <- gamma))
        right: lam(S(a) b)    = lam(b S^-1(gamma -> a))

    checked as the right law on side_algebra(H, side).
    """
    Hq = side_algebra(H, side)
    A = H.alg
    report = Check(f"nakayama-{side}")
    e = [A.basis(i) for i in range(H.dim)]
    sa = [Hq.S(a) for a in e]
    shifted = [Hq.S_inv(Hq.hit_elem_right(gamma.form, a)) for a in e]
    check_every(report, A.labels, "antipode conjugation", _all_pairs(H.dim),
                lambda i, j: form.evaluate(A.mul(sa[i], e[j]))
                == form.evaluate(A.mul(e[j], shifted[i])))
    return report
