"""Per-basis reference loops that the engine's stacked kernels are tested
against, written the plain way: one AlgebraData.mul product per basis
element.  symmetric_trace_space is criterion 5's brute-force solver for the
symmetric forms that satisfy the right reduction condition;
reference_cointegral_blocks and reference_cointegral_space are the full
stacked cointegral system and its solve.  opposite and check_nakayama are
constructions only the tests use: the opposite algebra, and the antipode
conjugation law of a cointegral."""

from quasihopf.algcore import AlgebraData, LinearForm
from quasihopf.exactmath import RowReducer, Scalar
from quasihopf.intcoint import side_algebra
from quasihopf.qha import QuasiHopfAlgebra, derive_UVu
from quasihopf.report import Check, check_every


def reference_sandwich(Hq, h, X=None, Y=None):
    """(X Delta(e_h)) Y on Hq, as an order-2 element; X or Y None stands for
    1 (x) 1."""
    A = Hq.alg
    mid = Hq.delta(A.basis(h))
    if X is not None:
        mid = A.mul(X, mid)
    if Y is not None:
        mid = A.mul(mid, Y)
    return mid


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


def reference_cointegral_blocks(Hq, gamma):
    """The stacked left-cointegral system on Hq, one block per basis h,

        (id (x) lam)(V Delta(h) U) - gamma(Phi_1) lam(h S(Phi_2)) Phi_3,

    each a list of rows over lam's coordinates, one per output coordinate."""
    A = Hq.alg
    zero = Scalar.zero(Hq.n)
    cap_u, cap_v, _ = derive_UVu(Hq, gamma.form)
    blocks = []
    for h in range(Hq.dim):
        rows = {}
        mid = reference_sandwich(Hq, h, cap_v, cap_u)
        for (x, y), c in mid.coeffs.items():
            rows.setdefault(x, {})[y] = c
        for (p1, p2, p3), c in Hq.coassociator.coeffs.items():
            weight = gamma.of(A.basis(p1)) * c
            row = rows.setdefault(p3, {})
            for (w,), d in A.mul(A.basis(h), Hq.S(A.basis(p2))).coeffs.items():
                row[w] = row.get(w, zero) - weight * d
        blocks.append([r for row in rows.values()
                       if (r := {k: v for k, v in row.items() if v})])
    return blocks


def reference_cointegral_space(Hq, gamma):
    """The canonical nullspace basis of the full stacked system, every
    block reduced, as dense Scalar tuples."""
    red = RowReducer(Hq.n, Hq.dim)
    for block in reference_cointegral_blocks(Hq, gamma):
        for row in block:
            red.add_row(row)
    return red.nullspace()


def opposite(H):
    """H with reversed multiplication."""
    table = {}
    for (i, j), cell in H.alg.table.items():
        table[(j, i)] = cell
    alg = AlgebraData(H.n, H.dim, H.alg.labels, H.alg.unit, table)
    return QuasiHopfAlgebra(
        alg, H.delta_images, H.counit,
        H.antipode_inv_images, H.antipode_images,
        H.coassociator_inv, H.coassociator,
        H.S_inv(H.beta), H.S_inv(H.alpha),
        pivotal=None)


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
    check_every(report, A.labels, "antipode conjugation",
                ((i, j) for i in range(H.dim) for j in range(H.dim)),
                lambda i, j: form.evaluate(A.mul(sa[i], e[j]))
                == form.evaluate(A.mul(e[j], shifted[i])))
    return report
