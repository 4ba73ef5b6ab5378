"""Quasi-Hopf algebra bundles: axiom verification and canonical elements.

A QuasiHopfAlgebra packages an AlgebraData with coproduct, counit, antipode
(and inverse), the coassociator Phi with inverse Psi, the evaluation and
coevaluation elements alpha and beta, and optionally pivotal data (pivot g
and Drinfeld twist f with inverse).

Conventions.  The coproduct is quasi-coassociative with the coassociator on
the right of the doubled leg:

    (Delta (x) id)(Delta(h)) . Phi = Phi . (id (x) Delta)(Delta(h)),

the pentagon and the zig-zag equations below are the unique orientations
compatible with that choice (they are verified against the shipped
symplectic-fermion fixtures, which are the nontrivial test of the
convention).  The Drinfeld twist is required input for pivotal data and is
verified, never derived.

Everything is immutable after construction; checks are pure, exhaustive
and deterministic.
"""

from array import array
from dataclasses import dataclass
from functools import lru_cache

from quasihopf.algcore import (
    TensorElement,
    apply_images_leg,
    flip,
    hit_elem_left,
    hit_elem_right,
    sandwiches,
)
from quasihopf.exactmath import RowReducer, Scalar, SparseMatrix, solve_unique
from quasihopf.report import Check, check_every


class QuasiHopfError(ValueError):
    """A failed axiom, precondition or verification of the engine.

    exit_code is the command line's exit status for it: 2 for a bad
    setting, 3 for an axiom or precondition failure, 4 for a verification
    failure.
    """

    exit_code = 3


class AxiomViolation(QuasiHopfError):
    pass


class MissingPivotalData(QuasiHopfError):
    pass


@dataclass(frozen=True)
class PivotalData:
    pivot: TensorElement
    pivot_inv: TensorElement
    twist: TensorElement
    twist_inv: TensorElement


class QuasiHopfAlgebra:

    def __init__(self, alg, delta, counit, antipode, antipode_inv,
                 coassociator, coassociator_inv, alpha, beta, pivotal=None):
        self.alg = alg
        self.delta_images = list(delta)          # per basis, order 2
        self.counit = counit                     # LinearForm, order 1
        self.antipode_images = list(antipode)    # per basis, order 1
        self.antipode_inv_images = list(antipode_inv)
        self.coassociator = coassociator         # Phi, order 3
        self.coassociator_inv = coassociator_inv  # Psi, order 3
        self.alpha = alpha
        self.beta = beta
        self.pivotal = pivotal
        self._canonical = None
        self._coopposite = None
        self._modulus = None                     # set by intcoint.modulus
        self._symmetrised = {}                   # check_symmetrised verdicts

    # -- conveniences -------------------------------------------------------

    @property
    def n(self):
        return self.alg.n

    @property
    def dim(self):
        return self.alg.dim

    def one(self):
        return self.alg.unit

    def basis(self, i):
        return self.alg.basis(i)

    def mul(self, *xs):
        return self.alg.mul_many(*xs)

    def delta(self, x):
        return apply_images_leg(self.delta_images, x, 0)

    def delta_leg(self, x, leg):
        return apply_images_leg(self.delta_images, x, leg)

    def S(self, x):
        return apply_images_leg(self.antipode_images, x, 0)

    def S_inv(self, x):
        return apply_images_leg(self.antipode_inv_images, x, 0)

    def S_leg(self, x, leg):
        return apply_images_leg(self.antipode_images, x, leg)

    def S_inv_leg(self, x, leg):
        return apply_images_leg(self.antipode_inv_images, x, leg)

    def eps(self, x):
        return self.counit.evaluate(x)

    def eps_leg(self, x, leg):
        return self.counit.contract(x, (leg,))

    def require_pivotal(self):
        if self.pivotal is None:
            raise MissingPivotalData("this operation needs a pivot and Drinfeld twist")
        return self.pivotal

    def invert_element(self, x):
        sol = solve_unique(self.alg.left_mult_matrix(x),
                           {i: c for (i,), c in self.alg.unit.coeffs.items()})
        return TensorElement(self.n, 1, {(i,): c for i, c in sol.items()})

    # hook actions on elements, with the coproduct filled in
    def hit_elem_right(self, f, h):
        return hit_elem_right(self.alg, self.delta_images, f, h)

    def hit_elem_left(self, h, f):
        return hit_elem_left(self.alg, self.delta_images, h, f)

    # -- coopposite --------------------------------------------------------

    def coopposite(self):
        """Same algebra with reversed comultiplication, built once."""
        if self._coopposite is not None:
            return self._coopposite
        delta = [flip(d, (2, 1)) for d in self.delta_images]
        phi = flip(self.coassociator_inv, (3, 2, 1))
        psi = flip(self.coassociator, (3, 2, 1))
        pivotal = None
        if self.pivotal is not None:
            p = self.pivotal
            s2 = lambda x: self.S_inv_leg(self.S_inv_leg(x, 0), 1)
            pivotal = PivotalData(
                pivot=p.pivot_inv, pivot_inv=p.pivot,
                twist=s2(p.twist), twist_inv=s2(p.twist_inv))
        cop = QuasiHopfAlgebra(
            self.alg, delta, self.counit,
            self.antipode_inv_images, self.antipode_images,
            phi, psi,
            self.S_inv(self.alpha), self.S_inv(self.beta),
            pivotal=pivotal)
        self._coopposite = cop
        return cop

    # -- canonical elements --------------------------------------------------

    def canonical_elements(self):
        if self._canonical is None:
            self._canonical = derive_qp(self)
        return self._canonical


@dataclass
class CanonicalElements:
    q_r: TensorElement
    p_r: TensorElement
    q_l: TensorElement
    p_l: TensorElement
    report: Check


def derive_qp(H):
    """The four canonical elements built from Phi, Psi, alpha, beta, S.

        q_r = Psi_1 (x) S^-1(alpha Psi_3) Psi_2
        p_r = Phi_1 (x) Phi_2 beta S(Phi_3)
        q_l = S(Phi_1) alpha Phi_2 (x) Phi_3
        p_l = Psi_2 S^-1(Psi_1 beta) (x) Psi_3

    The four unit identities they satisfy are checked exactly and a
    failure raises AxiomViolation (it signals inconsistent input data).
    The two per-basis identities moving Delta through q_r and p_r follow
    from the axioms and are not checked here.
    """
    A = H.alg
    one = Scalar.one(H.n)

    def build(tensor3, legmap):
        out = TensorElement(H.n, 2)
        for (a, b, c), coef in tensor3.items_sorted():
            out = out + legmap(a, b, c).scale(coef)
        return out

    q_r = build(H.coassociator_inv, lambda a, b, c: TensorElement.wrap(
        H.n, 1, {(a,): one}).tensor(
            A.mul(H.S_inv(A.mul(H.alpha, A.basis(c))), A.basis(b))))
    p_r = build(H.coassociator, lambda a, b, c: A.basis(a).tensor(
        A.mul_many(A.basis(b), H.beta, H.S(A.basis(c)))))
    q_l = build(H.coassociator, lambda a, b, c: A.mul_many(
        H.S(A.basis(a)), H.alpha, A.basis(b)).tensor(A.basis(c)))
    p_l = build(H.coassociator_inv, lambda a, b, c: A.mul(
        A.basis(b), H.S_inv(A.mul(A.basis(a), H.beta))).tensor(A.basis(c)))

    report = Check("canonical-elements")
    unit2 = H.alg.unit_tensor(2)

    def pair_sum(x, mapper):
        acc = TensorElement(H.n, 2)
        for (a, b), coef in x.coeffs.items():
            acc = acc + mapper(A.basis(a), A.basis(b)).scale(coef)
        return acc

    checks = [
        ("q_r/p_r unit identity", pair_sum(
            q_r, lambda x, y: A.mul(A.mul(H.delta(x), p_r),
                                    H.one().tensor(H.S(y))))),
        ("p_r/q_r unit identity", pair_sum(
            p_r, lambda x, y: A.mul(A.mul(H.one().tensor(H.S_inv(y)), q_r),
                                    H.delta(x)))),
        ("q_l/p_l unit identity", pair_sum(
            q_l, lambda x, y: A.mul(A.mul(H.delta(y), p_l),
                                    H.S_inv(x).tensor(H.one())))),
        ("p_l/q_l unit identity", pair_sum(
            p_l, lambda x, y: A.mul(A.mul(H.S(x).tensor(H.one()), q_l),
                                    H.delta(y)))),
    ]
    for name, got in checks:
        report.check(name, got == unit2)
    if not report.passed:
        bad = ", ".join(c.name for c in report.all_failures())
        raise AxiomViolation(f"canonical element identities failed: {bad}")
    return CanonicalElements(q_r, p_r, q_l, p_l, report)


def derive_UVu(H, gamma):
    """The duality elements and the comparison element built from them:

        U = f^-1 (S (x) S)(q_r flipped)
        V = (S^-1 (x) S^-1)(f_21 p_r_21)
        u = (gamma (x) S^2)(V)

    gamma is the modulus.  The coopposite comparison element u_cop is u of
    H.coopposite().  For unimodular H, u = 1.
    """
    p = H.require_pivotal()
    ce = H.canonical_elements()
    A = H.alg

    def s_both(x):
        return H.S_leg(H.S_leg(x, 0), 1)

    def s_inv_both(x):
        return H.S_inv_leg(H.S_inv_leg(x, 0), 1)

    cap_u = A.mul(p.twist_inv, s_both(flip(ce.q_r, (2, 1))))
    cap_v = s_inv_both(A.mul(flip(p.twist, (2, 1)), flip(ce.p_r, (2, 1))))
    u = H.S_leg(H.S_leg(gamma.contract(cap_v, (0,)), 0), 0)
    return cap_u, cap_v, u


# -- axiom checking -----------------------------------------------------------


def _generating_set(A):
    """Basis indices G such that 1 and the left-normed words in G span A.

    The basis is scanned in order; e_i joins G when it is not yet in the
    span, and the span is then closed again under right multiplication by
    G.  Every basis element ends up in the span, so the rank reaches dim.
    """
    span = RowReducer(A.n, A.dim)
    gens = []
    words = []     # left-normed words whose rows raised the rank
    todo = []      # (word, generator) products not yet absorbed

    def absorb(x):
        if not span.add_row({i: c for (i,), c in x.coeffs.items()}):
            return False
        words.append(x)
        todo.extend((x, g) for g in gens)
        return True

    absorb(A.unit)
    for i in range(A.dim):
        if absorb(A.basis(i)):
            gens.append(i)
            todo.extend((w, i) for w in words)
            while todo:
                w, g = todo.pop()
                absorb(A.mul(w, A.basis(g)))
    return gens


# Table terms per block of the blocked associativity comparison in
# check_axioms.  It bounds the operands and products alive at once, at every
# dimension, to well under a MiB; larger blocks save little time, since each
# product reads only the rows its block needs.
_BLOCK_TERMS = 256


def _blocks(sizes):
    """Consecutive runs of range(len(sizes)) whose sizes sum to at most
    _BLOCK_TERMS; an index larger than that is a run of its own."""
    run, total = [], 0
    for i, size in enumerate(sizes):
        if run and total + size > _BLOCK_TERMS:
            yield run
            run, total = [], 0
        run.append(i)
        total += size
    if run:
        yield run


def _on_rows(n, rows, keep, cols):
    """The right operand with row dicts rows[m] for m in keep and zero rows
    elsewhere.  With keep the nonzero columns of the left operand the
    product is unchanged, and a block's product reads only its own rows."""
    return SparseMatrix(n, len(rows), cols, {
        (m, j): c for m in keep for j, c in rows[m].items()})


def _columns(m):
    """The indices of m's nonzero columns."""
    return {j for _, j in m.entries}


def _mismatches(lhs, rhs, swap):
    """Keys, in lhs's keying, at which the entries of two products differ;
    swap translates a (row, column) key between the two keyings."""
    bad = [key for key, v in lhs.items() if rhs.get(swap(*key)) != v]
    if len(lhs) - len(bad) < len(rhs):
        bad += [swap(*key) for key in rhs if swap(*key) not in lhs]
    return bad


def _associativity_failures(A, gens):
    """[(x, g, z)] with the first g in gens at which (x g) z = x (g z)
    fails and its least failing (x, z), or []; see check_axioms."""
    n, dim, table = A.n, A.dim, A.table
    cells = [array("l") for _ in range(dim)]  # k -> i*dim + j, T[i,j][k] != 0
    for (i, j), cell in table.items():
        for k in cell:
            cells[k].append(i * dim + j)
    right = {g: A.right_mult_matrix(A.basis(g)).row_dicts() for g in gens}
    left = {g: A.left_mult_matrix(A.basis(g)).row_dicts() for g in gens}

    def swap(r, c):     # ((k, a), b) <-> ((k, b), a)
        return r - r % dim + c, r % dim

    first = None    # (position in gens, (x, z)) of the first failure
    for ks in _blocks([len(c) for c in cells]):
        rows = len(ks) * dim
        t_z = SparseMatrix(n, rows, dim, {
            (r * dim + ij % dim, ij // dim): table[divmod(ij, dim)][k]
            for r, k in enumerate(ks) for ij in cells[k]})
        t_x = SparseMatrix(n, rows, dim, {
            (rj - j + i, j): c for (rj, i), c in t_z.entries.items()
            for j in (rj % dim,)})
        ms_z, ms_x = _columns(t_z), _columns(t_x)
        # a generator after the first failing one cannot give the witness
        for t, g in enumerate(gens[:len(gens) if first is None
                                   else first[0] + 1]):
            # ((k, z), x) on the left, ((k, x), z) on the right
            lhs = (t_z @ _on_rows(n, right[g], ms_z, dim)).entries
            rhs = (t_x @ _on_rows(n, left[g], ms_x, dim)).entries
            bad = _mismatches(lhs, rhs, swap)
            if bad:
                case = (t, min((x, r % dim) for r, x in bad))
                first = case if first is None else min(first, case)
    if first is None:
        return []
    t, (x, z) = first
    return [(x, gens[t], z)]


def _delta_multiplicative_failures(H, gens):
    """[(g, y)] with the first g in gens at which Delta(g y) = Delta(g)
    Delta(y) fails and its least failing y, or []; see check_axioms."""
    A = H.alg
    deltas = sandwiches(A, H.delta_images)
    for g in gens:
        lhs = (deltas @ A.left_mult_matrix(A.basis(g))).entries
        rhs = sandwiches(A, H.delta_images, X=H.delta_images[g]).entries
        if lhs != rhs:
            return [(g, min(key[1] for key, _ in lhs.items() ^ rhs.items()))]
    return []


def check_axioms(H, *, pair_budget=None, triple_budget=None, seed=None):
    """Full axiom report, exhaustive; failures carry the first offending
    basis tuple.

    G is _generating_set(H.alg).  Each identity is checked on the smallest
    set that proves it everywhere, given that the entries it relies on pass:

    - unit law, S inverse: on every basis element (no closure argument).
    - associativity: (x g) z = x (g z) for g in G, all basis x, z.  By
      Teichmueller's identity (wx,y,z) - (w,xy,z) + (w,x,yz) = w(x,y,z) +
      (w,x,y)z the middle nucleus is closed under products; it holds 1 and
      G, so it is all of A.
    - eps, Delta multiplicative, S anti-multiplicative: on G x basis.  The
      first arguments h for which the identity holds for every second one
      are closed under products and contain 1 (eps(1) = 1, Delta(1) = 1 (x)
      1, S(1) = 1).
    - counit law for Delta: on G; both sides are algebra maps.
    - quasi-coassociativity: on G; conjugation by Phi and the two iterated
      coproducts are algebra maps.
    - zig-zag with alpha and beta: on G; S((hk)_1) alpha (hk)_2 = S(k_1)
      S(h_1) alpha h_2 k_2, so the solutions are closed under products.
    - S^2 = conjugation by g: on G; both sides are algebra maps.
    - twist identity: on G; both sides are anti-algebra maps.

    An entry that passes on its set but relies on a failing entry reads
    FAIL with the value "not proven: <entry> fails", naming the first
    failing one of associativity, the multiplicativity entries and the
    identities that put 1 (or g^-1, f^-1) in the set.

    Associativity and Delta multiplicativity are kernel products, with
    T[i,j][k] the table.  For each g, (x g) z is T_z @ R_g, with rows
    (k, z), columns m and entries T[m,z][k], times rows m, columns x and
    entries T[x,g][m]; x (g z) is T_x @ L_g, with rows (k, x) and entries
    T[x,m][k], times entries T[g,z][m] in column z, re-keyed to ((k, z), x).
    Associativity runs in blocks of at most _BLOCK_TERMS terms over k.
    Delta(g y) is D @ L_g, with D = sandwiches(A, Delta) holding Delta(e_m)
    in column m, and Delta(g) Delta(y) is column y of sandwiches(A, Delta,
    X=Delta(g)).  The two sides agree entry by entry or the identity fails
    there, so the verdicts are those of the per-case identities, and the
    witness is the least failing case for the first failing g in G order,
    the case the scan over g, x, z (resp. g, y) meets first.  The closure
    arguments are about the identities, not about how they are evaluated, so
    they are unchanged.

    pair_budget, triple_budget and seed are accepted and ignored: the
    benchmark's axioms-q2 workload still passes them, and a TypeError there
    would end its run instead of being counted as a failed operation.
    """
    A = H.alg
    dim = H.dim
    lab = A.labels
    report = Check("axioms")
    gens = _generating_set(A)
    # the kernel comparisons run first, while no cached product is held
    assoc_failures = _associativity_failures(A, gens)
    delta_failures = _delta_multiplicative_failures(H, gens)
    e = [A.basis(i) for i in range(dim)]
    delta = H.delta_images
    S = [H.S(b) for b in e]
    basis = [(i,) for i in range(dim)]
    on_gens = [(g,) for g in gens]
    gen_pairs = [(g, y) for g in gens for y in range(dim)]

    @lru_cache(maxsize=None)
    def prod(i, j):
        return A.mul(e[i], e[j])

    # algebra layer
    c = report.add(Check("algebra"))
    unit = check_every(
        c, lab, "unit law", basis,
        lambda i: A.mul(A.unit, e[i]) == e[i] == A.mul(e[i], A.unit))
    # the cases are the failures the kernel comparison found, in order
    assoc = check_every(c, lab, "associativity", assoc_failures,
                        lambda *_: False)

    # counit
    c = report.add(Check("counit"))
    eps_one = c.check("eps(1) = 1", H.eps(A.unit).is_one())
    eps_mul = check_every(
        c, lab, "multiplicative", gen_pairs,
        lambda g, y: H.eps(prod(g, y)) == H.eps(e[g]) * H.eps(e[y]))
    counit_law = check_every(
        c, lab, "counit law for Delta", on_gens,
        lambda i: H.eps_leg(delta[i], 0) == e[i] == H.eps_leg(delta[i], 1))
    c.check("eps(alpha) = 1", H.eps(H.alpha).is_one())
    c.check("eps(beta) = 1", H.eps(H.beta).is_one())

    # coproduct
    c = report.add(Check("coproduct"))
    delta_one = c.check("Delta(1) = 1 (x) 1", H.delta(A.unit) == A.unit_tensor(2))
    delta_mul = check_every(c, lab, "multiplicative", delta_failures,
                            lambda *_: False)
    phi, psi = H.coassociator, H.coassociator_inv
    coassoc = check_every(
        c, lab, "quasi-coassociativity", on_gens,
        lambda i: A.mul(H.delta_leg(delta[i], 0), phi)
        == A.mul(phi, H.delta_leg(delta[i], 1)))

    # coassociator
    c = report.add(Check("coassociator"))
    unit3 = A.unit_tensor(3)
    c.check("Phi Psi = 1", A.mul(phi, psi) == unit3)
    c.check("Psi Phi = 1", A.mul(psi, phi) == unit3)
    c.check("(id (x) eps (x) id)(Phi) = 1 (x) 1",
            H.eps_leg(phi, 1) == A.unit_tensor(2))
    lhs = A.mul(H.delta_leg(phi, 0), H.delta_leg(phi, 2))
    rhs = A.mul_many(phi.tensor(A.unit),
                     H.delta_leg(phi, 1),
                     A.unit.tensor(phi))
    c.check("pentagon", lhs == rhs)

    # antipode
    c = report.add(Check("antipode"))
    s_one = c.check("S(1) = 1", H.S(A.unit) == A.unit)
    check_every(c, lab, "S inverse", basis,
                lambda i: H.S_inv(S[i]) == e[i] == H.S(H.S_inv(e[i])))
    s_mul = check_every(c, lab, "anti-multiplicative", gen_pairs,
                        lambda g, y: H.S(prod(g, y)) == A.mul(S[y], S[g]))

    def zig_zag(i):
        acc_a = TensorElement(H.n, 1)
        acc_b = TensorElement(H.n, 1)
        for (x, y), coef in delta[i].coeffs.items():
            acc_a = acc_a + A.mul_many(S[x], H.alpha, e[y]).scale(coef)
            acc_b = acc_b + A.mul_many(e[x], H.beta, S[y]).scale(coef)
        eps = H.eps(e[i])
        return acc_a == H.alpha.scale(eps) and acc_b == H.beta.scale(eps)

    zig = check_every(c, lab, "zig-zag with alpha and beta", on_gens, zig_zag)
    got = TensorElement(H.n, 1)
    for (a, b, cc), coef in psi.items_sorted():
        got = got + A.mul_many(e[a], H.beta, S[b], H.alpha, e[cc]).scale(coef)
    c.check("coassociator zig-zag (Psi side)", got == A.unit)
    got = TensorElement(H.n, 1)
    for (a, b, cc), coef in phi.items_sorted():
        got = got + A.mul_many(S[a], H.alpha, e[b], H.beta, S[cc]).scale(coef)
    c.check("coassociator zig-zag (Phi side)", got == A.unit)

    # An entry checked on G holds everywhere only if the entries its closure
    # argument uses pass; dependencies come before their dependents.
    assoc_ = ("associativity", assoc)
    eps_ = ("counit multiplicative", eps_mul)
    delta_ = ("coproduct multiplicative", delta_mul)
    s_ = ("anti-multiplicative", s_mul)
    proofs = [
        (assoc, [("unit law", unit)]),
        (eps_mul, [assoc_, ("eps(1) = 1", eps_one)]),
        (delta_mul, [assoc_, ("Delta(1) = 1 (x) 1", delta_one)]),
        (s_mul, [assoc_, ("S(1) = 1", s_one)]),
        (counit_law, [assoc_, eps_, delta_]),
        (coassoc, [assoc_, delta_]),
        (zig, [assoc_, eps_, delta_, s_]),
    ]
    if H.pivotal is not None:
        piv = report.add(check_pivotal(H, gens))
        proofs += [
            (piv.find("S^2 = conjugation by g"),
             [assoc_, s_, ("g g^-1 = 1", piv.find("g g^-1 = 1"))]),
            (piv.find("twist intertwines Delta S and (S (x) S) Delta^cop"),
             [assoc_, delta_, s_,
              ("f f^-1 = 1 (x) 1", piv.find("f f^-1 = 1 (x) 1"))]),
        ]
    for entry, needs in proofs:
        failed = next((name for name, dep in needs if not dep.ok), None)
        if entry.ok and failed is not None:
            entry.ok = False
            entry.value = f"not proven: {failed} fails"
    return report


def check_pivotal(H, gens):
    """The pivotal entries; the per-element ones run on the generating set
    gens (see check_axioms for why that suffices)."""
    A = H.alg
    p = H.pivotal
    c = Check("pivotal")
    g, gi = p.pivot, p.pivot_inv
    f, fi = p.twist, p.twist_inv
    c.check("g g^-1 = 1", A.mul(g, gi) == A.unit and A.mul(gi, g) == A.unit)
    c.check("eps(g) = 1", H.eps(g).is_one())
    c.check("S(g) = g^-1", H.S(g) == gi)
    unit2 = A.unit_tensor(2)
    c.check("f f^-1 = 1 (x) 1",
            A.mul(f, fi) == unit2 and A.mul(fi, f) == unit2)
    c.check("(eps (x) id)(f) = 1", H.eps_leg(f, 0) == A.unit)
    c.check("(id (x) eps)(f) = 1", H.eps_leg(f, 1) == A.unit)
    s_f21 = H.S_leg(H.S_leg(flip(f, (2, 1)), 0), 1)
    c.check("Delta(g) twisted by f",
            H.delta(g) == A.mul_many(fi, s_f21, g.tensor(g)))
    on_gens = [(i,) for i in gens]
    e = A.basis
    check_every(c, A.labels, "S^2 = conjugation by g", on_gens,
                lambda i: H.S(H.S(e(i))) == A.mul_many(g, e(i), gi))
    check_every(c, A.labels,
                "twist intertwines Delta S and (S (x) S) Delta^cop", on_gens,
                lambda i: A.mul_many(f, H.delta(H.S(e(i))), fi)
                == H.S_leg(H.S_leg(flip(H.delta(e(i)), (2, 1)), 0), 1))
    return c
