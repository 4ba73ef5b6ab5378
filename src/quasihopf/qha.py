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

Everything is immutable after construction; checks are pure and
deterministic given a seed.
"""

import random
from dataclasses import dataclass

from quasihopf.algcore import (
    AlgebraData,
    TensorElement,
    apply_images_leg,
    flip,
    hit_elem_left,
    hit_elem_right,
)
from quasihopf.exactmath import Scalar, solve_unique
from quasihopf.report import Check


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

    # -- opposite / coopposite ---------------------------------------------

    def opposite(self):
        """Same data with reversed multiplication."""
        table = {}
        for (i, j), cell in self.alg.table.items():
            table[(j, i)] = cell
        alg = AlgebraData(self.n, self.dim, self.alg.labels, self.alg.unit, table)
        return QuasiHopfAlgebra(
            alg, self.delta_images, self.counit,
            self.antipode_inv_images, self.antipode_images,
            self.coassociator_inv, self.coassociator,
            self.S_inv(self.beta), self.S_inv(self.alpha),
            pivotal=None)

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
    The two per-basis identities moving Delta through q_r and p_r are
    checked by check_qp_coproduct_relations; check_axioms does not run them.
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


def check_qp_coproduct_relations(H, ce):
    """Per-basis identities moving Delta through q_r and p_r, on every basis a:

        (1 (x) S^-1(a_(2))) q_r Delta(a_(1)) = (a (x) 1) q_r
        Delta(a_(1)) p_r (1 (x) S(a_(2)))    = p_r (a (x) 1)
    """
    A = H.alg
    report = Check("coproduct-relations")
    for a in range(H.dim):
        da = H.delta(H.basis(a))
        lhs1 = TensorElement(H.n, 2)
        lhs2 = TensorElement(H.n, 2)
        for (x, y), c in da.coeffs.items():
            ex, ey = A.basis(x), A.basis(y)
            lhs1 = lhs1 + A.mul(A.mul(H.one().tensor(H.S_inv(ey)), ce.q_r),
                                H.delta(ex)).scale(c)
            lhs2 = lhs2 + A.mul(A.mul(H.delta(ex), ce.p_r),
                                H.one().tensor(H.S(ey))).scale(c)
        rhs1 = A.mul(H.basis(a).tensor(H.one()), ce.q_r)
        rhs2 = A.mul(ce.p_r, H.basis(a).tensor(H.one()))
        if lhs1 != rhs1:
            report.check("q_r coproduct relation", False, witness=H.alg.labels[a])
            break
        if lhs2 != rhs2:
            report.check("p_r coproduct relation", False, witness=H.alg.labels[a])
            break
    else:
        report.check("q_r coproduct relation", True)
        report.check("p_r coproduct relation", True)
    return report


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


def _pair_sample(dim, budget, seed):
    if budget is None or budget >= dim * dim:
        return ((i, j) for i in range(dim) for j in range(dim))
    rng = random.Random(seed)
    return ((rng.randrange(dim), rng.randrange(dim)) for _ in range(budget))


def _triple_sample(dim, budget, seed):
    if budget is None or budget >= dim ** 3:
        return ((i, j, k) for i in range(dim) for j in range(dim)
                for k in range(dim))
    rng = random.Random(seed)
    return ((rng.randrange(dim), rng.randrange(dim), rng.randrange(dim))
            for _ in range(budget))


def check_axioms(H, *, pair_budget=None, triple_budget=None, seed=0):
    """Full axiom report; failures carry the first offending basis tuple.

    Per-basis axioms are always exhaustive.  Pair-indexed axioms are
    exhaustive for dim <= 64, triple-indexed ones for dim <= 16; beyond
    that they run on a seeded deterministic sample (96 pairs / 2048
    triples by default).  Budgets can be set explicitly; None means the
    automatic policy.
    """
    A = H.alg
    dim = H.dim
    report = Check("axioms")
    lab = A.labels

    if pair_budget is None and dim > 64:
        pair_budget = 96
    if triple_budget is None and dim > 16:
        triple_budget = 2048

    # algebra layer
    c = report.add(Check("algebra"))
    first_bad = None
    for i in range(dim):
        b = A.basis(i)
        if A.mul(A.unit, b) != b or A.mul(b, A.unit) != b:
            first_bad = lab[i]
            break
    c.check("unit law", first_bad is None, witness=first_bad)
    first_bad = None
    for (i, j, k) in _triple_sample(dim, triple_budget, seed):
        ij = A.mul(A.basis(i), A.basis(j))
        jk = A.mul(A.basis(j), A.basis(k))
        if A.mul(ij, A.basis(k)) != A.mul(A.basis(i), jk):
            first_bad = f"({lab[i]}, {lab[j]}, {lab[k]})"
            break
    c.check("associativity", first_bad is None, witness=first_bad)

    # counit
    c = report.add(Check("counit"))
    c.check("eps(1) = 1", H.eps(A.unit).is_one())
    first_bad = None
    for i in range(dim):
        for j in range(dim):
            lhs = H.eps(A.mul(A.basis(i), A.basis(j)))
            if lhs != H.eps(A.basis(i)) * H.eps(A.basis(j)):
                first_bad = f"({lab[i]}, {lab[j]})"
                break
        if first_bad:
            break
    c.check("multiplicative", first_bad is None, witness=first_bad)
    first_bad = None
    for i in range(dim):
        d = H.delta(A.basis(i))
        if H.eps_leg(d, 0) != A.basis(i) or H.eps_leg(d, 1) != A.basis(i):
            first_bad = lab[i]
            break
    c.check("counit law for Delta", first_bad is None, witness=first_bad)
    c.check("eps(alpha) = 1", H.eps(H.alpha).is_one())
    c.check("eps(beta) = 1", H.eps(H.beta).is_one())

    # coproduct
    c = report.add(Check("coproduct"))
    c.check("Delta(1) = 1 (x) 1", H.delta(A.unit) == A.unit_tensor(2))
    first_bad = None
    for (i, j) in _pair_sample(dim, pair_budget, seed):
        if H.delta(A.mul(A.basis(i), A.basis(j))) != \
                A.mul(H.delta(A.basis(i)), H.delta(A.basis(j))):
            first_bad = f"({lab[i]}, {lab[j]})"
            break
    c.check("multiplicative", first_bad is None, witness=first_bad)
    phi, psi = H.coassociator, H.coassociator_inv
    first_bad = None
    for i in range(dim):
        d = H.delta(A.basis(i))
        lhs = A.mul(H.delta_leg(d, 0), phi)
        rhs = A.mul(phi, H.delta_leg(d, 1))
        if lhs != rhs:
            first_bad = lab[i]
            break
    c.check("quasi-coassociativity", first_bad is None, witness=first_bad)

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
    c.check("S(1) = 1", H.S(A.unit) == A.unit)
    first_bad = None
    for i in range(dim):
        b = A.basis(i)
        if H.S(H.S_inv(b)) != b or H.S_inv(H.S(b)) != b:
            first_bad = lab[i]
            break
    c.check("S inverse", first_bad is None, witness=first_bad)
    first_bad = None
    for (i, j) in _pair_sample(dim, pair_budget, seed + 1):
        lhs = H.S(A.mul(A.basis(i), A.basis(j)))
        rhs = A.mul(H.S(A.basis(j)), H.S(A.basis(i)))
        if lhs != rhs:
            first_bad = f"({lab[i]}, {lab[j]})"
            break
    c.check("anti-multiplicative", first_bad is None, witness=first_bad)
    first_bad = None
    for i in range(dim):
        b = A.basis(i)
        d = H.delta(b)
        acc_a = TensorElement(H.n, 1)
        acc_b = TensorElement(H.n, 1)
        for (x, y), coef in d.coeffs.items():
            acc_a = acc_a + A.mul_many(H.S(A.basis(x)), H.alpha,
                                       A.basis(y)).scale(coef)
            acc_b = acc_b + A.mul_many(A.basis(x), H.beta,
                                       H.S(A.basis(y))).scale(coef)
        if acc_a != H.alpha.scale(H.eps(b)) or acc_b != H.beta.scale(H.eps(b)):
            first_bad = lab[i]
            break
    c.check("zig-zag with alpha and beta", first_bad is None, witness=first_bad)
    got = TensorElement(H.n, 1)
    for (a, b, cc), coef in psi.items_sorted():
        got = got + A.mul_many(A.basis(a), H.beta, H.S(A.basis(b)),
                               H.alpha, A.basis(cc)).scale(coef)
    c.check("coassociator zig-zag (Psi side)", got == A.unit)
    got = TensorElement(H.n, 1)
    for (a, b, cc), coef in phi.items_sorted():
        got = got + A.mul_many(H.S(A.basis(a)), H.alpha, A.basis(b),
                               H.beta, H.S(A.basis(cc))).scale(coef)
    c.check("coassociator zig-zag (Phi side)", got == A.unit)

    if H.pivotal is not None:
        report.add(check_pivotal(H, pair_budget=pair_budget, seed=seed))
    return report


def check_pivotal(H, *, pair_budget=None, seed=0):
    A = H.alg
    p = H.pivotal
    lab = A.labels
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
    first_bad = None
    for i in range(H.dim):
        b = A.basis(i)
        if H.S(H.S(b)) != A.mul_many(g, b, gi):
            first_bad = lab[i]
            break
    c.check("S^2 = conjugation by g", first_bad is None, witness=first_bad)
    first_bad = None
    for i in range(H.dim):
        b = A.basis(i)
        lhs = A.mul_many(f, H.delta(H.S(b)), fi)
        rhs = H.S_leg(H.S_leg(flip(H.delta(b), (2, 1)), 0), 1)
        if lhs != rhs:
            first_bad = lab[i]
            break
    c.check("twist intertwines Delta S and (S (x) S) Delta^cop",
            first_bad is None, witness=first_bad)
    return c
