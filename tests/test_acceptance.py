"""Acceptance suite: one test per criterion, each printing a summary line.

Everything here is exact: assertions compare Scalars, forms and matrices
for equality, never up to tolerance.  (N, beta) fixtures and solver bundles
are cached in tests.helpers, so criteria share the expensive builds.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import random
import time

import pytest

from quasihopf import intcoint
from quasihopf.exactmath import Scalar, SparseMatrix
from quasihopf.modtrace import (
    NotUnimodular,
    evaluate,
    from_symmetrised_cointegral,
    pairing_nondegeneracy,
    tensor_presentation,
    trivial_presentation,
    verify_reduction,
)
from quasihopf.qha import check_axioms
from quasihopf.repcat import (
    ModuleMap,
    partial_trace,
    phi_psi,
    regular_module,
    tensor,
    trivial_module,
    xi,
)

from .helpers import (
    ADMISSIBLE,
    PRINCIPAL,
    cointegral_bundle,
    proportional,
    q_fixture,
    q_principal,
    sweedler,
    z4,
)
from .references import check_nakayama, symmetric_trace_space


def _report(num, text):
    print(f"\n[acceptance {num}] PASS  {text}")


def test_criterion_1_axioms_all_betas():
    timings = []
    for N in (1, 2, 3):
        for power in ADMISSIBLE[N]:
            fx = q_fixture(N, power)
            t0 = time.time()
            rep = check_axioms(fx.H)
            dt = time.time() - t0
            timings.append((N, power, dt))
            assert rep.passed, f"N={N} beta=z8^{power}:\n" + rep.render()
            limit = 60 if N <= 2 else 600
            assert dt < limit, f"check took {dt:.1f}s at N={N}"
    worst = {n: max(dt for nn, _, dt in timings if nn == n) for n in (1, 2, 3)}
    _report(1, "axioms pass for all 12 (N, beta); slowest checks: "
               + ", ".join(f"N={n}: {worst[n]:.1f}s" for n in (1, 2, 3)))


def test_criterion_2_integrals():
    for N in (1, 2, 3):
        fx = q_principal(N)
        left = intcoint.integrals(fx.H, "left")
        right = intcoint.integrals(fx.H, "right")
        assert left.basis == [fx.integral]
        assert right.basis == left.basis
        assert intcoint.modulus(fx.H, left.basis[0]).is_counit(fx.H)
    _report(2, "integral = span of the four top words, left = right, "
               "modulus = counit, N <= 3")


def test_criterion_3_cointegrals_all_betas():
    for N in (1, 2, 3):
        for power in ADMISSIBLE[N]:
            fx, co, sym = cointegral_bundle(N, power)
            assert co.form == fx.cointegral, (N, power)
            assert sym == fx.symmetrised_cointegral, (N, power)
    _report(3, "right cointegral space is 1-dimensional and the "
               "symmetrised form matches the closed formula for all 12 "
               "(N, beta)")


def test_criterion_4_trace_values():
    # solver-produced symmetrised cointegrals evaluated on the central
    # elements, for every admissible pair
    for N in (1, 2, 3):
        for power in ADMISSIBLE[N]:
            fx, _, sym = cointegral_bundle(N, power)
            for name in ("x+", "x-", "y+", "y-"):
                assert sym.evaluate(fx.elements[name]) == \
                    fx.expected_traces[name], (N, power, name)
    # end-to-end modified-trace path at the principal betas
    for N in (1, 2):
        fx, _, sym = cointegral_bundle(N, PRINCIPAL[N])
        tr = from_symmetrised_cointegral(fx.H, sym)
        assert tr.side == "two-sided"
        pres = trivial_presentation(fx.H)
        for name in ("x+", "x-", "y+", "y-"):
            f = ModuleMap(pres.module, pres.module,
                          fx.H.alg.right_mult_matrix(fx.elements[name]))
            assert evaluate(tr, pres, f) == fx.expected_traces[name]
    fx1 = q_fixture(1, 7)
    minus_half_i = -(Scalar.zeta(8, 2) / Scalar.from_int(8, 2))
    assert fx1.expected_traces["x+"] == minus_half_i
    assert fx1.expected_traces["y+"] == Scalar.from_int(8, -1)
    _report(4, "modified traces of r_x+-, r_y+- match the closed values "
               "exactly for N <= 3; N=1, beta=z8^7 gives -i/2 and -1")


def test_criterion_5_trace_space_by_brute_force():
    for power in ADMISSIBLE[1]:
        fx, _, sym = cointegral_bundle(1, power)
        space = symmetric_trace_space(fx.H)
        assert len(space) == 1
        assert proportional(space[0], sym)
    _report(5, "the symmetric forms satisfying the reduction condition on "
               "Q(1, beta) form exactly the line through the symmetrised "
               "cointegral (direct linear solve vs cointegral solver)")


def test_criterion_6_reduction_lemma():
    fx1, _, sym1 = cointegral_bundle(1, PRINCIPAL[1])
    tr1 = from_symmetrised_cointegral(fx1.H, sym1)
    rep = verify_reduction(fx1.H, tr1, sides=("right", "left"))
    assert rep.passed, rep.render()
    fx2, _, sym2 = cointegral_bundle(2, PRINCIPAL[2])
    tr2 = from_symmetrised_cointegral(fx2.H, sym2)
    rep2 = verify_reduction(fx2.H, tr2, sides=("right", "left"))
    assert rep2.passed, rep2.render()
    _report(6, "t_{HxH}(Xi(a x m)) = t_H(partial trace) exhaustively over "
               "16 x 256 pairs at N=1 and 64 x 4096 pairs at N=2, "
               "left and right variants")


def test_criterion_7_nondegeneracy():
    for N in (1, 2, 3):
        fx, _, sym = cointegral_bundle(N, PRINCIPAL[N])
        assert intcoint.gram_matrix_rank(fx.H, sym) == fx.H.dim == \
            2 ** (2 * N + 2)
    fx1, _, sym1 = cointegral_bundle(1, PRINCIPAL[1])
    tr = from_symmetrised_cointegral(fx1.H, sym1)
    reg = regular_module(fx1.H)
    rep = pairing_nondegeneracy(fx1.H, tr, trivial_module(fx1.H, 1), reg,
                                trivial_presentation(fx1.H, reg))
    assert rep.passed, rep.render()
    Hs = sweedler()
    sym_s = intcoint.symmetrise(Hs, intcoint.cointegrals(Hs, "right"))
    with pytest.raises(NotUnimodular):
        from_symmetrised_cointegral(Hs, sym_s)
    _report(7, "gram rank of the symmetrised cointegral is 2^(2N+2) for "
               "N <= 3; the Hom-pairing at (trivial, H) has full rank; the "
               "non-unimodular fixture is refused")


def test_criterion_8_straightening_isomorphisms():
    for N in (1, 2):
        fx = q_principal(N)
        H = fx.H
        reg = regular_module(H)
        phi_r, psi_r, _, _ = phi_psi(H, reg)
        d = H.dim * H.dim
        ident = SparseMatrix.identity(H.n, d)
        assert (phi_r @ psi_r).matrix == ident, f"N={N}"
        assert (psi_r @ phi_r).matrix == ident, f"N={N}"
    fx = q_principal(1)
    H = fx.H
    reg = regular_module(H)
    maps = phi_psi(H, reg)
    rng = random.Random(0)
    for _ in range(100):
        a, b = (H.basis(rng.randrange(16)) for _ in range(2))
        m = SparseMatrix(H.n, 16, 16)
        nmat = SparseMatrix(H.n, 16, 16)
        for _ in range(2):
            m.set(rng.randrange(16), rng.randrange(16),
                  Scalar.from_int(H.n, rng.choice((1, -1, 2))))
            nmat.set(rng.randrange(16), rng.randrange(16),
                     Scalar.from_int(H.n, rng.choice((1, -1))))
        lhs = xi(H, reg, a, m, maps=maps) @ xi(H, reg, b, nmat, maps=maps)
        rhs = xi(H, reg, H.alg.mul(b, a), m @ nmat, maps=maps)
        assert lhs.matrix == rhs.matrix
    _report(8, "phi_r and psi_r are exact mutual inverses on H (x) H for "
               "N <= 2; Xi is multiplicative on 100 seeded samples")


def test_criterion_9_property_suites():
    # cyclicity on 100 seeded composable pairs between H and H (x) H
    fx = q_fixture(1, 7)
    H = fx.H
    A = H.alg
    _, _, sym = cointegral_bundle(1, 7)
    tr = from_symmetrised_cointegral(H, sym)
    reg = regular_module(H)
    hh = tensor(reg, reg)
    maps = phi_psi(H, reg)
    tp = tensor_presentation(H, maps)
    pres_h = trivial_presentation(H, reg)
    rng = random.Random(23)
    for _ in range(100):
        v = {rng.randrange(hh.dim): Scalar.from_int(H.n, rng.choice((1, -1, 2)))
             for _ in range(2)}
        fmat = SparseMatrix(H.n, hh.dim, H.dim)
        for h in range(H.dim):
            for k, c in hh.matrix(h).apply(v).items():
                fmat.add_to(k, h, c)
        f = ModuleMap(reg, hh, fmat)
        g = ModuleMap(reg, reg,
                      A.right_mult_matrix(A.basis(rng.randrange(16)))) \
            @ tp.maps_out[rng.randrange(16)]
        assert evaluate(tr, tp, f @ g) == evaluate(tr, pres_h, g @ f)

    # twisted symmetry, exhaustively, on the non-unimodular fixture
    Hs = sweedler()
    gs = intcoint.modulus(Hs)
    sym_l = intcoint.symmetrise(Hs, intcoint.cointegrals(Hs, "left"))
    assert intcoint.check_twisted_symmetry(Hs, sym_l, gs, "left").passed
    sym_r = intcoint.symmetrise(Hs, intcoint.cointegrals(Hs, "right"))
    assert intcoint.check_twisted_symmetry(Hs, sym_r, gs, "right").passed

    # antipode conjugation laws, exhaustively, at N=1
    gq = intcoint.modulus(H)
    right = intcoint.cointegrals(H, "right")
    left = intcoint.cointegrals(H, "left")
    assert check_nakayama(H, right.form, gq, "right").passed
    assert check_nakayama(H, left.form, gq, "left").passed
    _report(9, "cyclicity on 100 seeded pairs; twisted symmetry exhaustive "
               "on the non-unimodular fixture; antipode conjugation laws "
               "exhaustive at N=1")


def test_criterion_10_semisimple_sanity():
    H = z4()
    sym = intcoint.symmetrise(H, intcoint.cointegrals(H, "right"))
    tr = from_symmetrised_cointegral(H, sym)
    reg = regular_module(H)
    tri = trivial_module(H, 1)
    pres = trivial_presentation(H, reg)
    quarter = Scalar.one(4) / Scalar.from_int(4, 4)
    for x in range(4):
        r_x = ModuleMap(reg, reg, H.alg.right_mult_matrix(H.basis(x)))
        lifted = ModuleMap(tensor(tri, reg), tensor(tri, reg), r_x.matrix)
        cat = partial_trace(lifted, "right").matrix.get(0, 0)
        assert evaluate(tr, pres, r_x) == quarter * cat
    _report(10, "on k[Z4] the modified trace equals 1/4 of the categorical "
                "trace computed via the partial trace over the full object")
