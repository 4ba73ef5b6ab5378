"""Shared, cached fixture construction for the test suite.

Building Q(N, beta) and solving its cointegral system is exact but not
free, so every test module pulls built fixtures and solver bundles from
these session-wide caches.
"""

from functools import lru_cache

from quasihopf import intcoint
from quasihopf.exactmath import Scalar
from quasihopf.fixtures import group_algebra_cyclic, sweedler_algebra
from quasihopf.sympferm import build


@lru_cache(maxsize=None)
def q_fixture(N, zeta_power):
    """Built Q(N, zeta_8^zeta_power), cached for the whole session."""
    return build(N, Scalar.zeta(8, zeta_power))


PRINCIPAL = {1: 7, 2: 6, 3: 5}  # exp(-i pi N/4) as a power of zeta_8

ADMISSIBLE = {
    1: (1, 3, 5, 7),
    2: (0, 2, 4, 6),
    3: (1, 3, 5, 7),
}


def q_principal(N):
    return q_fixture(N, PRINCIPAL[N])


def principal_beta(N, n=8):
    """exp(-i pi N / 4) as a root of unity in Q(zeta_n)."""
    return Scalar.zeta(n, (-N) % n)


@lru_cache(maxsize=None)
def cointegral_bundle(N, zeta_power):
    """(fixture, right cointegral result, symmetrised form), solver-produced."""
    fx = q_fixture(N, zeta_power)
    co = intcoint.cointegrals(fx.H, "right", pin=fx.cointegral)
    sym = intcoint.symmetrise(fx.H, co)
    return fx, co, sym


@lru_cache(maxsize=None)
def z2():
    return group_algebra_cyclic(2)


@lru_cache(maxsize=None)
def z4():
    return group_algebra_cyclic(4, conductor=4)


@lru_cache(maxsize=None)
def sweedler():
    return sweedler_algebra()


def proportional(f1, f2):
    """Exact proportionality of two nonzero linear forms."""
    if f1.is_zero() or f2.is_zero():
        return f1.is_zero() and f2.is_zero()
    k = min(f1.coeffs)
    ratio = f2.coeffs.get(k)
    if ratio is None:
        return False
    return f1.scale(ratio / f1.coeffs[k]) == f2
