"""Factoring by peeling, the tests' oracle for factorization.factor.

factor takes each exponent by a rule and makes one division; this oracle
divides out one prime at a time and counts how often each goes, so the two
share only prime_above and _conjugate_prime.
"""

from cycloperfect.factorization import Factorization, _conjugate_prime, prime_above
from cycloperfect.rational import factor_rational
from cycloperfect.rings import QuadInt


def _peel(x, pi, most):
    """Divide out pi as often as it goes, at most `most` times; returns
    (cofactor, multiplicity)."""
    e = 0
    while e < most:
        d = x.exact_divide(pi)
        if d is None:
            break
        x = d
        e += 1
    return x, e


def peel_factor(x, norm_factors=None):
    """x's Factorization by peeling the primes above each q of its norm."""
    ring = x.ring
    if norm_factors is None:
        norm_factors = factor_rational(x.norm()).factors
    rem = x
    out = []
    for q, e in norm_factors:
        if ring.is_ramified(q):
            rem, k = _peel(rem, ring.minimal_prime, e)
            assert k == e, (x, q)
            out.append((ring.minimal_prime, e))
        elif ring.is_inert(q):
            rem, k = _peel(rem, QuadInt(ring, q, 0), e // 2)
            assert 2 * k == e, (x, q)
            out.append((QuadInt(ring, q, 0), k))
        else:
            pi = prime_above(q, ring)
            rem, k = _peel(rem, pi, e)
            rem, k_bar = _peel(rem, _conjugate_prime(pi), e - k)
            assert k + k_bar == e, (x, q)
            out += [(p, j) for p, j in ((pi, k), (_conjugate_prime(pi), k_bar)) if j]
    assert rem.is_unit(), x
    out.sort(key=lambda f: (f[0].norm(), f[0].a, f[0].b))
    return Factorization(unit=rem, factors=tuple(out))
