"""Unique factorization of Gaussian/Eisenstein integers into positive primes.

Every nonzero element splits as unit * prod(pi**e) where each pi is the
sector representative of its associate class.  The rational prime below
each pi is handled by splitting type: ramified primes peel the minimal
prime, inert primes peel the rational prime itself, and split primes peel
the two conjugate representatives in lexicographic (a, b) order so the
output is reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import isqrt

from .rational import factor_rational, is_rational_prime
from .rings import QuadInt, Ring
from .rings import gcd as ring_gcd


@dataclass(frozen=True)
class Factorization:
    """unit * prod(prime**exp) recomposes the element exactly."""

    unit: QuadInt
    factors: tuple[tuple[QuadInt, int], ...]

    def recompose(self) -> QuadInt:
        out = self.unit
        for p, e in self.factors:
            out = out * p**e
        return out

    def norm(self) -> int:
        n = 1
        for p, e in self.factors:
            n *= p.norm() ** e
        return n

    def to_json(self, element: QuadInt) -> dict:
        return {
            "unit": self.unit.to_json(),
            "factors": [
                {"prime": p.to_json(), "exp": e} for p, e in self.factors
            ],
            "element": element.to_json(),
        }


def is_ring_prime(x: QuadInt) -> bool:
    """Prime elements have prime norm, or are associates of an inert rational
    prime (norm q**2 with q inert)."""
    n = x.norm()
    if n == 0:
        raise ZeroDivisionError("zero is not classified")
    if n == 1:
        return False
    if is_rational_prime(n):
        return True
    q = isqrt(n)
    if q * q == n and x.ring.is_inert(q) and is_rational_prime(q):
        return x.sector_canonical()[1] == QuadInt(x.ring, q, 0)
    return False


def _theta_root(q: int, ring: Ring) -> int:
    """c with N(c - theta) = c^2 + 1 resp. c^2 + c + 1 = 0 (mod the split
    prime q): d^((q-1)/m), m = 4 resp. 3, for the first d that gives one."""
    m = 4 if ring is Ring.GAUSSIAN else 3
    for d in range(2, q):
        c = pow(d, (q - 1) // m, q)
        if QuadInt(ring, c, -1).norm() % q == 0:
            return c
    raise ArithmeticError(f"no root of theta's minimal polynomial mod {q}")


@lru_cache(maxsize=None)
def prime_above(q: int, ring: Ring) -> QuadInt:
    """A sector-canonical prime dividing the rational prime q.

    Ramified q gives the minimal prime, inert q gives q itself, and split q
    gives whichever of pi = gcd(q, c - theta), c a root of theta's minimal
    polynomial mod q, and its conjugate has the least b (Cornacchia; Cohen,
    GTM 138, 1.5).  A q that is not a rational prime raises ValueError.
    """
    if not is_rational_prime(q):
        raise ValueError(f"{q} is not a rational prime")
    if ring.is_ramified(q):
        return ring.minimal_prime
    if ring.is_inert(q):
        return QuadInt(ring, q, 0)
    pi = ring_gcd(QuadInt(ring, q, 0), QuadInt(ring, _theta_root(q, ring), -1))
    if pi.norm() != q:
        raise ArithmeticError(f"failed to find a prime above {q} in {ring}")
    return min(pi, _conjugate_prime(pi), key=lambda x: x.b)


def _conjugate_prime(pi: QuadInt) -> QuadInt:
    """The other sector prime above the split q = N(pi), for pi in the sector.

    Gaussian: i * conj(a + b*i) = b + a*i.  Eisenstein: (1 + w) * conj(a + b*w)
    = a + (a - b)*w.  Both lie in the sector because b > 0 for a split prime.
    """
    if pi.ring is Ring.GAUSSIAN:
        return QuadInt(pi.ring, pi.b, pi.a)
    return QuadInt(pi.ring, pi.a, pi.a - pi.b)


def _peel(x: QuadInt, pi: QuadInt, most: int) -> tuple[QuadInt, int]:
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


def factor(
    x: QuadInt,
    *,
    norm_factors: list[tuple[int, int]] | None = None,
    split_lookup: dict[int, QuadInt] | None = None,
) -> Factorization:
    """Factor a nonzero element into a unit and sector-canonical primes.

    norm_factors may carry a precomputed rational factorization of norm(x)
    (e.g. from a sieve during bulk scans); split_lookup may pre-resolve the
    split prime above q.  Neither changes the result, only the cost.
    Each prime is peeled off by exact division, and a cofactor that is not
    a unit raises ArithmeticError.
    """
    if not x:
        raise ZeroDivisionError("cannot factor zero")
    ring = x.ring
    if norm_factors is None:
        norm_factors = list(factor_rational(x.norm()).factors)
    rem = x
    out: list[tuple[QuadInt, int]] = []
    for q, e in norm_factors:
        if ring.is_ramified(q):
            # the one prime above q has norm q, so it takes all of q's exponent
            d = rem.exact_divide(ring.minimal_prime**e)
            if d is None:
                raise ArithmeticError(f"ramified peel mismatch at {q} in {x}")
            rem = d
            out.append((ring.minimal_prime, e))
        elif ring.is_inert(q):
            # q stays prime, of norm q^2, so it takes half of q's exponent
            d = rem.exact_divide(q ** (e // 2)) if e % 2 == 0 else None
            if d is None:
                raise ArithmeticError(f"inert peel mismatch at {q} in {x}")
            rem = d
            out.append((QuadInt(ring, q, 0), e // 2))
        else:
            pi = split_lookup.get(q) if split_lookup else None
            if pi is None:
                pi = prime_above(q, ring)
            rem, k = _peel(rem, pi, e)
            if k:
                out.append((pi, k))
            if k < e:
                # the conjugate prime takes the rest of q's exponent
                pi_bar = _conjugate_prime(pi)
                rem, k_bar = _peel(rem, pi_bar, e - k)
                if k + k_bar != e:
                    raise ArithmeticError(f"split peel mismatch at {q} in {x}")
                out.append((pi_bar, k_bar))
    if not rem.is_unit():
        raise ArithmeticError(f"non-unit cofactor {rem} left after peeling {x}")
    out.sort(key=lambda f: (f[0].norm(), f[0].a, f[0].b))
    return Factorization(unit=rem, factors=tuple(out))
