"""Unique factorization of Gaussian/Eisenstein integers into positive primes.

Every nonzero element splits as unit * prod(pi**e) where each pi is the
sector representative of its associate class.  factor reads the exponents
off the norm's rational factorization, one rule per splitting type (for
split primes _split_exponents), and proves them by one exact division to a
unit.  A split q's prime is Cornacchia's reduction (_split_prime) on a root
of theta's minimal polynomial mod q, x's own if factor_rational proved q.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import isqrt

from .rational import factor_rational, is_rational_prime
from .rings import QuadInt, Ring


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
    """c with c^2 + t*c + 1 = 0 (mod the split prime q): d^((q-1)/m), m = 4 - t
    the order of theta, for the first d that gives one."""
    for d in range(2, q):
        c = pow(d, (q - 1) // (4 - ring.t), q)
        if (c * c + ring.t * c + 1) % q == 0:
            return c
    raise ArithmeticError(f"no root of theta's minimal polynomial mod {q}")


def _split_prime(q: int, ring: Ring, c: int) -> QuadInt:
    """The sector prime of norm q with the least b, from either root c of
    c^2 + t*c + 1 mod q; the caller proves q prime, this checks the norm.

    a + b*theta has norm q when X = 2a - t*b, Y = b solve X^2 + d*Y^2 = 4q,
    d = 4 - t^2.  As X^2 + d*Y^2 is a positive multiple of 4q for every
    nonzero X = Y*(2c + t) (mod 2q), the solutions are the shortest vectors
    of that lattice, found by Euclid on (2q, 2c + t) (Cornacchia 1908; Cohen,
    GTM 138, 1.5.3): the first remainder at most 2*sqrt(q) is the largest
    X, whose Y = b is the least (a > b resp. a > 2b).
    """
    t = ring.t
    if (c * c + t * c + 1) % q:
        raise ArithmeticError(f"{c} is not a root of theta's minimal polynomial mod {q}")
    r0, r1, bound = 2 * q, 2 * (c % q) + t, isqrt(4 * q)
    while r1 > bound:
        r0, r1 = r1, r0 % r1
    y2, rest = divmod(4 * q - r1 * r1, 4 - t * t)
    y = isqrt(y2)
    if rest or y * y != y2:
        raise ArithmeticError(f"failed to find a prime above {q} in {ring}")
    return QuadInt(ring, (r1 + t * y) // 2, y)


@lru_cache(maxsize=None)
def prime_above(q: int, ring: Ring) -> QuadInt:
    """A sector-canonical prime dividing the rational prime q.

    Ramified q gives the minimal prime, inert q gives q itself, and split q
    gives the sector prime with the least b: _split_prime from the root
    _theta_root finds.  A q that is not a rational prime raises ValueError.
    """
    if not is_rational_prime(q):
        raise ValueError(f"{q} is not a rational prime")
    if ring.is_ramified(q):
        return ring.minimal_prime
    if ring.is_inert(q):
        return QuadInt(ring, q, 0)
    return _split_prime(q, ring, _theta_root(q, ring))


def _conjugate_prime(pi: QuadInt) -> QuadInt:
    """The other sector prime above the split q = N(pi), for pi in the sector:
    conj(pi) times the generator t + theta, that is b + a*i resp.
    a + (a - b)*w, in the sector because b > 0 for a split prime.
    """
    return pi.conjugate() * pi.ring.units[1]


def _split_exponents(a: int, b: int, q: int, e: int, t: int) -> tuple[int, int]:
    """The exponents (j, j_bar) of pi and pi_bar in x = a + b*theta, for a
    split q of exponent e in N(x) and t = -a_pi / b_pi (mod q), the image of
    theta in Z[theta]/pi.  Both take k, the exponent of q in gcd(a, b); the
    other e - 2k go to pi when a' + b'*t = 0 (mod q) for the content-free
    a', b', else to pi_bar.  Content beyond q**e raises ArithmeticError."""
    k = 0
    while a % q == 0 and b % q == 0:
        a //= q
        b //= q
        k += 1
    rest = e - 2 * k
    if rest < 0:
        raise ArithmeticError(f"content {q}^{k} exceeds {q}^{e}")
    if (a + b * t) % q:
        return k, k + rest
    return k + rest, k


def factor(x: QuadInt, *, norm_factors: list[tuple[int, int]] | None = None) -> Factorization:
    """Factor a nonzero element into a unit and sector-canonical primes.

    norm_factors may carry a precomputed rational factorization of norm(x)
    (e.g. from a sieve during bulk sweeps); prime_above proves its primes,
    so it changes only the cost.  Without it, a split q not dividing b takes
    its prime from x's root -a/b (mod q).
    For q of exponent e in the norm, the ramified prime takes e, an inert q
    e/2, and a split q's two primes share e by _split_exponents.  The
    product of the prime powers must divide x to a unit, or ArithmeticError
    is raised.
    """
    if not x:
        raise ZeroDivisionError("cannot factor zero")
    ring = x.ring
    proven = norm_factors is None
    if proven:
        norm_factors = factor_rational(x.norm()).factors
    out: list[tuple[QuadInt, int]] = []
    for q, e in norm_factors:
        if ring.is_ramified(q):
            out.append((ring.minimal_prime, e))
        elif ring.is_inert(q):
            # q stays prime, of norm q^2, so it takes half of q's exponent
            if e % 2:
                raise ArithmeticError(f"inert {q} has the odd exponent {e} in N({x})")
            out.append((QuadInt(ring, q, 0), e // 2))
        else:
            if proven and x.b % q:
                pi = _split_prime(q, ring, -x.a * pow(x.b, -1, q) % q)
            else:
                pi = prime_above(q, ring)
            t = -pi.a * pow(pi.b, -1, q) % q
            j, j_bar = _split_exponents(x.a, x.b, q, e, t)
            if j:
                out.append((pi, j))
            if j_bar:
                out.append((_conjugate_prime(pi), j_bar))
    product = ring.units[0]
    for p, k in out:
        for _ in range(k):
            product = product * p
    unit = x.exact_divide(product)
    if unit is None or not unit.is_unit():
        raise ArithmeticError(f"the prime powers {out} do not divide {x} to a unit")
    out.sort(key=lambda f: (f[0].norm(), f[0].a, f[0].b))
    return Factorization(unit=unit, factors=tuple(out))
