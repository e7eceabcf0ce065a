"""Rational-integer primality testing and factorization.

Below 10**4 primality is a set lookup.  Above it, trial division by all
primes below 10**4 is one gcd with their product, after a cheap one with
the product of those below 200, and it decides every n below 10**8.  From
2**64 on, an n whose n - 1 is divisible by a power F of 2 or 3 with
F*F > n (as is the norm of min**k - 1 for odd k in both quadratic rings)
is proven prime or composite by Pocklington's criterion (by shifts, not
division, modulo a large Gaussian norm: _folded_pow).  Every other n
below PSI13 (about 3.3e24) is decided by the first t primes as fixed
Miller-Rabin witnesses, with t the least index for which n < psi_t, the
least strong pseudoprime to those t bases; from PSI13 on, such an n is
probable prime after MR_ROUNDS_LARGE random Miller-Rabin rounds.  Before
any of that, a Mersenne norm of prime exponent k can be proven composite
by a divisor in the residue classes its primes are forced into
(divisor_in_classes).  Factoring divides out the small primes of the long
gcd and then runs Brent's cycle-finding variant of Pollard rho.  All
randomized pieces draw from generators seeded by the documented constants
below, so results are reproducible run to run.
"""

from __future__ import annotations

import random
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress, count, islice
from math import gcd, isqrt, prod

# Seeds for the randomized splitting / large-number witness choices.
PRIMALITY_SEED = 0x1D8A_5EED
FACTOR_SEED = 0xB1D_5EED

TRIAL_DIVISION_BOUND = 10_000
MR_ROUNDS_LARGE = 40

# From here on _folded_pow is at least as fast as pow (BENCH_22 fold_vs_pow).
FOLD_MIN_BITS = 500

# The first t primes as Miller-Rabin witnesses decide every n < _PSI[t - 1],
# the least strong pseudoprime to all of them: psi_1..psi_11 from Jaeschke
# (Math. Comp. 61, 1993; OEIS A014233), psi_12 and psi_13 from Sorenson and
# Webster (Math. Comp. 86, 2017).  The first 12 suffice below 2**64.
PSI13 = 3317044064679887385961981
_PSI = (
    2047,
    1373653,
    25326001,
    3215031751,
    2152302898747,
    3474749660383,
    341550071728321,
    341550071728321,
    3825123056546413051,
    3825123056546413051,
    3825123056546413051,
    318665857834031151167461,
    PSI13,
)
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def prime_flags(limit: int) -> bytearray:
    """flags[n] = 1 when n is prime, else 0, for 0 <= n <= limit."""
    flags = bytearray([1]) * (limit + 1)
    flags[:2] = bytes(min(2, limit + 1))
    for p in range(2, isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
    return flags


def _sieve_primes(limit: int) -> list[int]:
    return list(compress(range(limit + 1), prime_flags(limit)))


SMALL_PRIMES = _sieve_primes(TRIAL_DIVISION_BOUND)
_SMALL_PRIME_SET = frozenset(SMALL_PRIMES)
_SMALL_PRODUCT = prod(SMALL_PRIMES)
_SHORT_PRODUCT = prod(p for p in SMALL_PRIMES if p < 200)


def _miller_rabin(n: int, a: int) -> bool:
    """One strong-pseudoprime round; n odd > 2, witness a reduced mod n."""
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _fold_shape(n: int) -> tuple[int, int, int] | None:
    """(k, s, h) with n = 2**k + s*2**h + 1, s = +-1, 1 <= h <= k/2 + 1, or
    None; a Gaussian Mersenne norm of odd prime k has h = (k + 1)/2."""
    m = n - 1
    k = m.bit_length() - 1
    for s, k, d in ((1, k, m - (1 << k)), (-1, k + 1, (2 << k) - m)):
        h = d.bit_length() - 1
        if d > 1 and d == 1 << h and 2 * h <= k + 2:
            return k, s, h
    return None


def _folded_pow(a: int, e: int, n: int, k: int, s: int, h: int) -> int:
    """pow(a, e, n) for n of _fold_shape (k, s, h) and a base a < 2**14.

    As 2**k = -1 - s*2**h (mod n), x = hi*2**k + lo folds to
    lo - hi - s*hi*2**h by a shift and a mask, where pow divides.  Three
    folds take each step's x*x*a (2k + 16 bits) to about 3k/2, k + 16 and k
    bits; with two, x grows step by step.  x may go negative between folds;
    one % n at the end settles it.
    """
    mask = (1 << k) - 1
    plus = s > 0
    x = 1
    for bit in bin(e)[2:]:
        x *= x
        if bit == "1":
            x *= a
        for _ in range(3):
            hi = x >> k
            x = (x & mask) - hi - (hi << h) if plus else (x & mask) - hi + (hi << h)
    return x % n


def _pocklington(n: int) -> bool | None:
    """True or False when Pocklington's criterion decides n, else None.

    If F divides n - 1 with F*F > n, a base a with a**(n-1) = 1 (mod n) and
    gcd(a**((n-1)/q) - 1, n) = 1 for the prime q of F proves n prime
    (Pocklington 1914), and a**(n-1) != 1 proves it composite.  F is the
    least power of q = 2 or 3 with F*F > n.  Once a**(n-1) = 1 the gcd is 1
    or n (a proper one would split n into two cofactors that are 1 mod F),
    so a base with gcd n proves nothing and the next one is tried.  Base q
    is skipped: q is a unit times min**2 (N(min) = q), so q**(12k) = 1
    modulo min**k - 1, and on the norms of the Mersenne scans (prime k) q
    never decides.  Above FOLD_MIN_BITS an n of _fold_shape is powered by
    _folded_pow, any other n by pow.
    """
    s = isqrt(n)
    shape = _fold_shape(n) if n.bit_length() > FOLD_MIN_BITS else None
    for q in (2, 3):
        f = q
        while f <= s:
            f *= q
        if (n - 1) % f:
            continue
        e = (n - 1) // q
        for a in SMALL_PRIMES:
            if a == q:
                continue
            x = _folded_pow(a, e, n, *shape) if shape else pow(a, e, n)
            if pow(x, q, n) != 1:
                return False
            if gcd(x - 1, n) == 1:
                return True
        return None
    return None


def divisor_in_classes(n: int, modulus: int, residues) -> int | None:
    """A divisor g of n with 1 < g < n among the l > 1 in the residues
    (ascending, in [0, modulus)) mod modulus, or None.

    mersenne and cyclotomic._record pass the classes that the prime factors
    of a Mersenne norm of prime k are forced into, and prove it.  The walk
    takes the first n.bit_length() such l in increasing order and multiplies
    them into batches of about n.bit_length() bits, one gcd per batch, so
    it costs a small fraction of one modular power.  Correctness does not
    rest on the classes: a returned g always divides n properly.
    """
    if modulus < 2 or not residues:
        raise ValueError("need a modulus >= 2 and at least one residue")
    candidates = (b + r for b in count(0, modulus) for r in residues if b + r > 1)
    bits = n.bit_length()
    batch, members = 1, []
    for i, ell in enumerate(islice(candidates, bits), 1):
        batch *= ell
        members.append(ell)
        if batch.bit_length() < bits and i < bits:
            continue
        g = gcd(n, batch)
        if g == n:
            # n divides this batch: try its members one by one
            g = next((h for m in members if 1 < (h := gcd(n, m)) < n), 1)
        if g > 1:
            return g
        batch, members = 1, []
    return None


def is_rational_prime(n: int) -> bool:
    """Whether n is prime, decided in this order:

    1. n < TRIAL_DIVISION_BOUND is prime exactly when it is in SMALL_PRIMES;
    2. n sharing a factor with the product of SMALL_PRIMES is composite;
       the product of those below 200 goes first, as it settles most n in
       a fraction of the time;
    3. otherwise n < TRIAL_DIVISION_BOUND**2 is prime;
    4. from 2**64 on, Pocklington's criterion, when it applies;
    5. below PSI13, the first t fixed witnesses, t least with n < psi_t;
    6. from PSI13 on, MR_ROUNDS_LARGE rounds seeded by PRIMALITY_SEED ^ n.

    Only step 6 is probabilistic.
    """
    if n < TRIAL_DIVISION_BOUND:
        return n in _SMALL_PRIME_SET
    if gcd(n, _SHORT_PRODUCT) != 1 or gcd(n, _SMALL_PRODUCT) != 1:
        return False
    if n < TRIAL_DIVISION_BOUND * TRIAL_DIVISION_BOUND:
        return True
    return _witness_verdict(n)


@lru_cache(maxsize=64)
def _witness_verdict(n: int) -> bool:
    """Steps 4 to 6 of is_rational_prime; cached, as factor asks twice per prime."""
    if n >= 1 << 64:
        proven = _pocklington(n)
        if proven is not None:
            return proven
    if n < PSI13:
        t = bisect_right(_PSI, n) + 1
        return all(_miller_rabin(n, a) for a in _MR_WITNESSES[:t])
    rng = random.Random(PRIMALITY_SEED ^ n)
    return all(
        _miller_rabin(n, rng.randrange(2, n - 1)) for _ in range(MR_ROUNDS_LARGE)
    )


@dataclass(frozen=True)
class RationalFactorization:
    """sign * product(p**e) == the factored integer, primes strictly increasing."""

    sign: int
    factors: tuple[tuple[int, int], ...]

    def value(self) -> int:
        out = self.sign
        for p, e in self.factors:
            out *= p**e
        return out


def _brent_rho(n: int, rng: random.Random) -> int:
    """A nontrivial factor of odd composite n (Brent 1980)."""
    while True:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = gcd(q, n)
                k += m
            r <<= 1
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if g != n:
            return g


def factor_rational(n: int) -> RationalFactorization:
    """Complete factorization of a nonzero integer, recomposing exactly."""
    if n == 0:
        raise ValueError("cannot factor zero")
    sign = 1
    if n < 0:
        sign, n = -1, -n
    counts: dict[int, int] = {}
    # g is the product of the small primes dividing n; trial division of g
    # finds them, and once p * p > g what is left of g is the last one
    g = gcd(n, _SMALL_PRODUCT)
    for p in SMALL_PRIMES:
        if g == 1:
            break
        if p * p > g:
            p = g
        if g % p == 0:
            g //= p
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            counts[p] = e
    if n > 1:
        stack = [n]
        rng = random.Random(FACTOR_SEED ^ n)
        while stack:
            m = stack.pop()
            if is_rational_prime(m):
                counts[m] = counts.get(m, 0) + 1
                continue
            d = _brent_rho(m, rng)
            stack.append(d)
            stack.append(m // d)
    return RationalFactorization(sign, tuple(sorted(counts.items())))


def smallest_prime_factor_sieve(limit: int) -> array:
    """spf[n] = smallest prime factor of n for 2 <= n <= limit (spf[0..1] = 0, 1).

    Stored as a compact int32 array so large sieves fork-share cheaply
    across worker processes.  Each prime p <= sqrt(limit) is written over
    its multiples from p*p on, the largest first, so the smallest prime
    writes last.
    """
    spf = array("i", range(limit + 1))
    for p in reversed(_sieve_primes(isqrt(limit))):
        spf[p * p :: p] = array("i", [p]) * len(range(p * p, limit + 1, p))
    return spf


def factor_with_sieve(n: int, spf: array) -> list[tuple[int, int]]:
    """Factor n (2 <= n <= sieve limit) into ascending (prime, exponent) pairs."""
    out: list[tuple[int, int]] = []
    while n > 1:
        p = spf[n]
        e = 0
        while spf[n] == p:
            n //= p
            e += 1
            if n == 1:
                break
        out.append((p, e))
    return out
