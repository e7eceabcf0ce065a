"""Faults injected into a sector scan's prime table, for the tests that
expect a scan invariant breach, and into the routes verify's sweeps compare.

Each table fault clears the cached contexts and wraps one step of the
table's construction: the enumeration of (N(pi), a, b) triples or the rows
built from them.  FAULTS maps each name to (install, the breach message).
conjugate_sigma keeps every norm, so no scan breaks on it and only the
oracle sweep catches it; swapped_split_exponents wraps verify's factor,
which only the recomposition sweep reads.
"""

from cycloperfect import search, verify
from cycloperfect.factorization import Factorization, _conjugate_prime
from cycloperfect.rings import QuadInt


def _edit_primes(monkeypatch, edit):
    enumerate_primes = search._sector_prime_triples
    monkeypatch.setattr(search, "_BUILT", {})
    monkeypatch.setattr(
        search,
        "_sector_prime_triples",
        lambda ring, bound, spf: edit(enumerate_primes(ring, bound, spf)),
    )


def dropped(monkeypatch):
    # the fourth prime (3, resp. one above 7) goes missing
    _edit_primes(monkeypatch, lambda primes: primes[:3] + primes[4:])


def repeated(monkeypatch):
    _edit_primes(monkeypatch, lambda primes: primes + [primes[1]])


def _edit_first_odd(monkeypatch, edit):
    """edit(n, a, b) replaces the triple of the first prime after the minimal one."""
    _edit_primes(monkeypatch, lambda primes: [primes[0], edit(*primes[1]), *primes[2:]])


def associate(monkeypatch):
    # -pi is an associate of pi outside the sector
    _edit_first_odd(monkeypatch, lambda n, a, b: (n, -a, -b))


def wrong_norm(monkeypatch):
    _edit_first_odd(monkeypatch, lambda n, a, b: (n + 1, a, b))


def _edit_row(monkeypatch, edit, split=False):
    """edit(ring, row) replaces the table row of pi**1 for the first odd
    prime pi, or with split the first split one."""
    build_rows = search._prime_rows

    def rows(ring, bound, primes):
        out = build_rows(ring, bound, primes)
        # after the minimal prime, a split prime is one with b > 0
        k = next(k for k in range(1, len(out)) if out[k][0][3] or not split)
        first, *higher = out[k]
        out[k] = (edit(ring, first), *higher)
        return out

    monkeypatch.setattr(search, "_BUILT", {})
    monkeypatch.setattr(search, "_prime_rows", rows)


def sigma_row(monkeypatch):
    # N(sigma(pi)) of the first odd prime times the residue characteristic:
    # pi itself, and the even classes it divides, look non-deficient
    _edit_row(monkeypatch, lambda ring, row: (row[0], row[1] * ring.residue_char, *row[2:]))


def conjugate_sigma(monkeypatch):
    # sigma(pi) of the first split prime replaced by its conjugate, of the
    # same norm: every class with pi**1 gets a wrong sigma
    def edit(ring, row):
        sigma = QuadInt(ring, row[4], row[5]).conjugate()
        return (*row[:4], sigma.a, sigma.b)

    _edit_row(monkeypatch, edit, split=True)


def swapped_split_exponents(monkeypatch):
    # verify's factor gives each split prime's exponent to the conjugate
    # prime above the same q
    real = verify.factor

    def swapped(x, **kwargs):
        fac = real(x, **kwargs)
        split = [
            (_conjugate_prime(p) if p.b and p != x.ring.minimal_prime else p, e)
            for p, e in fac.factors
        ]
        split.sort(key=lambda f: (f[0].norm(), f[0].a, f[0].b))
        return Factorization(fac.unit, tuple(split))

    monkeypatch.setattr(verify, "factor", swapped)


FAULTS = {
    "dropped": (dropped, "scanned"),
    "repeated": (repeated, "repeats a prime"),
    "associate": (associate, "is not in the sector"),
    "wrong_norm": (wrong_norm, "lacks norm"),
    "sigma_row": (sigma_row, "do not fit"),
}
