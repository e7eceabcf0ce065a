"""Faults injected into a sector scan's prime table, for the tests that
expect a scan invariant breach.

Each fault clears the cached contexts and wraps one step of the table's
construction: the enumeration of (N(pi), a, b) triples or the rows built
from them.  FAULTS maps each name to (install, the breach message).
"""

from cycloperfect import search


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


def sigma_row(monkeypatch):
    # N(sigma(pi)) of the first odd prime times the residue characteristic:
    # pi itself, and the even classes it divides, look non-deficient
    build_rows = search._prime_rows

    def rows(ring, bound, primes):
        out = build_rows(ring, bound, primes)
        (pn, psn, *pairs), *higher = out[1]
        out[1] = ((pn, psn * ring.residue_char, *pairs), *higher)
        return out

    monkeypatch.setattr(search, "_BUILT", {})
    monkeypatch.setattr(search, "_prime_rows", rows)


FAULTS = {
    "dropped": (dropped, "scanned"),
    "repeated": (repeated, "repeats a prime"),
    "associate": (associate, "is not in the sector"),
    "wrong_norm": (wrong_norm, "lacks norm"),
    "sigma_row": (sigma_row, "do not fit"),
}
