"""The generalized sum-of-divisors function and perfection classification.

sigma of an element is the product over its canonical prime powers of the
geometric sums 1 + pi + ... + pi**e, accumulated Horner-style so no ring
division ever happens.  A unit has the empty factorization and sigma 1.

An element x is perfect when sigma(x) equals minimal_prime * x exactly,
norm-perfect when that equality holds after taking norms, and abundant or
deficient according to the strict inequality direction.  classify hands
back a Classification, x's coordinates with sigma(x) and the two norms, and
the sector scans its integer row; _sign is the one rule from norms to
status and json_rows, which reads integer rows, the one JSON writer.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .factorization import Factorization, factor, is_ring_prime
from .rings import QuadInt, Ring

PRIMITIVITY_DIVISOR_BUDGET = 10**6


class Status(enum.Enum):
    DEFICIENT = "deficient"
    NORM_PERFECT = "norm_perfect"
    ABUNDANT = "abundant"

    def __str__(self) -> str:
        return self.value


def _sign(char: int, norm: int, sigma_norm: int) -> int:
    """-1, 0 or 1 as N(sigma(x)) is below, equal to or above char * N(x),
    char the residue characteristic (the norm of the minimal prime): the
    index of x's status in _STATUS and of its JSON text in _STATUS_TEXT."""
    target = char * norm
    return (sigma_norm > target) - (sigma_norm < target)


_STATUS = (Status.NORM_PERFECT, Status.ABUNDANT, Status.DEFICIENT)
_STATUS_TEXT = tuple(f'"{s.value}"' for s in _STATUS)


@dataclass(slots=True, order=True)
class Classification:
    """x = a + b*theta classified: sigma(x), both norms, whether sigma
    equals minimal_prime * x and, when checked, whether a norm-perfect x is
    primitive.  The field order makes the natural order (norm, a, b), a scan
    report's order.  sigma is a field, so dataclasses.replace can build a
    classification with a wrong sigma; the row is not frozen, as a frozen
    dataclass's __init__ costs a scan about 1 us more per row."""

    norm: int
    a: int
    b: int
    sigma: QuadInt
    sigma_norm: int
    perfect: bool
    primitive: bool | None = None

    @property
    def ring(self) -> Ring:
        return self.sigma.ring

    @property
    def element(self) -> QuadInt:
        return QuadInt(self.ring, self.a, self.b)

    @property
    def even(self) -> bool:
        return self.element.is_even()

    @property
    def status(self) -> Status:
        return _STATUS[_sign(self.ring.residue_char, self.norm, self.sigma_norm)]

    def row(self) -> tuple:
        """A scan's integer row: (norm, a, b, sigma.a, sigma.b, sigma_norm, perfect)."""
        return (self.norm, self.a, self.b, self.sigma.a, self.sigma.b, self.sigma_norm, self.perfect)

    @classmethod
    def from_row(cls, ring: Ring, row: tuple) -> Classification:
        norm, a, b, sa, sb, sn, perfect = row
        return cls(norm, a, b, QuadInt(ring, sa, sb), sn, perfect)

    @property
    def perfect_unit(self) -> QuadInt | None:
        """The unit u for which u*x is perfect, for a norm-perfect x whose
        associate class holds a perfect element; else None."""
        if self.status is not Status.NORM_PERFECT:
            return None
        return perfect_associate_unit(self.element, self.sigma)


_JSON_LITERAL = {False: "false", True: "true", None: "null"}


def json_rows(ring: Ring, rows, *, with_unit: bool, primitive: bool | None = None) -> list[str]:
    """The json.dumps(..., sort_keys=True) text of each integer row
    (Classification.row) of the ring, written straight from its integers
    with the given primitive value; with_unit adds the perfect_unit key of
    the scan reports.  The parity test is written out here rather than read
    from the even property, which would build a QuadInt per row."""
    name = ring.value
    char = ring.residue_char
    no_unit = '"perfect_unit": null, ' if with_unit else ""
    texts = []
    for norm, a, b, sa, sb, sn, perfect in rows:
        sign = _sign(char, norm, sn)
        unit = no_unit
        if with_unit and not sign:
            u = perfect_associate_unit(QuadInt(ring, a, b), QuadInt(ring, sa, sb))
            unit = f'"perfect_unit": {{"a": "{u.a}", "b": "{u.b}", "ring": "{name}"}}, ' if u else unit
        texts.append(
            f'{{"element": {{"a": "{a}", "b": "{b}", "ring": "{name}"}}, '
            f'"even": {_JSON_LITERAL[(a + b) % char == 0]}, "norm": "{norm}", '
            f'"perfect": {_JSON_LITERAL[perfect]}, {unit}"primitive": {_JSON_LITERAL[primitive]}, '
            f'"sigma": {{"a": "{sa}", "b": "{sb}", "ring": "{name}"}}, '
            f'"sigma_norm": "{sn}", "status": {_STATUS_TEXT[sign]}}}'
        )
    return texts


def _geometric_sum(pi: QuadInt, e: int) -> QuadInt:
    """1 + pi + ... + pi**e by Horner accumulation."""
    s = QuadInt(pi.ring, 1, 0)
    for _ in range(e):
        s = s * pi + 1
    return s


def sigma_from_factorization(fac: Factorization) -> QuadInt:
    total = QuadInt(fac.unit.ring, 1, 0)
    for pi, e in fac.factors:
        total = total * _geometric_sum(pi, e)
    return total


def sigma(x: QuadInt) -> QuadInt:
    """sigma depends only on the associate class of x."""
    if not x:
        raise ZeroDivisionError("sigma(0) is undefined")
    return sigma_from_factorization(factor(x))


def divisor_sum_from_factorization(fac: Factorization) -> QuadInt:
    """Sum over every exponent tuple of the product of prime powers.

    The independent road to sigma: enumerate the divisor lattice outright
    and add the divisors up, products of the canonical primes as-is.
    """
    ring = fac.unit.ring
    divisors = [QuadInt(ring, 1, 0)]
    for pi, e in fac.factors:
        powers = [QuadInt(ring, 1, 0)]
        for _ in range(e):
            powers.append(powers[-1] * pi)
        divisors = [d * p for d in divisors for p in powers]
    total = QuadInt(ring, 0, 0)
    for d in divisors:
        total = total + d
    return total


def _is_primitive(fac: Factorization, minimal_norm: int) -> bool:
    """No proper, non-associate divisor may itself be norm-perfect.

    Walks the divisor lattice multiplicatively over norms only; the full
    exponent tuple (the class of the element itself) is excluded.
    """
    lattice_size = 1
    for _, e in fac.factors:
        lattice_size *= e + 1
    if lattice_size > PRIMITIVITY_DIVISOR_BUDGET:
        raise ValueError(
            f"divisor lattice of size {lattice_size} exceeds budget {PRIMITIVITY_DIVISOR_BUDGET}"
        )
    # per-prime tables of (norm(pi^j), norm(sigma(pi^j)))
    tables = []
    for pi, e in fac.factors:
        npi = pi.norm()
        row = []
        s = QuadInt(pi.ring, 1, 0)
        npow = 1
        for j in range(e + 1):
            row.append((npow, s.norm()))
            npow *= npi
            s = s * pi + 1
        tables.append(row)
    pairs = [(1, 1)]
    for row in tables:
        pairs = [
            (n * pn, sn * psn)
            for (n, sn) in pairs
            for (pn, psn) in row
        ]
    # Prime-power norms grow strictly with the exponent, so the full tuple is
    # the unique divisor of maximal norm; skipping it by norm excludes exactly
    # the element's own associate class.
    total_norm = fac.norm()
    for n, sn in pairs:
        if n != total_norm and sn == minimal_norm * n:
            return False
    return True


def classify(
    x: QuadInt,
    check_primitive: bool = False,
    *,
    factorization: Factorization | None = None,
) -> Classification:
    """Classify x exactly; the row holds x itself, not the sector
    representative of its class.

    factorization may carry factor(x) precomputed; it is used as given, so
    a correct one changes only the cost, never the result.
    """
    if not x:
        raise ZeroDivisionError("cannot classify zero")
    fac = factorization if factorization is not None else factor(x)
    sig = sigma_from_factorization(fac)
    n = x.norm()
    ns = sig.norm()
    c = x.ring.residue_char  # == norm of the minimal prime
    perfect = sig == x.ring.minimal_prime * x
    primitive: bool | None = None
    if check_primitive and not _sign(c, n, ns):  # norm-perfect
        primitive = _is_primitive(fac, c)
    return Classification(n, x.a, x.b, sig, ns, perfect, primitive)


def perfect_associate_unit(x: QuadInt, sig: QuadInt) -> QuadInt | None:
    """The unit u for which u*x is perfect, if any associate of x is; sig
    is sigma(x).

    sigma is constant on the associate class, so u*x is perfect exactly
    when sigma(x) == minimal * u * x; at most one unit qualifies.
    """
    base = x.ring.minimal_prime * x
    for u in x.ring.units:
        if u * base == sig:
            return u
    return None


def check_spira_inequality(alpha: QuadInt, n: int) -> bool:
    """norm(1 + alpha + ... + alpha**n) >= norm(alpha)**n, required to hold
    whenever Re(alpha) >= 1 and alpha is neither 0 nor 1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if alpha.real_part_doubled() < 2 or not alpha or alpha == QuadInt(alpha.ring, 1, 0):
        raise ValueError("requires Re(alpha) >= 1 and alpha not in {0, 1}")
    return _geometric_sum(alpha, n).norm() >= alpha.norm() ** n


def check_mcdaniel_inequality(psi: QuadInt, n: int) -> bool:
    """Cleared-denominator form of the strict sigma growth bound for odd
    positive primes: 5*N(sigma(psi^n))*N(psi) > N(psi^n)*(5*N(psi)+5*2Re(psi)-7)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if psi.is_even():
        raise ValueError("psi must be odd")
    if not psi.in_sector() or not is_ring_prime(psi):
        raise ValueError("psi must be a sector-canonical ring prime")
    npsi = psi.norm()
    lhs = 5 * _geometric_sum(psi, n).norm() * npsi
    rhs = npsi**n * (5 * npsi + 5 * psi.real_part_doubled() - 7)
    return lhs > rhs


def check_odd_power_divisibility(psi: QuadInt, m: int) -> bool:
    """Whether 3 divides norm(sigma(psi**m)) for an odd Eisenstein prime psi."""
    if psi.ring is not Ring.EISENSTEIN:
        raise ValueError("defined for the Eisenstein ring")
    if psi.is_even():
        raise ValueError("psi must be odd")
    if m < 0:
        raise ValueError("m must be >= 0")
    return _geometric_sum(psi, m).norm() % 3 == 0
