"""Generalized Mersenne numbers (minimal_prime**k - 1) and the even
(norm-)perfect integers built from their prime instances.

The element itself is computed by exact powering; primality reduces to
rational primality of the norm, with the one escape hatch of an element
that is an associate of an inert rational prime (norm q**2).  For prime k,
a small divisor of the norm proves a composite before any modular power.
Its walk tries only l = 1 (mod lcm(k, unit_count)): if a prime above a
split l divides min**k - 1, min has order k modulo it (min - 1 is a unit),
so k | l - 1, and a split l is 1 mod 4 in Z[i] and 1 mod 6 in Z[w].  An
inert l would have min**l = conj(min) (mod l), so l | min - conj(min), of
norm 4 - t**2, or l | N(min) - 1: only l = 2 in Z[w], at k = 3, divides.
Composite exponents are skipped in scans: k = m*n factors the element as
(min**m - 1) * sum_j (min**m)**j, and the witness is available on demand.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from .factorization import Factorization, is_ring_prime
from .parallel import run_chunks
from .rational import divisor_in_classes, is_rational_prime
from .rings import QuadInt, Ring

# Residue modulus used to report k in records: the construction variants
# are governed by k mod 8 (Gaussian) and k mod 12 (Eisenstein), twice the
# unit count, as minimal_prime**2 = residue_char * (t + theta).
def k_residue_modulus(ring: Ring) -> int:
    return 2 * ring.unit_count


@dataclass(frozen=True)
class MersenneRecord:
    ring: Ring
    k: int
    element: QuadInt
    norm: int
    k_residue: int
    is_prime: bool
    prime_exponent_ok: bool

    def to_json(self) -> dict:
        return {
            "ring": self.ring.value,
            "k": self.k,
            "element": self.element.to_json(),
            "norm": str(self.norm),
            "k_residue": self.k_residue,
            "is_prime": self.is_prime,
            "prime_exponent_ok": self.prime_exponent_ok,
        }


def mersenne_element(ring: Ring, k: int) -> QuadInt:
    if k < 1:
        raise ValueError("k must be >= 1")
    return ring.minimal_prime**k - 1


def mersenne(ring: Ring, k: int) -> MersenneRecord:
    element = mersenne_element(ring, k)
    norm = element.norm()
    prime_exponent_ok = is_rational_prime(k)
    # a proper divisor g of the norm proves the element composite unless
    # norm == g*g, which a prime (an associate of an inert q) can have
    split = lcm(k, ring.unit_count)
    g = divisor_in_classes(norm, split, (1,)) if prime_exponent_ok else None
    return MersenneRecord(
        ring=ring,
        k=k,
        element=element,
        norm=norm,
        k_residue=k % k_residue_modulus(ring),
        is_prime=(g is None or g * g == norm) and is_ring_prime(element),
        prime_exponent_ok=prime_exponent_ok,
    )


def mersenne_norm_closed_form(k: int) -> int | None:
    """Closed-form Eisenstein Mersenne norm for k = 0, +-1, +-2 (mod 12).

    Returns None for the residues the closed form does not cover.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    r = k % 12
    if r in (2, 10):
        return 3**k - 3 ** (k // 2) + 1
    if r in (1, 11):
        return 3**k - 3 ** ((k + 1) // 2) + 1
    if r == 0:
        return 3**k - 2 * 3 ** (k // 2) + 1
    return None


def composite_exponent_witness(ring: Ring, k: int) -> tuple[QuadInt, QuadInt]:
    """Cofactors (min**m - 1, sum_{j<n} min**(m*j)) for k = m*n, multiplying
    to the Mersenne element; the left one is a proper non-unit divisor."""
    if k < 4 or is_rational_prime(k):
        raise ValueError("k must be composite and >= 4")
    m = next(d for d in range(2, k) if k % d == 0)
    n = k // m
    base = ring.minimal_prime**m
    left = base - 1
    right = QuadInt(ring, 0, 0)
    power = QuadInt(ring, 1, 0)
    for _ in range(n):
        right = right + power
        power = power * base
    return left, right


def candidate_factorization(
    ring: Ring, k: int, variant: str = "plain", unit: QuadInt | None = None
) -> tuple[QuadInt, Factorization]:
    """The candidate together with its known prime factorization, so that
    Mersenne-scale elements never need a generic norm factorization."""
    if variant not in ("plain", "conjugated"):
        raise ValueError(f"unknown variant {variant!r}")
    if unit is None:
        unit = QuadInt(ring, 1, 0)
    elif not unit.is_unit():
        raise ValueError(f"{unit} is not a unit")
    rec = mersenne(ring, k)
    if not rec.is_prime:
        raise ValueError(f"Mersenne element for k={k} is composite")
    part = rec.element if variant == "plain" else rec.element.conjugate()
    element = unit * ring.minimal_prime ** (k - 1) * part
    u_m, m_canonical = part.sector_canonical()
    factors = [(ring.minimal_prime, k - 1), (m_canonical, 1)]
    factors.sort(key=lambda f: (f[0].norm(), f[0].a, f[0].b))
    return element, Factorization(unit=unit * u_m, factors=tuple(factors))


def _scan_one(args: tuple[str, int]) -> MersenneRecord:
    ring_value, k = args
    return mersenne(Ring(ring_value), k)


def scan(
    ring: Ring,
    k_max: int,
    residues: set[int] | None = None,
    jobs: int | None = None,
    progress_cb=None,
) -> list[MersenneRecord]:
    """Records for every rational prime exponent k <= k_max.

    Composite k are skipped (their elements are never prime); the residue
    filter, when given, keeps only k with k mod 8/12 in the set.
    """
    if k_max < 2:
        raise ValueError("k_max must be >= 2")
    modulus = k_residue_modulus(ring)
    ks = [
        k
        for k in range(2, k_max + 1)
        if is_rational_prime(k)
        and (residues is None or k % modulus in residues)
    ]
    # largest exponent first: the cost grows steeply with k, and the pool
    # then ends on small exponents instead of one core running a large one
    records: list[MersenneRecord] = []
    work = [(ring.value, k) for k in reversed(ks)]
    for rec in run_chunks(_scan_one, work, jobs):
        records.append(rec)
        if progress_cb is not None:
            progress_cb(len(records))
    records.reverse()
    return records
