"""Exhaustive desk-scale searches and theorem-shaped structural validators.

Sector scans enumerate exactly one representative per associate class
(Gaussian a > 0, b >= 0; Eisenstein a > b >= 0) and decide deficiency from
integers alone (the norm lane, see _norm_lane).  Every non-deficient class
becomes a Finding, a row of integers certified by one exact division and a
sigma-norm check (_certify), and the report writes its JSON text straight
from the rows.  The region is partitioned into strips of the a coordinate;
workers return their rows and the parent sorts them, so reports are
identical no matter how many processes run.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from math import isqrt
from typing import NamedTuple

from .divisors import (
    Status,
    _geometric_sum,
    classify,
    divisor_sum_from_factorization,
    perfect_associate_unit,
    sigma_from_factorization,
)
from .factorization import Factorization, _split_exponents, factor
from .mersenne import NORM_PERFECT_K_RESIDUES
from .parallel import run_chunks
from .rational import (
    factor_with_sieve,
    is_rational_prime,
    smallest_prime_factor_sieve,
)
from .rings import QuadInt, Ring

DEFAULT_SCAN_LIMIT = 200_000
PRIME_SEARCH_LIMIT = 10**6
_CHUNK_TARGET_POINTS = 6_000
# a factor sweep stops after the first point at which it holds more failures
_MAX_FAILURES = 20


class ScanInvariantError(RuntimeError):
    """An internal consistency assertion failed mid-scan."""


# -- region enumeration -------------------------------------------------------


def a_range(ring: Ring, bound: int) -> range:
    if ring is Ring.GAUSSIAN:
        return range(1, isqrt(bound) + 1)
    # norm >= 3a^2/4 inside the sector
    return range(1, isqrt(4 * bound // 3) + 2)


def strip_points(ring: Ring, bound: int, a: int):
    """Yield (b, norm) for the sector points in the strip at this a."""
    if ring is Ring.GAUSSIAN:
        aa = a * a
        if aa > bound:
            return
        for b in range(isqrt(bound - aa) + 1):
            yield b, aa + b * b
    else:
        aa = a * a
        disc = 4 * bound - 3 * aa
        if disc < 0:
            return
        s = isqrt(disc)
        b_lo = max(0, (a - s) // 2 - 1)
        b_hi = min(a - 1, (a + s) // 2 + 1)
        for b in range(b_lo, b_hi + 1):
            n = aa - a * b + b * b
            if n <= bound:
                yield b, n


def iter_sector(ring: Ring, bound: int):
    """All sector representatives with 0 < norm <= bound, as (a, b, norm)."""
    for a in a_range(ring, bound):
        for b, n in strip_points(ring, bound, a):
            yield a, b, n


def count_sector_classes(ring: Ring, bound: int) -> int:
    return sum(1 for _ in iter_sector(ring, bound))


def count_lattice_points(ring: Ring, bound: int) -> int:
    """Nonzero lattice points with norm <= bound, counted over a full box."""
    count = 0
    m = isqrt(4 * bound) + 2
    for a in range(-m, m + 1):
        for b in range(-m, m + 1):
            if a == 0 and b == 0:
                continue
            if ring is Ring.GAUSSIAN:
                n = a * a + b * b
            else:
                n = a * a - a * b + b * b
            if n <= bound:
                count += 1
    return count


# -- shared worker context ------------------------------------------------------
#
# Sweeps fork their workers, so the parent publishes the (large, read-only)
# sieve and prime tables here right before creating the pool.  _BUILT keeps
# the last context built for each ring: a sweep of the same ring and bound
# reuses it, and the other ring at the same bound reuses its spf sieve.

_CTX: dict = {}
_BUILT: dict[Ring, dict] = {}


def _build_context(ring: Ring, bound: int) -> None:
    """Publish the sieve and the prime tables of the norm lane, the one
    enumeration of the sector's primes (sector_primes reads it too).

    split maps each split rational prime q up to the bound to
    (pi, pi_bar, t, powers, bar_powers): pi and pi_bar are the two sector
    primes of norm q (pi first in sector order), and t = -a_pi / b_pi (mod q)
    is the image of theta in Z[theta]/pi, so pi divides a + b*theta exactly
    when a + b*t = 0 (mod q).  whole maps the ramified prime and each inert q
    that can divide a norm up to the bound to (pi, d, powers), where pi is
    the one prime above q and N(pi) = q**d.  powers (bar_powers) is the
    prime's cache of _prime_power entries, extended on demand in each
    process; every list starts with the one shared entry for j = 0.
    split_pi maps each split q to its pi, the split_lookup factor() takes.
    """
    ctx = _BUILT.get(ring)
    if ctx is None or ctx["bound"] != bound:
        ctx = _new_context(ring, bound)
        _BUILT[ring] = ctx
    _CTX.clear()
    _CTX.update(ctx)


def _new_context(ring: Ring, bound: int) -> dict:
    spf = next((c["spf"] for c in _BUILT.values() if c["bound"] == bound), None)
    if spf is None:
        spf = smallest_prime_factor_sieve(bound)
    above: dict[int, list[QuadInt]] = {}
    for a, b, n in iter_sector(ring, bound):
        if n >= 2 and spf[n] == n and not ring.is_ramified(n):
            above.setdefault(n, []).append(QuadInt(ring, a, b))
    one = QuadInt(ring, 1, 0)
    zeroth = (1, one, one)  # sigma(pi**0) = pi**0 = 1 for every prime
    split: dict[int, tuple] = {}
    for q, primes in above.items():
        if len(primes) != 2:
            raise ScanInvariantError(f"{len(primes)} sector primes of norm {q}")
        pi, pi_bar = primes
        split[q] = (pi, pi_bar, -pi.a * pow(pi.b, -1, q) % q, [zeroth], [zeroth])
    whole: dict[int, tuple] = {ring.residue_char: (ring.minimal_prime, 1, [zeroth])}
    for q in range(2, isqrt(bound) + 1):
        if ring.is_inert(q) and spf[q] == q:
            whole[q] = (QuadInt(ring, q, 0), 2, [zeroth])
    return dict(
        ring=ring,
        bound=bound,
        spf=spf,
        split=split,
        whole=whole,
        split_pi={q: v[0] for q, v in split.items()},
    )


def _chunks(ring: Ring, bound: int) -> list[tuple[int, int]]:
    """Contiguous a-intervals of roughly equal point counts."""
    rng = a_range(ring, bound)
    chunks = []
    start = None
    points = 0
    for a in rng:
        if start is None:
            start = a
        if ring is Ring.GAUSSIAN:
            points += isqrt(max(bound - a * a, 0)) + 1
        else:
            points += min(a, (isqrt(max(4 * bound - 3 * a * a, 0)) + a) // 2 + 1)
        if points >= _CHUNK_TARGET_POINTS:
            chunks.append((start, a + 1))
            start, points = None, 0
    if start is not None:
        chunks.append((start, rng.stop))
    return chunks


def _sweep_chunk(args) -> tuple[int, list[list]]:
    """Factor each point of the chunk and collect the non-empty results of
    check(x, fac, n), one list per failing point, stopping once more than
    _MAX_FAILURES are held."""
    chunk, check = args
    ring, bound, spf, split_pi = _CTX["ring"], _CTX["bound"], _CTX["spf"], _CTX["split_pi"]
    checked = held = 0
    failures: list[list] = []
    for a in range(*chunk):
        for b, n in strip_points(ring, bound, a):
            x = QuadInt(ring, a, b)
            fac = factor(x, norm_factors=factor_with_sieve(n, spf), split_lookup=split_pi)
            found = check(x, fac, n)
            checked += 1
            if found:
                failures.append(found)
                held += len(found)
                if held > _MAX_FAILURES:
                    return checked, failures
    return checked, failures


def _oracle_check(x: QuadInt, fac: Factorization, n: int) -> list[QuadInt]:
    if sigma_from_factorization(fac) != divisor_sum_from_factorization(fac):
        return [x]
    return []


def _prime_power(pi: QuadInt, powers: list, j: int) -> tuple[int, QuadInt, QuadInt]:
    """powers[j] = (N(sigma(pi**j)), sigma(pi**j), pi**j), extending the
    cache as far as j."""
    while len(powers) <= j:
        k = len(powers)
        s = _geometric_sum(pi, k)
        powers.append((s.norm(), s, pi**k))
    return powers[j]


def _norm_lane(a: int, b: int, n: int) -> tuple[int, list[tuple[QuadInt, int, list]]]:
    """N(sigma(x)) and the (prime, exponent, powers) terms of x = a + b*theta,
    powers being the prime's _prime_power cache.

    Integer arithmetic only: the exponents come from the sieve factorization
    of the norm n.  A ramified prime takes the exponent of q, an inert one
    half of it, and a split q's pi and pi_bar share it by
    factorization._split_exponents, the rule factor() uses.  Terms come in
    no particular order and omit zero exponents.
    """
    split, whole = _CTX["split"], _CTX["whole"]
    sn = 1
    terms: list[tuple[QuadInt, int, list]] = []
    for q, e in factor_with_sieve(n, _CTX["spf"]):
        s = split.get(q)
        if s is None:
            pi, d, powers = whole[q]
            if e % d:
                raise ScanInvariantError(f"exponent {e} of inert {q} in norm {n} is odd")
            sn *= _prime_power(pi, powers, e // d)[0]
            terms.append((pi, e // d, powers))
            continue
        pi, pi_bar, t, powers, bar_powers = s
        try:
            j, j_bar = _split_exponents(a, b, q, e, t)
        except ArithmeticError as err:
            raise ScanInvariantError(f"{err} in norm {n}") from err
        if j:
            sn *= _prime_power(pi, powers, j)[0]
            terms.append((pi, j, powers))
        if j_bar:
            sn *= _prime_power(pi_bar, bar_powers, j_bar)[0]
            terms.append((pi_bar, j_bar, bar_powers))
    return sn, terms


class Finding(NamedTuple):
    """A non-deficient class of a sector scan as a row of integers: the
    class a + b*theta, its sigma sigma_a + sigma_b*theta, both norms and
    whether sigma equals minimal_prime * x.  The field order makes a plain
    sort the report order (norm, a, b)."""

    norm: int
    a: int
    b: int
    sigma_a: int
    sigma_b: int
    sigma_norm: int
    perfect: bool
    ring: Ring

    @property
    def element(self) -> QuadInt:
        return QuadInt(self.ring, self.a, self.b)

    @property
    def sigma(self) -> QuadInt:
        return QuadInt(self.ring, self.sigma_a, self.sigma_b)

    @property
    def even(self) -> bool:
        return (self.a + self.b) % self.ring.residue_char == 0

    @property
    def status(self) -> Status:
        return _status(self.ring.residue_char, self.norm, self.sigma_norm)


def _status(char: int, norm: int, sigma_norm: int) -> Status:
    """The class's status from its norm, the residue characteristic (the
    norm of the minimal prime) and the norm of its sigma."""
    target = char * norm
    if sigma_norm < target:
        return Status.DEFICIENT
    if sigma_norm == target:
        return Status.NORM_PERFECT
    return Status.ABUNDANT


def _breach(ring: Ring, a: int, b: int, terms: list, reason: str) -> ScanInvariantError:
    pairs = [(pi, j) for pi, j, _ in terms]
    return ScanInvariantError(
        f"lane exponents {pairs} fail at {QuadInt(ring, a, b)}: {reason}"
    )


def _certify(ring: Ring, a: int, b: int, n: int, sn: int, terms: list) -> Finding:
    """The finding of x = a + b*theta of norm n, certified from the lane's
    (prime, exponent, powers) terms and sigma norm sn on integer pairs.

    Every exponent must be at least 1 and the primes pairwise distinct and
    in the sector.  P, the product of the cached pi**j, must divide x to a
    unit: x * conj(P) is N(P) times a quotient of norm 1, so by unique
    factorization the exponents are proven.  sigma, the product of the
    cached sigma(pi**j), must have norm sn.  A failed check raises
    ScanInvariantError.  Pairs multiply by theta**2 = -1 - t*theta, with
    t = 0 (Gaussian) or 1 (Eisenstein).
    """
    t = 0 if ring is Ring.GAUSSIAN else 1
    pa, pb = 1, 0  # P
    sa, sb = 1, 0  # sigma
    seen = set()
    for pi, j, powers in terms:
        c, d = pi.a, pi.b
        if j < 1:
            raise _breach(ring, a, b, terms, f"exponent {j} of {pi} is not positive")
        if (c, d) in seen or not (c > 0 and d >= 0 if t == 0 else c > d >= 0):
            raise _breach(ring, a, b, terms, f"prime {pi} is repeated or not canonical")
        seen.add((c, d))
        _, s, power = _prime_power(pi, powers, j)
        c, d = power.a, power.b
        bd = pb * d
        pa, pb = pa * c - bd, pa * d + pb * c - t * bd
        c, d = s.a, s.b
        bd = sb * d
        sa, sb = sa * c - bd, sa * d + sb * c - t * bd
    # x * conj(P), with conj(c + d*theta) = (c - t*d) - d*theta
    norm_p = pa * pa - t * pa * pb + pb * pb
    ua, ra = divmod(a * (pa - t * pb) + b * pb, norm_p)
    ub, rb = divmod(b * pa - a * pb, norm_p)
    if ra or rb or ua * ua - t * ua * ub + ub * ub != 1:
        raise _breach(ring, a, b, terms, "the prime powers do not divide it to a unit")
    sigma_norm = sa * sa - t * sa * sb + sb * sb
    if sigma_norm != sn:
        raise ScanInvariantError(
            f"lane sigma norm {sn} differs from {sigma_norm} at {QuadInt(ring, a, b)}"
        )
    # minimal_prime * x: (1+i)(a+bi) resp. (2+w)(a+bw)
    perfect = sa == (1 + t) * a - b and sb == a + b
    return Finding(n, a, b, sa, sb, sigma_norm, perfect, ring)


def _classify_chunk(args) -> tuple[int, int, list[Finding]]:
    chunk, parity, prune = args
    ring, bound = _CTX["ring"], _CTX["bound"]
    char = ring.residue_char
    allowed = NORM_PERFECT_K_RESIDUES[ring]
    scanned = 0
    pruned = 0
    findings: list[Finding] = []
    for a in range(*chunk):
        for b, n in strip_points(ring, bound, a):
            even = (a + b) % char == 0
            if parity == "odd" and even:
                continue
            if parity == "even" and not even:
                continue
            scanned += 1
            if prune and even:
                # multiplicity of the minimal prime in x equals the
                # multiplicity of the ramified rational prime in the norm
                v = 0
                nn = n
                while nn % char == 0:
                    nn //= char
                    v += 1
                if (v + 1) % 12 not in allowed:
                    pruned += 1
                    continue
            sn, terms = _norm_lane(a, b, n)
            if sn < char * n:
                continue
            findings.append(_certify(ring, a, b, n, sn, terms))
    return scanned, pruned, findings


# -- public sweeps ---------------------------------------------------------------


def factor_sweep(
    ring: Ring, bound: int, check, jobs: int | None = None
) -> tuple[int, list]:
    """Factor every class representative of norm <= bound and run
    check(x, fac, n) on each; check is a module-level function returning a
    list of failures.  Returns (checked, failures) with the failures in
    sector order, stopping after the first point at which more than
    _MAX_FAILURES are held."""
    _build_context(ring, bound)
    checked = 0
    failures: list = []
    work = [(c, check) for c in _chunks(ring, bound)]
    for c, found in run_chunks(_sweep_chunk, work, jobs):
        checked += c
        for point_failures in found:
            failures.extend(point_failures)
            if len(failures) > _MAX_FAILURES:
                return checked, failures
    return checked, failures


def oracle_equivalence_sweep(
    ring: Ring, bound: int, jobs: int | None = None
) -> tuple[int, list[QuadInt]]:
    """Compare sigma with the divisor-enumeration oracle on every class
    representative of norm <= bound; returns (checked, mismatches)."""
    return factor_sweep(ring, bound, _oracle_check, jobs)


def sector_primes(ring: Ring, bound: int) -> list[QuadInt]:
    """All sector-canonical primes of norm <= bound, ascending by (norm, a, b)."""
    _build_context(ring, bound)
    primes = [pi for s in _CTX["split"].values() for pi in s[:2]]
    # whole always holds the ramified prime, even above the bound
    primes += [w[0] for w in _CTX["whole"].values() if w[0].norm() <= bound]
    primes.sort(key=lambda x: (x.norm(), x.a, x.b))
    return primes


def perfect_unit(f: Finding) -> QuadInt | None:
    """The unit u for which u*f.element is perfect, for a norm-perfect
    finding whose associate class holds a perfect element; else None."""
    if f.status is not Status.NORM_PERFECT:
        return None
    return perfect_associate_unit(f.element, f.sigma)


_JSON_BOOL = ("false", "true")


@dataclass(frozen=True)
class SearchReport:
    ring: Ring
    norm_bound: int
    parity: str
    scanned: int
    pruned: int
    findings: tuple[Finding, ...]
    wall_time: float

    def json_text(self, **extra) -> str:
        """The report as json.dumps({**self.to_json(), **extra},
        sort_keys=True) writes it, built from the rows: json.dumps writes
        each scalar key, one format string each finding."""
        head = {
            "ring": self.ring.value,
            "norm_bound": self.norm_bound,
            "parity": self.parity,
            "scanned": self.scanned,
            "pruned": self.pruned,
            "wall_time": self.wall_time,
            **extra,
        }
        items = {
            key: f"{json.dumps(key)}: {json.dumps(value, sort_keys=True)}"
            for key, value in sorted(head.items())
        }
        before = "".join(text + ", " for key, text in items.items() if key < "findings")
        after = "".join(", " + text for key, text in items.items() if key > "findings")
        name = self.ring.value
        char = self.ring.residue_char
        rows = []
        for f in self.findings:
            norm, a, b, sa, sb, sn, perfect, _ = f
            status = _status(char, norm, sn)
            unit = "null"
            if status is Status.NORM_PERFECT and (u := perfect_unit(f)) is not None:
                unit = f'{{"a": "{u.a}", "b": "{u.b}", "ring": "{name}"}}'
            rows.append(
                f'{{"element": {{"a": "{a}", "b": "{b}", "ring": "{name}"}}, '
                f'"even": {_JSON_BOOL[(a + b) % char == 0]}, "norm": "{norm}", '
                f'"perfect": {_JSON_BOOL[perfect]}, "perfect_unit": {unit}, '
                f'"primitive": null, "sigma": {{"a": "{sa}", "b": "{sb}", "ring": "{name}"}}, '
                f'"sigma_norm": "{sn}", "status": "{status.value}"}}'
            )
        # one copy of the findings text, then one of the whole: each copy of
        # a large report adds its size to the peak
        return f'{{{before}"findings": [{", ".join(rows)}]{after}}}'

    def to_json(self) -> dict:
        return json.loads(self.json_text())

    def csv_rows(self) -> list[list[str]]:
        rows = [
            [
                "element",
                "norm",
                "status",
                "even",
                "perfect",
                "sigma_norm",
                "perfect_unit",
            ]
        ]
        for f in self.findings:
            unit = perfect_unit(f)
            rows.append(
                [
                    str(f.element),
                    str(f.norm),
                    f.status.value,
                    str(f.even).lower(),
                    str(f.perfect).lower(),
                    str(f.sigma_norm),
                    str(unit) if unit is not None else "",
                ]
            )
        return rows


def sector_scan(
    ring: Ring,
    norm_bound: int,
    parity: str = "all",
    jobs: int | None = None,
    prune: bool = False,
    progress_cb=None,
) -> SearchReport:
    """Classify one representative per associate class up to the norm bound.

    Findings list every non-deficient class.  With prune=True, even classes
    whose minimal-prime exponent cannot belong to a norm-perfect integer
    (k mod 12 outside the admissible residues) are skipped; the finding
    list then remains complete for norm-perfect entries only.
    """
    if parity not in ("all", "odd", "even"):
        raise ValueError(f"unknown parity filter {parity!r}")
    if norm_bound < 0:
        raise ValueError(f"norm bound {norm_bound} is negative")
    if norm_bound > DEFAULT_SCAN_LIMIT:
        raise ValueError(f"norm bound {norm_bound} exceeds the limit {DEFAULT_SCAN_LIMIT}")
    t0 = time.monotonic()
    _build_context(ring, norm_bound)
    scanned = pruned = 0
    findings: list[Finding] = []
    work = [(c, parity, prune) for c in _chunks(ring, norm_bound)]
    for s, p, fs in run_chunks(_classify_chunk, work, jobs):
        scanned += s
        pruned += p
        findings.extend(fs)
        if progress_cb is not None:
            progress_cb(scanned)
    findings.sort()
    return SearchReport(
        ring=ring,
        norm_bound=norm_bound,
        parity=parity,
        scanned=scanned,
        pruned=pruned,
        findings=tuple(findings),
        wall_time=time.monotonic() - t0,
    )


def find_normperfect_primes(ring: Ring, norm_bound: int) -> list[QuadInt]:
    """All sector-canonical primes psi with norm <= bound and
    norm(sigma(psi)) = norm(minimal) * norm(psi)."""
    if norm_bound < 0:
        raise ValueError(f"norm bound {norm_bound} is negative")
    if norm_bound > PRIME_SEARCH_LIMIT:
        raise ValueError(f"norm bound {norm_bound} exceeds the limit {PRIME_SEARCH_LIMIT}")
    char = ring.residue_char
    # sigma(psi) = 1 + psi for a canonical prime psi
    return [
        psi
        for psi in sector_primes(ring, norm_bound)
        if (psi + 1).norm() == char * psi.norm()
    ]


# -- structural validators ---------------------------------------------------------


@dataclass(frozen=True)
class OddFormReport:
    element: QuadInt
    unit: QuadInt
    special_prime: QuadInt | None
    special_exponent: int | None
    special_residue: int | None
    p1: tuple[tuple[QuadInt, int, int], ...]
    p2: tuple[tuple[QuadInt, int, int], ...]
    conforms: bool
    violated_condition: str | None


def _special_condition(residue: int, exponent: int) -> bool:
    """Exponent condition making 3 divide norm(sigma(psi**e))."""
    if residue == 1:
        return exponent % 3 == 2
    return exponent % 2 == 1


def validate_odd_form(x: QuadInt) -> OddFormReport:
    """Check the odd norm-perfect form: exactly one prime power may carry the
    divisibility condition; other residue-1 exponents avoid 2 mod 3 and other
    residue-2 exponents are even."""
    if x.ring is not Ring.EISENSTEIN:
        raise ValueError("odd-form validation applies to the Eisenstein ring")
    if x.is_even():
        raise ValueError("element must be odd")
    fac = factor(x)
    rows = [(p, e, p.residue_mod_minimal()) for p, e in fac.factors]
    candidates = [row for row in rows if _special_condition(row[2], row[1])]
    if len(candidates) == 1:
        special = candidates[0]
        conforms, violated = True, None
    else:
        special = None
        conforms = False
        if not candidates:
            violated = "no prime power satisfies the special divisibility condition"
        else:
            violated = (
                "multiple prime powers satisfy the special divisibility condition: "
                + ", ".join(str(row[0]) for row in candidates)
            )
    rest = [row for row in rows if row is not special]
    return OddFormReport(
        element=x,
        unit=fac.unit,
        special_prime=special[0] if special else None,
        special_exponent=special[1] if special else None,
        special_residue=special[2] if special else None,
        p1=tuple(row for row in rest if row[2] == 1),
        p2=tuple(row for row in rest if row[2] == 2),
        conforms=conforms,
        violated_condition=violated,
    )


def validate_ward_form(x: QuadInt) -> bool:
    """Odd norm-perfect Gaussian integers have the shape psi**k * rho**2 with
    k odd: exactly one prime exponent is odd."""
    if x.ring is not Ring.GAUSSIAN:
        raise ValueError("this form applies to the Gaussian ring")
    if x.is_even():
        raise ValueError("element must be odd")
    odd_exponents = sum(1 for _, e in factor(x).factors if e % 2 == 1)
    return odd_exponents == 1


def validate_parker_form(x: QuadInt) -> bool:
    """The conjectured odd form psi**k * gamma**3 with k = 2 (mod 3): one
    exponent is 2 mod 3 and every other is 0 mod 3."""
    if x.ring is not Ring.EISENSTEIN:
        raise ValueError("this form applies to the Eisenstein ring")
    if x.is_even():
        raise ValueError("element must be odd")
    exponents = [e % 3 for _, e in factor(x).factors]
    return exponents.count(2) == 1 and all(r in (0, 2) for r in exponents)


def no_normperfect_prime_equation(bound: int) -> list[tuple[int, int]]:
    """Integer solutions of 3(a^2-ab+b^2) = (a+1)^2 - (a+1)b + b^2 in the box
    |a|, |b| <= bound.

    The equation rewrites to 2a^2 - 2a(b+1) + (2b^2+b-1) = 0, a quadratic in
    a with discriminant 12(1-b^2), so each b admits a direct exact solve;
    every candidate is re-checked against the displayed equation.
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    solutions = set()
    for b in range(-bound, bound + 1):
        disc = 3 * (1 - b * b)
        if disc < 0:
            continue
        s = isqrt(disc)
        if s * s != disc:
            continue
        for root in {(b + 1 + s), (b + 1 - s)}:
            if root % 2:
                continue
            a = root // 2
            if abs(a) > bound:
                continue
            if 3 * (a * a - a * b + b * b) == (a + 1) ** 2 - (a + 1) * b + b * b:
                solutions.add((a, b))
    return sorted(solutions)


def check_rational_perfect_remark(k: int) -> bool:
    """Classify N = 2^(k-1) (2^k - 1) inside the Eisenstein ring; True when N
    is not norm-perfect.  When 2^k - 1 is prime it must split into the two
    conjugate primes with equal exponent 1, and that is asserted."""
    if k <= 2:
        raise ValueError("k must be an odd rational prime > 2")
    m = 2**k - 1
    x = QuadInt(Ring.EISENSTEIN, 2 ** (k - 1) * m, 0)
    fac = factor(x)
    if is_rational_prime(m):
        above = [(p, e) for p, e in fac.factors if p.norm() == m]
        conjugates = (
            len(above) == 2
            and above[0][1] == above[1][1] == 1
            and above[0][0].conjugate().sector_canonical()[1] == above[1][0]
        )
        if not conjugates:
            raise ScanInvariantError(
                f"2^{k}-1 did not split into conjugate primes of exponent 1"
            )
    cls = classify(x, factorization=fac)
    return cls.status is not Status.NORM_PERFECT
