"""Exhaustive desk-scale searches and theorem-shaped structural validators.

Sector scans visit exactly one representative per associate class
(Gaussian a > 0, b >= 0; Eisenstein a > b >= 0) without factoring any: a
depth-first walk over the sector primes, found on a table of prime flags,
builds each class from its prime powers, carrying its norm and the norm of
its sigma as integers (_walk_chunk).  Every non-deficient class becomes a
finding, an integer row (divisors.Classification.row), and the report
writes its JSON text straight from the rows (divisors.json_rows).  verify's
sweeps walk the same table, factorization and sigma in hand (factor_sweep).
The number of classes visited must equal an independent count of the
region (count_sector_classes).  Results come back in input order and are
sorted, so reports are identical no matter how many processes run."""

from __future__ import annotations

import json
import time
from bisect import bisect_right
from dataclasses import dataclass
from math import isqrt

from .divisors import (
    Classification,
    Status,
    classify,
    divisor_sum_from_factorization,
    json_rows,
)
from .factorization import Factorization, factor
from .mersenne import NORM_PERFECT_K_RESIDUES
from .parallel import run_chunks
from .rational import is_rational_prime, prime_flags, smallest_prime_factor_sieve
from .rings import QuadInt, Ring

DEFAULT_SCAN_LIMIT = 200_000
PRIME_SEARCH_LIMIT = 10**6
# chunks a walk's subtrees are dealt into
_WALK_CHUNKS = 8
# a factor sweep stops once it holds more failures than this
_MAX_FAILURES = 20


class ScanInvariantError(RuntimeError):
    """An internal consistency assertion failed mid-scan."""


# -- region enumeration -------------------------------------------------------


def a_range(ring: Ring, bound: int) -> range:
    if ring is Ring.GAUSSIAN:
        return range(1, isqrt(bound) + 1)
    # norm >= 3a^2/4 inside the sector
    return range(1, isqrt(4 * bound // 3) + 2)


def _strip(ring: Ring, bound: int, a: int) -> range:
    """The b of the sector points a + b*theta with norm <= bound.  The
    Eisenstein strip at a holds the b in [0, a) with
    (2b - a)**2 <= 4*bound - 3*a**2."""
    if ring is Ring.GAUSSIAN:
        return range(isqrt(bound - a * a) + 1 if a * a <= bound else 0)
    disc = 4 * bound - 3 * a * a
    if disc < 0:
        return range(0)
    r = isqrt(disc)
    return range(max(0, (a - r + 1) // 2), min(a - 1, (a + r) // 2) + 1)


def strip_points(ring: Ring, bound: int, a: int):
    """Yield (b, norm) for the sector points in the strip at this a."""
    aa, ta = a * a, ring.t * a
    for b in _strip(ring, bound, a):
        yield b, aa + b * (b - ta)  # a^2 - t*a*b + b^2


def iter_sector(ring: Ring, bound: int):
    """All sector representatives with 0 < norm <= bound, as (a, b, norm)."""
    for a in a_range(ring, bound):
        for b, n in strip_points(ring, bound, a):
            yield a, b, n


def count_sector_classes(ring: Ring, bound: int) -> int:
    """Sector classes with 0 < norm <= bound, summed strip by strip in
    O(sqrt(bound))."""
    return sum(len(_strip(ring, bound, a)) for a in a_range(ring, bound))


def count_lattice_points(ring: Ring, bound: int) -> int:
    """Nonzero lattice points with norm <= bound, counted over a full box."""
    t = ring.t
    count = 0
    m = isqrt(4 * bound) + 2
    for a in range(-m, m + 1):
        for b in range(-m, m + 1):
            if 0 < a * a - t * a * b + b * b <= bound:
                count += 1
    return count


# -- shared worker context ------------------------------------------------------
#
# Each item a walk deals carries the (large, read-only) context, which forked
# workers inherit with the list of items: it is never pickled.  _BUILT keeps
# the last context built for each ring: a sweep of the same ring and bound
# reuses it, and the other ring at the same bound its sieves (_shared).

_BUILT: dict[Ring, dict] = {}


def _build_context(ring: Ring, bound: int) -> dict:
    """The prime flags and the prime table, the one enumeration of the
    sector's primes.  rows[i] belongs to the i-th sector prime pi of norm
    <= bound in (norm, a, b) order (rows[0] is the minimal prime) and holds
    (N(pi)**j, N(sigma(pi**j)), pi**j, sigma(pi**j)) for each j >= 1 with
    N(pi)**j <= bound, elements as integer pairs.  norms[i] is N(pi), and
    norms[-1] = bound + 1 stops every walk."""
    ctx = _BUILT.get(ring)
    if ctx is None or ctx["bound"] != bound:
        ctx = _new_context(ring, bound)
        _BUILT[ring] = ctx
    return ctx


def _shared(bound: int, key: str, sieve):
    """A context's table under key at this bound, else sieve(bound)."""
    table = next((c[key] for c in _BUILT.values() if c["bound"] == bound and key in c), None)
    return sieve(bound) if table is None else table


def _new_context(ring: Ring, bound: int) -> dict:
    flags = _shared(bound, "flags", prime_flags)
    rows = _prime_rows(ring, bound, _sector_prime_triples(ring, bound, flags))
    norms = [row[0][0] for row in rows] + [bound + 1]
    return dict(ring=ring, bound=bound, flags=flags, rows=rows, norms=norms)


def _sector_prime_triples(ring: Ring, bound: int, flags) -> list[tuple[int, int, int]]:
    """(N(pi), a, b) for each sector prime pi = a + b*theta of norm <= bound,
    sorted: the minimal prime, the sector points of split prime norm and
    each inert q with q**2 <= bound."""
    t, char = ring.t, ring.residue_char
    primes = []
    for a in a_range(ring, bound):
        aa, ta = a * a, t * a
        # a split prime's norm a^2 - t*a*b + b^2 is a prime above char, the
        # least norm above 1
        primes += [
            (n, a, b) for b in _strip(ring, bound, a) if flags[n := aa + b * (b - ta)] and n > char
        ]
    if char <= bound:
        primes.append((char, ring.minimal_prime.a, ring.minimal_prime.b))
    inert = (q for q in range(2, isqrt(bound) + 1) if ring.is_inert(q) and flags[q])
    primes += [(q * q, q, 0) for q in inert]
    primes.sort()
    return primes


def _prime_rows(ring: Ring, bound: int, primes: list[tuple[int, int, int]]) -> list[tuple]:
    """The table rows (see _build_context) of the (N(pi), a, b) triples.
    The first must be the minimal prime, every prime must lie in the sector,
    no two may be equal and each pi**j must have norm N(pi)**j, or
    ScanInvariantError is raised."""
    t = ring.t
    if len(set(primes)) != len(primes):
        raise ScanInvariantError(f"the {ring} prime table repeats a prime")
    least = ring.minimal_prime
    if primes and primes[0] != (ring.residue_char, least.a, least.b):
        raise ScanInvariantError(f"the {ring} prime table does not start with {least}")
    rows = []
    for n, a, b in primes:
        if not (b >= 0 and a > t * b):
            raise ScanInvariantError(f"prime {QuadInt(ring, a, b)} is not in the sector")
        row = []
        pn, xa, xb, sa, sb = n, a, b, a + 1, b  # N(pi), pi, sigma(pi) = 1 + pi
        while True:
            if xa * xa - t * xa * xb + xb * xb != pn:
                raise ScanInvariantError(f"{QuadInt(ring, a, b)}**{len(row) + 1} lacks norm {pn}")
            row.append((pn, sa * sa - t * sa * sb + sb * sb, xa, xb, sa, sb))
            pn *= n
            if pn > bound:
                break
            # times pi, theta**2 = -1 - t*theta; sigma also plus 1
            bd, sd = xb * b, sb * b
            xa, xb = xa * a - bd, xa * b + xb * a - t * bd
            sa, sb = sa * a - sd + 1, sa * b + sb * a - t * sd
        rows.append(tuple(row))
    return rows


def _finding(ring: Ring, n: int, sn: int, xa: int, xb: int, sa: int, sb: int) -> tuple:
    """The integer row of the class of x = xa + xb*theta, of norm n, whose
    sigma sa + sb*theta has norm sn: x turns into the sector, and both norms
    are checked on the pairs, or ScanInvariantError is raised."""
    t = ring.t
    # times the generator t + theta of the units until in the sector
    while not (xb >= 0 and xa > t * xb):
        xa, xb = t * xa - xb, xa
    if xa * xa - t * xa * xb + xb * xb != n or sa * sa - t * sa * sb + sb * sb != sn:
        raise ScanInvariantError(f"norms {n}, {sn} do not fit x {xa}, {xb}, sigma {sa}, {sb}")
    # minimal_prime * x: (1+i)(a+bi) resp. (2+w)(a+bw)
    perfect = sa == (1 + t) * xa - xb and sb == xa + xb
    return (n, xa, xb, sa, sb, sn, perfect)


def _walk_chunk(item) -> tuple[int, list[tuple]]:
    """Visit the classes of each start (v, i) of the item (ctx, starts): of
    minimal-prime exponent v and least other prime the table's i-th, or for
    i = 0 the root minimal_prime**v alone.  Returns (visited, findings).

    A node carries its norm and N(sigma), and x and sigma(x) as integer
    pairs where a finding or a child needs them; its children multiply in
    pi_k**j for each prime pi_k after its own in the table, so by unique
    factorization no class is visited twice.
    """
    ctx, starts = item
    ring, bound, rows, norms = ctx["ring"], ctx["bound"], ctx["rows"], ctx["norms"]
    t, char = ring.t, ring.residue_char
    visited = 0
    findings: list[tuple] = []

    def walk(lo, hi, n, sn, xa, xb, sa, sb):
        nonlocal visited
        for k in range(lo, hi):
            if n * norms[k] > bound:
                break
            after = norms[k + 1]
            for pn, psn, pa, pb, qa, qb in rows[k]:
                m = n * pn
                if m > bound:
                    break
                visited += 1
                msn = sn * psn
                found = msn >= char * m
                inner = m * after <= bound
                if not (found or inner):
                    continue  # a deficient leaf needs no pairs
                bd = xb * pb
                ya, yb = xa * pa - bd, xa * pb + xb * pa - t * bd
                bd = sb * qb
                ta, tb = sa * qa - bd, sa * qb + sb * qa - t * bd
                if found:
                    findings.append(_finding(ring, m, msn, ya, yb, ta, tb))
                if inner:
                    walk(k + 1, len(rows), m, msn, ya, yb, ta, tb)

    for v, i in starts:
        root = rows[0][v - 1] if v else (1, 1, 1, 0, 1, 0)
        if i:
            walk(i, i + 1, *root)
            continue
        visited += 1
        if root[1] >= char * root[0]:
            findings.append(_finding(ring, *root))
    return visited, findings


def _every_class(ctx: dict, starts: list[tuple[int, int]]):
    """Yield (n, x, fac, sigma) for every class of the starts, as _walk_chunk
    visits them but skipping none: the norm, x in the sector, the walk's
    Factorization of x (unit the power of t + theta that turned the product
    into the sector, primes from ctx["primes"]) and sigma(x) as a pair."""
    ring, bound, rows, norms = ctx["ring"], ctx["bound"], ctx["rows"], ctx["norms"]
    t, units, primes = ring.t, ring.units, ctx["primes"]

    def visit(n, xa, xb, sa, sb, powers):
        r = 0
        while not (xb >= 0 and xa > t * xb):
            xa, xb, r = t * xa - xb, xa, r + 1
        return n, QuadInt(ring, xa, xb), Factorization(units[r], powers), (sa, sb)

    def walk(lo, hi, n, xa, xb, sa, sb, powers):
        for k in range(lo, hi):
            if n * norms[k] > bound:
                break
            for j, (pn, _, pa, pb, qa, qb) in enumerate(rows[k], 1):
                m = n * pn
                if m > bound:
                    break
                bd = xb * pb
                ya, yb = xa * pa - bd, xa * pb + xb * pa - t * bd
                bd = sb * qb
                ta, tb = sa * qa - bd, sa * qb + sb * qa - t * bd
                node = (m, ya, yb, ta, tb, (*powers, (primes[k], j)))
                yield visit(*node)
                if m * norms[k + 1] <= bound:
                    yield from walk(k + 1, len(rows), *node)

    for v, i in starts:
        n, _, *pairs = rows[0][v - 1] if v else (1, 1, 1, 0, 1, 0)
        root = (n, *pairs, ((primes[0], v),) if v else ())
        yield from walk(i, i + 1, *root) if i else [visit(*root)]


def _sweep_chunk(item) -> tuple[int, list[tuple]]:
    """Run check(x, fac, n, sigma, spf) on each class of the item (ctx,
    starts, check) and return (classes checked, ((n, a, b) of x, failure)
    pairs), stopping once more than _MAX_FAILURES are held."""
    ctx, starts, check = item
    checked, failures = 0, []
    for checked, (n, x, fac, sigma) in enumerate(_every_class(ctx, starts), 1):
        failures += [((n, x.a, x.b), f) for f in check(x, fac, n, sigma, ctx["spf"])]
        if len(failures) > _MAX_FAILURES:
            break
    return checked, failures


def _divisor_sum_mismatch(x: QuadInt, fac: Factorization, n: int, sigma, spf) -> list[QuadInt]:
    s = divisor_sum_from_factorization(fac)
    return [] if (s.a, s.b) == sigma else [x]


def _deal(walker, ctx: dict, jobs, parity: str, prune: bool, *args):
    """Deal the walk's starts (v, i) for the classes of this parity round-robin
    into _WALK_CHUNKS items (ctx, starts, *args); return (pruned, results).
    prune skips the even classes of a minimal-prime exponent no norm-perfect
    class has, counted as pruned.  results yields (classes so far, pruned
    included, walker's second result) per item in input order, then raises
    ScanInvariantError unless every class of the parity was counted."""
    ring, bound, norms = ctx["ring"], ctx["bound"], ctx["norms"]
    char = ring.residue_char
    # v = 0 roots the odd classes, each v >= 1 the even classes of
    # minimal-prime exponent v, which have odd parts of norm <= limit
    starts, pruned = [], 0
    v_stop = 1 if parity == "odd" else bound.bit_length()
    for v in range(1 if parity == "even" else 0, v_stop):
        limit = bound // char**v
        if not limit:
            break
        if prune and v and (v + 1) % 12 not in NORM_PERFECT_K_RESIDUES[ring]:
            pruned += count_sector_classes(ring, limit) - count_sector_classes(ring, limit // char)
            continue
        starts += [(v, i) for i in range(bisect_right(norms, limit, 1, len(norms) - 1))]
    work = [(ctx, starts[k::_WALK_CHUNKS], *args) for k in range(min(_WALK_CHUNKS, len(starts)))]

    def results():
        scanned = pruned
        for visited, found in run_chunks(walker, work, jobs):
            scanned += visited
            yield scanned, found
        # completeness: C(B) classes in all, C(B // char) of them even
        every, even = count_sector_classes(ring, bound), count_sector_classes(ring, bound // char)
        want = {"all": every, "odd": every - even, "even": even}[parity]
        if scanned != want:
            raise ScanInvariantError(
                f"scanned {scanned} of the {want} {parity} classes of norm <= {bound}"
            )

    return pruned, results()


# -- public sweeps ---------------------------------------------------------------


def factor_sweep(ring: Ring, bound: int, check, jobs: int | None = None) -> tuple[int, list]:
    """Run check(x, fac, n, sigma, spf) on every class of norm <= bound as
    the walk builds it (_every_class), spf the smallest-prime-factor sieve
    to bound.  Returns (checked, failures), sorted by their class's (norm,
    a, b).  Taken in input order, the failures stop after the class that
    brings them past _MAX_FAILURES; else every class must have been visited."""
    ctx = _build_context(ring, bound)
    if "spf" not in ctx:
        ctx["spf"] = _shared(bound, "spf", smallest_prime_factor_sieve)
        ctx["primes"] = sector_primes(ring, bound)
    _, results = _deal(_sweep_chunk, ctx, jobs, "all", False, check)
    checked, failures = 0, []
    for checked, found in results:
        failures += found
        if len(failures) > _MAX_FAILURES:
            # its own count <= the total, so this chunk holds the whole class past the cap
            last = failures[_MAX_FAILURES][0]
            failures[_MAX_FAILURES:] = [f for f in failures[_MAX_FAILURES:] if f[0] == last]
            break
    failures.sort(key=lambda failure: failure[0])  # stable within a class
    return checked, [f for _, f in failures]


def oracle_equivalence_sweep(ring: Ring, bound: int, jobs: int | None = None) -> tuple[int, list]:
    """The walk's sigma of every class of norm <= bound against the divisor
    enumeration on the walk's factorization: (checked, mismatches)."""
    return factor_sweep(ring, bound, _divisor_sum_mismatch, jobs)


def sector_primes(ring: Ring, bound: int) -> list[QuadInt]:
    """All sector-canonical primes of norm <= bound, ascending by (norm, a, b)."""
    return [QuadInt(ring, a, b) for (_, _, a, b, _, _), *_ in _build_context(ring, bound)["rows"]]


@dataclass(frozen=True)
class SearchReport:
    ring: Ring
    norm_bound: int
    parity: str
    scanned: int
    pruned: int
    rows: tuple[tuple, ...]  # the findings as sorted Classification.row tuples
    wall_time: float

    @property
    def findings(self) -> tuple[Classification, ...]:
        return tuple(Classification.from_row(self.ring, row) for row in self.rows)

    def json_text(self, **extra) -> str:
        """The report as json.dumps({**self.to_json(), **extra},
        sort_keys=True) writes it: json.dumps writes each scalar key and
        divisors.json_rows each finding."""
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
        rows = json_rows(self.ring, self.rows, with_unit=True)
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
            unit = f.perfect_unit
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
    ctx = _build_context(ring, norm_bound)
    pruned, results = _deal(_walk_chunk, ctx, jobs, parity, prune)
    scanned, findings = pruned, []
    for scanned, found in results:
        findings.extend(found)
        if progress_cb is not None:
            progress_cb(scanned)
    findings.sort()  # by (norm, a, b), which no two classes share
    return SearchReport(
        ring=ring,
        norm_bound=norm_bound,
        parity=parity,
        scanned=scanned,
        pruned=pruned,
        rows=tuple(findings),
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
