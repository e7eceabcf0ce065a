"""Named invariant suites behind the `verify` command.

Each check returns a list of failure records (empty = pass); a suite runs
its checks in order and collects the failures.  All randomized checks draw
from generators seeded from rational.VERIFY_SEED, kept beside the other
seeds, and every default bound is part of DEFAULTS so reports can print the
exact configuration they ran under.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from . import cyclotomic as cyc
from .divisors import (
    Classification,
    Status,
    _sign,
    check_mcdaniel_inequality,
    check_odd_power_divisibility,
    check_spira_inequality,
    classify,
    sigma,
    sigma_from_factorization,
)
from .factorization import Factorization, factor, is_ring_prime, prime_above
from .mersenne import (
    candidate_factorization,
    composite_exponent_witness,
    mersenne,
    mersenne_element,
    mersenne_norm_closed_form,
    scan,
)
from .rational import (
    MR_ROUNDS_LARGE,
    TRIAL_DIVISION_BOUND,
    VERIFY_SEED,
    factor_with_sieve,
    is_rational_prime,
)
from .rings import QuadInt, Ring, _divrem, gcd, parse_element
from .search import (
    check_rational_perfect_remark,
    count_lattice_points,
    count_sector_classes,
    factor_sweep,
    find_normperfect_primes,
    no_normperfect_prime_equation,
    oracle_equivalence_sweep,
    sector_primes,
    sector_scan,
    validate_odd_form,
    validate_parker_form,
    validate_ward_form,
)

DEFAULTS = {
    "seed": VERIFY_SEED,
    "random_pairs": 10_000,
    "sector_exhaustive_range": 50,
    "recomposition_norm_bound": 1_000_000,
    "prime_property_norm_bound": 1_000_000,
    "splitting_trichotomy_bound": 10_000,
    "oracle_norm_bound": 200_000,
    "spira_samples": 1_000,
    "spira_max_n": 10,
    "mcdaniel_norm_bound": 10_000,
    "mcdaniel_max_n": 20,
    "odd_power_norm_bound": 500,
    "odd_power_max_m": 12,
    "closed_form_max_k": 60,
    "witness_max_k": 50,
    "obstruction_max_k": 60,
    "eisenstein_perfect_max_k": 400,
    "gaussian_perfect_max_k": 100,
    "equation_bound": 1_000,
    "even_scan_bound": 200_000,
    "odd_gaussian_scan_bound": 200_000,
    "prime_search_bound": 1_000_000,
    "prune_loss_bound": 100_000,
    "enumeration_bound": 10_000,
    "synthetic_conforming_samples": 1_000,
    "synthetic_norm_bound": 10_000_000_000,
    "grammar_roundtrip_samples": 10_000,
    "cross_check_range": 100,
    "cyc_random_pairs": 1_000,
    "trial_division_bound": TRIAL_DIVISION_BOUND,
    "mr_rounds_large": MR_ROUNDS_LARGE,
}


@dataclass
class VerifySuiteResult:
    suite: str
    check_ids: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    wall_time: float = 0.0

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "checks_run": len(self.check_ids),
            "check_ids": list(self.check_ids),
            "failures": list(self.failures),
            "passed": self.passed,
            "wall_time": self.wall_time,
        }


def _fail(check: str, inputs, expected, got) -> dict:
    return {
        "check": check,
        "inputs": repr(inputs),
        "expected": repr(expected),
        "got": repr(got),
    }


def _random_element(rng: random.Random, ring: Ring, span: int = 500) -> QuadInt:
    return QuadInt(ring, rng.randint(-span, span), rng.randint(-span, span))


def _random_nonzero(rng: random.Random, ring: Ring, span: int = 500) -> QuadInt:
    while True:
        x = _random_element(rng, ring, span)
        if x:
            return x


# -- core -----------------------------------------------------------------------


def _check_norm_multiplicativity(jobs) -> list[dict]:
    rng = random.Random(VERIFY_SEED)
    failures = []
    for ring in Ring:
        for _ in range(DEFAULTS["random_pairs"]):
            x = _random_element(rng, ring)
            y = _random_element(rng, ring)
            if (x * y).norm() != x.norm() * y.norm():
                failures.append(
                    _fail("norm_multiplicativity", (x, y), x.norm() * y.norm(), (x * y).norm())
                )
    return failures


def _check_conjugation(jobs) -> list[dict]:
    rng = random.Random(VERIFY_SEED + 1)
    failures = []
    for ring in Ring:
        for _ in range(DEFAULTS["random_pairs"]):
            x = _random_element(rng, ring)
            y = _random_element(rng, ring)
            if x * x.conjugate() != QuadInt(ring, x.norm(), 0):
                failures.append(_fail("x_times_conjugate", x, x.norm(), x * x.conjugate()))
            if x.conjugate().conjugate() != x:
                failures.append(_fail("conjugate_involution", x, x, x.conjugate().conjugate()))
            if (x * y).conjugate() != x.conjugate() * y.conjugate():
                failures.append(_fail("conjugate_homomorphism", (x, y), None, None))
    return failures


def _check_sector_uniqueness(jobs) -> list[dict]:
    failures = []
    r = DEFAULTS["sector_exhaustive_range"]
    for ring in Ring:
        for a in range(-r, r + 1):
            for b in range(-r, r + 1):
                if a == 0 and b == 0:
                    continue
                x = QuadInt(ring, a, b)
                hits = [y for y in x.associates() if y.in_sector()]
                if len(hits) != 1:
                    failures.append(_fail("sector_uniqueness", x, 1, len(hits)))
                    continue
                u, y = x.sector_canonical()
                if u * y != x or y != hits[0]:
                    failures.append(_fail("sector_canonical_split", x, hits[0], (u, y)))
    return failures


def _check_divrem(jobs) -> list[dict]:
    # the Euclidean step of rings.gcd, on the pairs of x and y
    rng = random.Random(VERIFY_SEED + 2)
    failures = []
    for ring in Ring:
        for _ in range(DEFAULTS["random_pairs"]):
            x = _random_element(rng, ring)
            y = _random_nonzero(rng, ring)
            qa, qb, ra, rb = _divrem(x.a, x.b, y.a, y.b, ring.t)
            q, r = QuadInt(ring, qa, qb), QuadInt(ring, ra, rb)
            if q * y + r != x or r.norm() >= y.norm():
                failures.append(_fail("divrem_contract", (x, y), "x=qy+r, N(r)<N(y)", (q, r)))
    return failures


def _check_gcd(jobs) -> list[dict]:
    rng = random.Random(VERIFY_SEED + 3)
    failures = []
    for ring in Ring:
        for _ in range(2_000):
            x = _random_nonzero(rng, ring, 60)
            y = _random_nonzero(rng, ring, 60)
            z = _random_nonzero(rng, ring, 10)
            g = gcd(x, y)
            if x.exact_divide(g) is None or y.exact_divide(g) is None:
                failures.append(_fail("gcd_divides", (x, y), "g | x and g | y", g))
            gz = gcd(x * z, y * z)
            want = (z * g).sector_canonical()[1]
            if gz != want:
                failures.append(_fail("gcd_scaling", (x, y, z), want, gz))
    return failures


def _check_is_even_or(jobs) -> list[dict]:
    rng = random.Random(VERIFY_SEED + 4)
    failures = []
    for ring in Ring:
        for _ in range(5_000):
            x = _random_nonzero(rng, ring, 100)
            y = _random_nonzero(rng, ring, 100)
            if (x * y).is_even() != (x.is_even() or y.is_even()):
                failures.append(_fail("is_even_or", (x, y), None, None))
    return failures


def _recomposition_failures(x: QuadInt, walked: Factorization, n: int, sigma, spf) -> list[dict]:
    """factor(x), by the sieve route, against the factorization the walk
    built x from: the same unit, primes and exponents by two routes."""
    fac = factor(x, norm_factors=factor_with_sieve(n, spf))
    failures = []
    if fac != walked:
        failures.append(_fail("recomposition", x, walked, fac))
    if fac.norm() != n:
        failures.append(_fail("norm_product", x, n, fac.norm()))
    if x.is_even() != any(p == x.ring.minimal_prime for p, _ in fac.factors):
        failures.append(_fail("even_iff_minimal_prime", x, x.is_even(), fac.factors))
    return failures


def _check_recomposition_sweep(jobs) -> list[dict]:
    failures = []
    bound = DEFAULTS["recomposition_norm_bound"]
    for ring in Ring:
        _, found = factor_sweep(ring, bound, _recomposition_failures, jobs)
        failures.extend(found)
        if len(failures) > 20:
            return failures
    return failures


def _check_prime_properties(jobs) -> list[dict]:
    failures = []
    bound = DEFAULTS["prime_property_norm_bound"]
    for ring in Ring:
        p_mod = 4 - ring.t  # the order of theta
        primes = sector_primes(ring, bound)
        seen = set()
        for psi in primes:
            n = psi.norm()
            if psi.is_even():
                # the ramified prime: norm 3 = 0 (mod 3), but norm 2 escapes
                # the mod-4 congruence, which only governs primes away from 2
                ok = n == ring.residue_char
            else:
                ok = n % p_mod in (0, 1)
            if not ok:
                failures.append(_fail("norm_congruence", psi, (0, 1), n % p_mod))
            if not is_ring_prime(psi):
                failures.append(_fail("is_ring_prime", psi, True, False))
            key = psi.sector_canonical()[1]
            if key in seen:
                failures.append(_fail("primes_non_associate", psi, "distinct", key))
            seen.add(key)
            if len(failures) > 20:
                return failures
    return failures


def _check_splitting_trichotomy(jobs) -> list[dict]:
    failures = []
    bound = DEFAULTS["splitting_trichotomy_bound"]
    for ring in Ring:
        q = 2
        while q <= bound:
            if is_rational_prime(q):
                pi = prime_above(q, ring)
                n = pi.norm()
                if ring.is_ramified(q):
                    ok = pi == ring.minimal_prime and n == q
                elif ring.is_inert(q):
                    ok = n == q * q and pi == QuadInt(ring, q, 0)
                else:
                    ok = n == q and pi.in_sector()
                if not ok:
                    failures.append(_fail("splitting_trichotomy", (q, ring.value), None, pi))
            q += 1
    return failures


def _check_grammar_roundtrip(jobs) -> list[dict]:
    rng = random.Random(VERIFY_SEED + 5)
    failures = []
    for ring in Ring:
        for _ in range(DEFAULTS["grammar_roundtrip_samples"]):
            x = _random_element(rng, ring, 10**12)
            back = parse_element(str(x), ring)
            if back != x:
                failures.append(_fail("grammar_roundtrip", str(x), x, back))
            if QuadInt.from_json(x.to_json()) != x:
                failures.append(_fail("json_roundtrip", x, x, QuadInt.from_json(x.to_json())))
    return failures


# -- lemmas ----------------------------------------------------------------------


def _check_oracle_equivalence(jobs) -> list[dict]:
    return [
        _fail("oracle_equivalence", x, "sigma == divisor sum", "mismatch")
        for ring in Ring
        for x in oracle_equivalence_sweep(ring, DEFAULTS["oracle_norm_bound"], jobs)[1]
    ]


def _check_spira(jobs) -> list[dict]:
    rng = random.Random(VERIFY_SEED + 6)
    failures = []
    for ring in Ring:
        samples = 0
        while samples < DEFAULTS["spira_samples"]:
            a = rng.randint(1, 40)
            b = rng.randint(-40, 40)
            x = QuadInt(ring, a, b)
            if x.real_part_doubled() < 2 or x == QuadInt(ring, 1, 0):
                continue
            n = rng.randint(1, DEFAULTS["spira_max_n"])
            samples += 1
            if not check_spira_inequality(x, n):
                failures.append(_fail("spira_inequality", (x, n), True, False))
    return failures


def _check_mcdaniel(jobs) -> list[dict]:
    failures = []
    for ring in Ring:
        for psi in sector_primes(ring, DEFAULTS["mcdaniel_norm_bound"]):
            if psi.is_even():
                continue
            for n in range(1, DEFAULTS["mcdaniel_max_n"] + 1):
                if not check_mcdaniel_inequality(psi, n):
                    failures.append(_fail("mcdaniel_inequality", (psi, n), True, False))
    return failures


def _check_odd_power_divisibility_iff(jobs) -> list[dict]:
    failures = []
    for psi in sector_primes(Ring.EISENSTEIN, DEFAULTS["odd_power_norm_bound"]):
        if psi.is_even():
            continue
        r = psi.residue_mod_minimal()
        for m in range(DEFAULTS["odd_power_max_m"] + 1):
            got = check_odd_power_divisibility(psi, m)
            want = (r == 1 and m % 3 == 2) or (r == 2 and m % 2 == 1)
            if got != want:
                failures.append(_fail("odd_power_divisibility_iff", (psi, m), want, got))
    return failures


def _check_closed_forms(jobs) -> list[dict]:
    failures = []
    for k in range(2, DEFAULTS["closed_form_max_k"] + 1):
        want = mersenne_norm_closed_form(k)
        if want is None:
            continue
        got = mersenne_element(Ring.EISENSTEIN, k).norm()
        if got != want:
            failures.append(_fail("mersenne_norm_closed_form", k, want, got))
    return failures


def _check_sigma_properties(jobs) -> list[dict]:
    rng = random.Random(VERIFY_SEED + 7)
    failures = []
    for ring in Ring:
        for _ in range(2_000):
            x = _random_nonzero(rng, ring, 60)
            sig = sigma(x)
            if sig.norm() < x.norm():
                failures.append(_fail("sigma_monotone", x, ">= N(x)", sig.norm()))
            u = ring.units[rng.randrange(len(ring.units))]
            if sigma(u * x) != sig:
                failures.append(_fail("sigma_associate_invariance", (x, u), sig, sigma(u * x)))
            y = _random_nonzero(rng, ring, 60)
            if gcd(x, y).is_unit():
                if sigma(x * y) != sig * sigma(y):
                    failures.append(_fail("sigma_multiplicativity", (x, y), None, None))
    return failures


def _check_real_parts_table(jobs) -> list[dict]:
    ring = Ring.EISENSTEIN
    listed = []
    for q in (2, 5, 7, 11):
        pi = prime_above(q, ring)
        if pi.norm() == q:  # split: both conjugates are odd positive primes
            listed.append(pi)
            listed.append(pi.conjugate().sector_canonical()[1])
        else:
            listed.append(pi)
    got = [psi.real_part_doubled() for psi in listed]
    want = [4, 10, 5, 4, 22]
    if got != want:
        return [_fail("odd_prime_real_parts", listed, want, got)]
    return []


# -- mersenne ---------------------------------------------------------------------


def _check_record_invariants(jobs) -> list[dict]:
    failures = []
    for ring in Ring:
        for k in range(2, 80):
            rec = mersenne(ring, k)
            if rec.is_prime and k >= 2 and not rec.prime_exponent_ok:
                failures.append(_fail("prime_exponent_ok", (ring.value, k), True, False))
            if rec.element != mersenne_element(ring, k):
                failures.append(_fail("record_element", (ring.value, k), None, None))
    return failures


def _check_composite_witnesses(jobs) -> list[dict]:
    failures = []
    for ring in Ring:
        for k in range(4, DEFAULTS["witness_max_k"] + 1):
            if is_rational_prime(k):
                continue
            left, right = composite_exponent_witness(ring, k)
            m = mersenne_element(ring, k)
            if left * right != m:
                failures.append(_fail("witness_product", (ring.value, k), m, left * right))
            if left.norm() <= 1 or left.norm() >= m.norm():
                failures.append(_fail("witness_proper", (ring.value, k), "proper non-unit", left))
    return failures


def _check_k11_construction(jobs) -> list[dict]:
    failures = []
    rec = mersenne(Ring.EISENSTEIN, 11)
    if rec.norm != 176419 or not rec.is_prime:
        failures.append(_fail("k11_norm", 11, 176419, rec.norm))
    # independent certification: trial division by every prime <= isqrt
    n = 176419
    if any(n % d == 0 for d in range(2, 421)):
        failures.append(_fail("k11_trial_division", n, "prime", "composite"))
    if not is_rational_prime(n):
        failures.append(_fail("k11_miller_rabin", n, True, False))
    el, fac = candidate_factorization(Ring.EISENSTEIN, 11, "conjugated")
    cls = classify(el, check_primitive=True, factorization=fac)
    if cls.sigma_norm != 3 * cls.norm or cls.status is not Status.NORM_PERFECT:
        failures.append(_fail("k11_norm_perfect", el, 3 * cls.norm, cls.sigma_norm))
    if not cls.primitive:
        failures.append(_fail("k11_primitive", el, True, cls.primitive))
    return failures


def _check_k7_gaussian(jobs) -> list[dict]:
    failures = []
    el, fac = candidate_factorization(Ring.GAUSSIAN, 7, "conjugated")
    cls = classify(el, check_primitive=True, factorization=fac)
    if cls.sigma_norm != 2 * cls.norm:
        failures.append(_fail("k7_ratio", el, 2 * cls.norm, cls.sigma_norm))
    if cls.status is not Status.NORM_PERFECT or not cls.primitive:
        failures.append(_fail("k7_norm_perfect_primitive", el, True, cls))
    return failures


def _check_residue_obstruction(jobs) -> list[dict]:
    failures = []
    records = scan(Ring.EISENSTEIN, DEFAULTS["obstruction_max_k"], jobs=jobs)
    for rec in records:
        if not rec.is_prime or rec.k % 12 in (1, 11):
            continue
        el, fac = candidate_factorization(Ring.EISENSTEIN, rec.k, "plain")
        cls = classify(el, factorization=fac)
        if cls.status is Status.NORM_PERFECT:
            failures.append(_fail("k_residue_obstruction", rec.k, "not norm-perfect", cls.status))
    return failures


def _check_eisenstein_perfect_family(jobs) -> list[dict]:
    failures = []
    minimal = Ring.EISENSTEIN.minimal_prime
    eps = QuadInt(Ring.EISENSTEIN, 0, -1)  # -w
    records = scan(Ring.EISENSTEIN, DEFAULTS["eisenstein_perfect_max_k"], jobs=jobs)
    for rec in records:
        if not rec.is_prime:
            continue
        if rec.k % 12 == 1:
            el, fac = candidate_factorization(Ring.EISENSTEIN, rec.k, "plain", eps)
            if sigma_from_factorization(fac) != minimal * el:
                failures.append(_fail("eisenstein_perfect", rec.k, "sigma == (2+w) alpha", "mismatch"))
        elif rec.k % 12 == 11:
            for u in Ring.EISENSTEIN.units:
                el, fac = candidate_factorization(Ring.EISENSTEIN, rec.k, "conjugated", u)
                if sigma_from_factorization(fac) == minimal * el:
                    failures.append(_fail("conjugated_never_perfect", (rec.k, u), "not perfect", "perfect"))
    return failures


def _check_gaussian_perfect(jobs) -> list[dict]:
    failures = []
    minimal = Ring.GAUSSIAN.minimal_prime
    eps = QuadInt(Ring.GAUSSIAN, 0, -1)  # -i
    records = scan(Ring.GAUSSIAN, DEFAULTS["gaussian_perfect_max_k"], jobs=jobs)
    flagged = [rec.k for rec in records if rec.is_prime and rec.k % 8 == 1]
    if not flagged:
        return [_fail("gaussian_perfect_flagged", DEFAULTS["gaussian_perfect_max_k"], "some k", [])]
    k = flagged[0]
    el, fac = candidate_factorization(Ring.GAUSSIAN, k, "plain", eps)
    if sigma_from_factorization(fac) != minimal * el:
        failures.append(_fail("gaussian_perfect", k, "sigma == (1+i) eta", "mismatch"))
    return failures


# -- search -----------------------------------------------------------------------


def _check_equation(jobs) -> list[dict]:
    got = no_normperfect_prime_equation(DEFAULTS["equation_bound"])
    want = [(0, -1), (1, 1)]
    if got != want:
        return [_fail("no_normperfect_prime_equation", DEFAULTS["equation_bound"], want, got)]
    return []


def _norm_perfect_findings(report) -> list[Classification]:
    """The report's norm-perfect findings, picked from its integer rows by
    their status sign: only those rows become Classifications.  A row is
    Classification.row(): row[0] is the norm and row[5] N(sigma)."""
    char = report.ring.residue_char
    return [
        Classification.from_row(report.ring, row)
        for row in report.rows
        if not _sign(char, row[0], row[5])
    ]


def _check_even_scan(jobs) -> list[dict]:
    report = sector_scan(
        Ring.EISENSTEIN, DEFAULTS["even_scan_bound"], parity="even", jobs=jobs
    )
    bad = _norm_perfect_findings(report)
    if bad:
        return [_fail("even_norm_perfect_scan", DEFAULTS["even_scan_bound"], [], bad)]
    return []


def _check_prime_sweeps(jobs) -> list[dict]:
    failures = []
    bound = DEFAULTS["prime_search_bound"]
    eis = find_normperfect_primes(Ring.EISENSTEIN, bound)
    if eis:
        failures.append(_fail("no_eisenstein_normperfect_prime", bound, [], eis))
    gau = find_normperfect_primes(Ring.GAUSSIAN, bound)
    if gau != [QuadInt(Ring.GAUSSIAN, 2, 1)]:
        failures.append(_fail("gaussian_normperfect_primes", bound, ["2+1i"], gau))
    for psi in gau:
        if not validate_ward_form(psi):
            failures.append(_fail("ward_form", psi, True, False))
    return failures


def _check_prune_no_loss(jobs) -> list[dict]:
    bound = DEFAULTS["prune_loss_bound"]
    plain = sector_scan(Ring.EISENSTEIN, bound, parity="even", jobs=jobs, prune=False)
    pruned = sector_scan(Ring.EISENSTEIN, bound, parity="even", jobs=jobs, prune=True)

    def norm_perfect_set(report):
        return {str(f.element) for f in _norm_perfect_findings(report)}

    if norm_perfect_set(plain) != norm_perfect_set(pruned):
        return [_fail("prune_no_loss", bound, norm_perfect_set(plain), norm_perfect_set(pruned))]
    return []


def _check_enumeration_completeness(jobs) -> list[dict]:
    failures = []
    bound = DEFAULTS["enumeration_bound"]
    for ring in Ring:
        classes = count_sector_classes(ring, bound)
        points = count_lattice_points(ring, bound)
        if classes * ring.unit_count != points:
            failures.append(
                _fail("enumeration_completeness", (ring.value, bound), points, classes * ring.unit_count)
            )
    return failures


def _check_remark(jobs) -> list[dict]:
    failures = []
    for k in (3, 5, 7, 13):
        if not check_rational_perfect_remark(k):
            failures.append(_fail("rational_perfect_remark", k, True, False))
    return failures


def _synthetic_conforming(rng: random.Random, p1: list[QuadInt], p2: list[QuadInt]):
    """A random odd product conforming to the odd norm-perfect form, with its
    intended special residue class; norm stays below the configured bound."""
    bound = DEFAULTS["synthetic_norm_bound"]
    special_in_p1 = rng.random() < 0.5
    if special_in_p1:
        psi0 = rng.choice(p1)
        k = rng.choice([2, 5])
    else:
        psi0 = rng.choice(p2)
        k = rng.choice([1, 3])
    x = psi0**k
    norm = x.norm()
    for _ in range(rng.randrange(3)):
        if rng.random() < 0.5:
            psi = rng.choice(p1)
            e = rng.choice([1, 3])
        else:
            psi = rng.choice(p2)
            e = rng.choice([2, 4])
        if psi == psi0:
            continue
        extra = psi.norm() ** e
        if norm * extra > bound:
            continue
        x = x * psi**e
        norm *= extra
    return x, (1 if special_in_p1 else 2)


def _check_corollary_residue(jobs) -> list[dict]:
    rng = random.Random(VERIFY_SEED + 8)
    failures = []
    pool = [p for p in sector_primes(Ring.EISENSTEIN, 2_000) if not p.is_even()]
    p1 = [p for p in pool if p.residue_mod_minimal() == 1]
    p2 = [p for p in pool if p.residue_mod_minimal() == 2]
    for _ in range(DEFAULTS["synthetic_conforming_samples"]):
        x, want = _synthetic_conforming(rng, p1, p2)
        report = validate_odd_form(x)
        if not report.conforms:
            # collisions between the random picks can break conformance; skip
            continue
        if x.residue_mod_minimal() != want:
            failures.append(_fail("corollary_residue_class", x, want, x.residue_mod_minimal()))
    return failures


def _check_parker_implies_odd_form(jobs) -> list[dict]:
    # Restricted to the residue-1-special subcase the conjectured form
    # corresponds to; outside it the implication genuinely fails (e.g. 25).
    rng = random.Random(VERIFY_SEED + 9)
    failures = []
    pool = [p for p in sector_primes(Ring.EISENSTEIN, 1_000) if not p.is_even()]
    p1 = [p for p in pool if p.residue_mod_minimal() == 1]
    p2 = [p for p in pool if p.residue_mod_minimal() == 2]
    for _ in range(500):
        x = rng.choice(p1) ** rng.choice([2, 5])
        for _ in range(rng.randrange(2)):
            x = x * rng.choice(p1) ** rng.choice([3, 6])
        for _ in range(rng.randrange(2)):
            x = x * rng.choice(p2) ** 6
        if validate_parker_form(x) and not validate_odd_form(x).conforms:
            failures.append(_fail("parker_implies_odd_form", x, True, False))
    return failures


def _check_odd_divisor_bound(jobs) -> list[dict]:
    """For the k=11 construction, every odd prime divisor psi satisfies
    5 N(psi) (3^k - N_M) > 13 N_M in exact integers."""
    failures = []
    k = 11
    el, fac = candidate_factorization(Ring.EISENSTEIN, k, "conjugated")
    n_m = mersenne_element(Ring.EISENSTEIN, k).norm()
    for p, _ in fac.factors:
        if p == Ring.EISENSTEIN.minimal_prime:
            continue
        if not 5 * p.norm() * (3**k - n_m) > 13 * n_m:
            failures.append(_fail("odd_divisor_norm_bound", p, True, False))
    return failures


def _check_odd_gaussian_scan(jobs) -> list[dict]:
    bound = DEFAULTS["odd_gaussian_scan_bound"]
    report = sector_scan(Ring.GAUSSIAN, bound, parity="odd", jobs=jobs)
    norm_perfect = [f.element for f in _norm_perfect_findings(report)]
    failures = []
    if QuadInt(Ring.GAUSSIAN, 2, 1) not in norm_perfect:
        failures.append(_fail("odd_gaussian_scan", bound, "2+1i found", norm_perfect))
    for x in norm_perfect:
        if not validate_ward_form(x):
            failures.append(_fail("ward_form_findings", x, True, False))
    return failures


# -- cyclo ------------------------------------------------------------------------


def _check_discriminants(jobs) -> list[dict]:
    failures = []
    want = {3: -3, 5: 125, 7: -16807, 4: -4}
    for p, value in want.items():
        if cyc.discriminant(p) != value:
            failures.append(_fail("discriminant", p, value, cyc.discriminant(p)))
    # independent road: disc(f) = (-1)^(d(d-1)/2) Res(f, f') for monic f,
    # with Res(Phi_p, Phi_p') = N(Phi_p'(zeta_p)) computed by cyc_norm as a
    # product of conjugates, not from the closed form (the derivative has
    # degree p-2, so it embeds as a coefficient vector unreduced)
    for p in cyc.SUPPORTED_PRIMES:
        d = p - 1
        deriv = list(range(1, p))  # ascending coefficients of Phi_p'
        res = cyc.cyc_norm(cyc.CycElement(p, deriv))
        sign = -1 if (d * (d - 1) // 2) % 2 else 1
        if sign * res != cyc.discriminant(p):
            failures.append(_fail("discriminant_resultant", p, cyc.discriminant(p), sign * res))
    return failures


def _check_ramification(jobs) -> list[dict]:
    return [
        _fail("ramification_check", p, True, False)
        for p in cyc.SUPPORTED_PRIMES
        if not cyc.ramification_check(p)
    ]


def _check_splitting_patterns(jobs) -> list[dict]:
    failures = []
    for p in cyc.SUPPORTED_PRIMES:
        for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
            if q == p:
                continue
            if not cyc.splitting_pattern_check(q, p):
                failures.append(_fail("splitting_pattern_check", (q, p), True, False))
            f = cyc.residue_degree(q, p)
            if (p - 1) % f != 0 or pow(q, f, p) != 1:
                failures.append(_fail("residue_degree", (q, p), "f | p-1, q^f = 1", f))
            if any(pow(q, d, p) == 1 for d in range(1, f)):
                failures.append(_fail("residue_degree_minimal", (q, p), "minimal", f))
    return failures


def _check_order_lemma(jobs) -> list[dict]:
    failures = []
    for p in cyc.SUPPORTED_PRIMES:
        for a in range(2, p):
            if not cyc.order_lemma_check(a, p):
                failures.append(_fail("order_lemma_check", (a, p), True, False))
    return failures


def _check_cyclo_cross_ring(jobs) -> list[dict]:
    failures = []
    r = DEFAULTS["cross_check_range"]
    for a in range(-r, r + 1):
        for b in range(-r, r + 1):
            x = QuadInt(Ring.EISENSTEIN, a, b)
            c = cyc.CycElement(3, [a, b])
            if cyc.cyc_norm(c) != x.norm():
                failures.append(_fail("cross_ring_norm", (a, b), x.norm(), cyc.cyc_norm(c)))
            if cyc.cyc_is_even(c) != x.is_even():
                failures.append(_fail("cross_ring_even", (a, b), x.is_even(), cyc.cyc_is_even(c)))
            if failures and len(failures) > 10:
                return failures
    for k in range(1, 40):
        if cyc.cyc_mersenne_norm(3, k) != mersenne_element(Ring.EISENSTEIN, k).norm():
            failures.append(_fail("cross_ring_mersenne_norm", k, None, None))
    return failures


def _check_cyc_norm_multiplicativity(jobs) -> list[dict]:
    rng = random.Random(VERIFY_SEED + 10)
    failures = []
    for p in cyc.SUPPORTED_PRIMES:
        for _ in range(DEFAULTS["cyc_random_pairs"]):
            x = cyc.CycElement(p, [rng.randint(-9, 9) for _ in range(p - 1)])
            y = cyc.CycElement(p, [rng.randint(-9, 9) for _ in range(p - 1)])
            if cyc.cyc_norm(x * y) != cyc.cyc_norm(x) * cyc.cyc_norm(y):
                failures.append(_fail("cyc_norm_multiplicativity", (p, x, y), None, None))
    return failures


def _check_general_odd_form_p3(jobs) -> list[dict]:
    rng = random.Random(VERIFY_SEED + 11)
    failures = []
    pool = [p for p in sector_primes(Ring.EISENSTEIN, 600) if not p.is_even()]
    for _ in range(500):
        x = QuadInt(Ring.EISENSTEIN, 1, 0)
        picks = {}
        for _ in range(rng.randint(1, 4)):
            psi = rng.choice(pool)
            picks[psi] = picks.get(psi, 0) + rng.randint(1, 5)
        for psi, e in picks.items():
            x = x * psi**e
        report = validate_odd_form(x)
        entries = []
        for psi, e in picks.items():
            special = report.special_prime is not None and psi == report.special_prime
            entries.append((psi.residue_mod_minimal(), e, special))
        abstract = cyc.AbstractOddFactorization(3, tuple(entries))
        try:
            ok, _why = cyc.validate_general_odd_form(abstract)
        except ValueError:
            continue
        if ok != report.conforms:
            failures.append(_fail("general_odd_form_p3", x, report.conforms, ok))
    return failures


def _check_conjecture_harness(jobs) -> list[dict]:
    failures = []
    for p in cyc.SUPPORTED_PRIMES:
        records = cyc.conjecture_records(p, DEFAULTS["closed_form_max_k"], jobs)
        for rec in records:
            if rec["k_mod_4p"] not in (1, 4 * p - 1):
                failures.append(_fail("conjecture_residues", rec, None, None))
        if p == 3:
            for rec in records:
                if int(rec["norm"]) != cyc.cyc_mersenne_norm(3, rec["k"]):
                    failures.append(_fail("conjecture_norm", rec, None, None))
    return failures


_SUITES: dict[str, list[tuple[str, callable]]] = {
    "core": [
        ("norm_multiplicativity", _check_norm_multiplicativity),
        ("conjugation_identities", _check_conjugation),
        ("sector_uniqueness", _check_sector_uniqueness),
        ("divrem_contract", _check_divrem),
        ("gcd_contract", _check_gcd),
        ("is_even_or", _check_is_even_or),
        ("recomposition_sweep", _check_recomposition_sweep),
        ("prime_properties", _check_prime_properties),
        ("splitting_trichotomy", _check_splitting_trichotomy),
        ("grammar_roundtrip", _check_grammar_roundtrip),
    ],
    "lemmas": [
        ("oracle_equivalence", _check_oracle_equivalence),
        ("spira_inequality", _check_spira),
        ("mcdaniel_inequality", _check_mcdaniel),
        ("odd_power_divisibility_iff", _check_odd_power_divisibility_iff),
        ("mersenne_norm_closed_forms", _check_closed_forms),
        ("sigma_properties", _check_sigma_properties),
        ("odd_prime_real_parts", _check_real_parts_table),
    ],
    "mersenne": [
        ("record_invariants", _check_record_invariants),
        ("composite_witnesses", _check_composite_witnesses),
        ("k11_construction", _check_k11_construction),
        ("k7_gaussian_construction", _check_k7_gaussian),
        ("k_residue_obstruction", _check_residue_obstruction),
        ("eisenstein_perfect_family", _check_eisenstein_perfect_family),
        ("gaussian_perfect_construction", _check_gaussian_perfect),
    ],
    "search": [
        ("prime_equation_solutions", _check_equation),
        ("even_norm_perfect_scan", _check_even_scan),
        ("normperfect_prime_sweeps", _check_prime_sweeps),
        ("prune_no_loss", _check_prune_no_loss),
        ("enumeration_completeness", _check_enumeration_completeness),
        ("rational_perfect_remark", _check_remark),
        ("corollary_residue_class", _check_corollary_residue),
        ("parker_implies_odd_form", _check_parker_implies_odd_form),
        ("odd_divisor_norm_bound", _check_odd_divisor_bound),
        ("odd_gaussian_scan", _check_odd_gaussian_scan),
    ],
    "cyclo": [
        ("discriminants", _check_discriminants),
        ("ramification", _check_ramification),
        ("splitting_patterns", _check_splitting_patterns),
        ("order_lemma", _check_order_lemma),
        ("cross_ring_p3", _check_cyclo_cross_ring),
        ("cyc_norm_multiplicativity", _check_cyc_norm_multiplicativity),
        ("general_odd_form_p3", _check_general_odd_form_p3),
        ("conjecture_harness", _check_conjecture_harness),
    ],
}

SUITE_NAMES = tuple(_SUITES) + ("all",)


def run_suite(name: str, jobs: int | None = None, log=None) -> VerifySuiteResult:
    if name == "all":
        checks = [c for suite in _SUITES.values() for c in suite]
    elif name in _SUITES:
        checks = _SUITES[name]
    else:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    result = VerifySuiteResult(suite=name)
    t0 = time.monotonic()
    for check_id, fn in checks:
        failures = fn(jobs)
        result.check_ids.append(check_id)
        result.failures.extend(failures)
        if log is not None:
            log(f"{'ok  ' if not failures else 'FAIL'} {check_id}")
    result.wall_time = time.monotonic() - t0
    return result
