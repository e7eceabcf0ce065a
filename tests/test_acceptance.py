"""Acceptance criteria, one test per criterion, every comparison exact.

Each test prints a `criterion N PASS (...)` line with its wall time; run
with `pytest -v tests/test_acceptance.py` to get the per-criterion report.
"""

import random
import time
from contextlib import contextmanager

from cycloperfect.cyclotomic import (
    CycElement,
    SUPPORTED_PRIMES,
    cyc_is_even,
    cyc_norm,
    discriminant,
    order_lemma_check,
    ramification_check,
    splitting_pattern_check,
)
from cycloperfect.divisors import (
    Status,
    check_mcdaniel_inequality,
    check_odd_power_divisibility,
    check_spira_inequality,
    classify,
    sigma,
    sigma_from_factorization,
)
from cycloperfect.factorization import factor, prime_above
from cycloperfect.mersenne import (
    candidate_factorization,
    composite_exponent_witness,
    mersenne,
    mersenne_element,
    mersenne_norm_closed_form,
    scan,
)
from cycloperfect.rational import is_rational_prime
from cycloperfect.rings import EISENSTEIN, GAUSSIAN, QuadInt, Ring
from cycloperfect.search import (
    find_normperfect_primes,
    no_normperfect_prime_equation,
    oracle_equivalence_sweep,
    sector_scan,
    validate_ward_form,
)
from cycloperfect.verify import sector_primes

JOBS = 2


@contextmanager
def criterion(number, text):
    t0 = time.monotonic()
    yield
    print(f"criterion {number} PASS ({time.monotonic() - t0:.2f}s): {text}")


def e(a, b=0):
    return QuadInt(EISENSTEIN, a, b)


def g(a, b=0):
    return QuadInt(GAUSSIAN, a, b)


def test_c01_gaussian_2_plus_i_norm_perfect():
    with criterion(1, "norm(sigma(2+i)) = 10 = 2 norm(2+i)"):
        s = sigma(g(2, 1))
        assert s == g(3, 1)
        assert s.norm() == 10
        assert s.norm() == 2 * g(2, 1).norm()


def test_c02_prime_equation_solution_set():
    with criterion(2, "equation solutions in |a|,|b| <= 1000 are (0,-1) and (1,1)"):
        assert no_normperfect_prime_equation(1_000) == [(0, -1), (1, 1)]


def test_c03_closed_form_norms():
    with criterion(3, "closed-form norms match computed norms for k <= 60"):
        covered = 0
        for k in range(2, 61):
            want = mersenne_norm_closed_form(k)
            if want is None:
                assert k % 12 not in (0, 1, 2, 10, 11)
                continue
            covered += 1
            assert mersenne_element(EISENSTEIN, k).norm() == want, k
        assert covered == sum(1 for k in range(2, 61) if k % 12 in (0, 1, 2, 10, 11))


def test_c04_odd_prime_real_parts():
    with criterion(4, "doubled real parts of the least odd positive primes"):
        listed = []
        for q in (2, 5, 7, 11):
            pi = prime_above(q, EISENSTEIN)
            listed.append(pi)
            if pi.norm() == q:
                listed.append(pi.conjugate().sector_canonical()[1])
        assert [psi.real_part_doubled() for psi in listed] == [4, 10, 5, 4, 22]


def test_c05_composite_exponent_witnesses():
    with criterion(5, "witness cofactor identity for composite 4 <= k <= 50"):
        for ring in Ring:
            for k in range(4, 51):
                if is_rational_prime(k):
                    continue
                left, right = composite_exponent_witness(ring, k)
                element = mersenne_element(ring, k)
                assert left * right == element
                assert left.norm() > 1
                assert left.norm() < element.norm()


def test_c06_odd_power_divisibility_iff():
    with criterion(6, "3 | norm(sigma(psi^m)) exactly per the case conditions"):
        primes = [p for p in sector_primes(EISENSTEIN, 500) if not p.is_even()]
        assert primes
        for psi in primes:
            r = psi.residue_mod_minimal()
            for m in range(13):
                want = (r == 1 and m % 3 == 2) or (r == 2 and m % 2 == 1)
                assert check_odd_power_divisibility(psi, m) == want, (psi, m)


def test_c07_inequality_suites():
    with criterion(7, "growth inequalities over samples and all small odd primes"):
        rng = random.Random(0xACCE)
        for ring in Ring:
            done = 0
            while done < 1_000:
                alpha = QuadInt(ring, rng.randint(1, 50), rng.randint(-50, 50))
                if alpha.real_part_doubled() < 2 or alpha == QuadInt(ring, 1, 0):
                    continue
                done += 1
                assert check_spira_inequality(alpha, rng.randint(1, 10))
            odd_primes = [p for p in sector_primes(ring, 10_000) if not p.is_even()]
            assert odd_primes
            for psi in odd_primes:
                for n in range(1, 21):
                    assert check_mcdaniel_inequality(psi, n), (psi, n)


def test_c08_oracle_equivalence():
    with criterion(8, "sigma equals the divisor-sum oracle up to norm 200000"):
        for ring in Ring:
            checked, mismatches = oracle_equivalence_sweep(ring, 200_000, jobs=JOBS)
            assert mismatches == []
            assert checked > 100_000


def test_c09_eisenstein_k11_construction():
    with criterion(9, "k=11 conjugated construction: ratio 3, primitive, 176419 prime"):
        rec = mersenne(EISENSTEIN, 11)
        assert rec.norm == 176419
        # two independent procedures: the deterministic witness test and
        # plain trial division up to the square root
        assert is_rational_prime(176419)
        assert all(176419 % d for d in range(2, 421))
        element, fac = candidate_factorization(EISENSTEIN, 11, "conjugated")
        cls = classify(element, check_primitive=True, factorization=fac)
        assert cls.sigma_norm == 3 * cls.norm
        assert cls.status is Status.NORM_PERFECT
        assert cls.primitive is True


def test_c10_gaussian_constructions():
    with criterion(10, "k=7 ratio exactly 2; first k = 1 (mod 8) perfect with -i"):
        element, fac = candidate_factorization(GAUSSIAN, 7, "conjugated")
        cls = classify(element, check_primitive=True, factorization=fac)
        assert cls.status is Status.NORM_PERFECT
        assert cls.sigma_norm == 2 * cls.norm
        assert cls.primitive is True

        records = scan(GAUSSIAN, 100, jobs=JOBS)
        flagged = [r.k for r in records if r.is_prime and r.k % 8 == 1]
        assert flagged, "no admissible exponent flagged"
        k = flagged[0]
        eps = g(0, -1)
        eta, fac = candidate_factorization(GAUSSIAN, k, "plain", eps)
        assert sigma_from_factorization(fac) == GAUSSIAN.minimal_prime * eta
        assert sigma(eta) == GAUSSIAN.minimal_prime * eta  # generic route agrees


def test_c11_eisenstein_perfect_family():
    with criterion(11, "flagged k <= 400: perfect iff k = 1 (mod 12) with eps = -w"):
        records = scan(EISENSTEIN, 400, jobs=JOBS)
        eps = e(0, -1)
        plus, minus = 0, 0
        for rec in records:
            if not rec.is_prime:
                continue
            if rec.k % 12 == 1:
                plus += 1
                alpha, fac = candidate_factorization(EISENSTEIN, rec.k, "plain", eps)
                assert sigma_from_factorization(fac) == EISENSTEIN.minimal_prime * alpha
            elif rec.k % 12 == 11:
                minus += 1
                for u in EISENSTEIN.units:
                    alpha, fac = candidate_factorization(
                        EISENSTEIN, rec.k, "conjugated", u
                    )
                    assert sigma_from_factorization(fac) != EISENSTEIN.minimal_prime * alpha
        # the scan flags 193 (= 1 mod 12) and 11, 239 (= -1 mod 12)
        assert plus >= 1 and minus >= 2


def test_c12_exhaustive_searches():
    with criterion(12, "even scan to 2e5 and prime sweeps to 1e6"):
        report = sector_scan(EISENSTEIN, 200_000, parity="even", jobs=JOBS)
        norm_perfect = [
            f for f in report.findings
            if f.status is Status.NORM_PERFECT
        ]
        assert norm_perfect == []

        assert find_normperfect_primes(EISENSTEIN, 10**6) == []
        gaussian_hits = find_normperfect_primes(GAUSSIAN, 10**6)
        assert gaussian_hits == [g(2, 1)]
        for psi in gaussian_hits:
            assert validate_ward_form(psi)

        odd_report = sector_scan(GAUSSIAN, 200_000, parity="odd", jobs=JOBS)
        for f in odd_report.findings:
            if f.status is Status.NORM_PERFECT:
                assert validate_ward_form(f.element)


def test_c13_rational_perfect_remark():
    with criterion(13, "28, 496, 8128, 33550336 are not Eisenstein norm-perfect"):
        values = {3: 28, 5: 496, 7: 8128, 13: 33550336}
        for k, n in values.items():
            assert 2 ** (k - 1) * (2**k - 1) == n
            cls = classify(e(n))
            assert cls.status is not Status.NORM_PERFECT
            m = 2**k - 1
            if is_rational_prime(m):
                above = [(p, ex) for p, ex in factor(e(n)).factors if p.norm() == m]
                assert len(above) == 2
                assert above[0][1] == above[1][1] == 1
                assert above[0][0].conjugate().sector_canonical()[1] == above[1][0]


def test_c14_cyclotomic_checks():
    with criterion(14, "discriminants, ramification, splitting, order lemma, p=3"):
        assert discriminant(3) == -3
        assert discriminant(5) == 125
        assert discriminant(7) == -16807
        assert discriminant(4) == -4
        for p in SUPPORTED_PRIMES:
            sign = -1 if ((p - 1) // 2) % 2 else 1
            assert discriminant(p) == sign * p ** (p - 2)
            # independent resultant route through the derivative
            d = p - 1
            res = cyc_norm(CycElement(p, list(range(1, p))))
            disc_sign = -1 if (d * (d - 1) // 2) % 2 else 1
            assert disc_sign * res == discriminant(p)
            assert ramification_check(p)
            for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
                if q != p:
                    assert splitting_pattern_check(q, p)
            for a in range(2, p):
                assert order_lemma_check(a, p)
        for a in range(-100, 101):
            for b in range(-100, 101):
                x = QuadInt(EISENSTEIN, a, b)
                c = CycElement(3, [a, b])
                assert cyc_norm(c) == x.norm()
                assert cyc_is_even(c) == x.is_even()
