import os
import random

import pytest

from cycloperfect import cyclotomic, rational
from cycloperfect.cyclotomic import (
    AbstractOddFactorization,
    CycElement,
    SUPPORTED_PRIMES,
    conjecture_records,
    cyc_is_even,
    cyc_mersenne_norm,
    cyc_norm,
    discriminant,
    one_minus_zeta,
    order_lemma_check,
    ramification_check,
    residue_degree,
    splitting_pattern_check,
    validate_general_odd_form,
)
from cycloperfect.mersenne import mersenne_element
from cycloperfect.rational import is_rational_prime
from cycloperfect.rings import EISENSTEIN, QuadInt

SMALL_Q = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


class TestElements:
    def test_unsupported_p(self):
        with pytest.raises(ValueError):
            CycElement(23, [1])
        with pytest.raises(ValueError):
            CycElement(4, [1])

    def test_root_of_unity_relation(self):
        for p in SUPPORTED_PRIMES:
            z = CycElement.zeta(p)
            assert z**p == CycElement.from_int(p, 1)
            # 1 + z + ... + z^(p-1) = 0
            total = CycElement.from_int(p, 0)
            for j in range(p):
                total = total + z**j
            assert not total

    def test_zeta5_inverse(self):
        assert CycElement.zeta(5, 1) * CycElement.zeta(5, 4) == CycElement.from_int(5, 1)

    def test_one_minus_zeta_square(self):
        assert (one_minus_zeta(5) ** 2).coeffs == (1, -2, 1, 0)

    def test_mixed_levels_rejected(self):
        with pytest.raises(ValueError):
            CycElement.from_int(5, 1) + CycElement.from_int(7, 1)


class TestNorm:
    def test_one_minus_zeta(self):
        for p in SUPPORTED_PRIMES:
            assert cyc_norm(one_minus_zeta(p)) == p

    def test_rational_integer(self):
        for p in SUPPORTED_PRIMES:
            assert cyc_norm(CycElement.from_int(p, 7)) == 7 ** (p - 1)
            assert cyc_norm(CycElement.from_int(p, -1)) == 1

    def test_unit(self):
        for p in SUPPORTED_PRIMES:
            assert cyc_norm(CycElement.zeta(p)) == 1

    def test_zero(self):
        assert cyc_norm(CycElement.from_int(7, 0)) == 0

    def test_multiplicative(self):
        rng = random.Random(79)
        for p in SUPPORTED_PRIMES:
            for _ in range(200):
                x = CycElement(p, [rng.randint(-9, 9) for _ in range(p - 1)])
                y = CycElement(p, [rng.randint(-9, 9) for _ in range(p - 1)])
                assert cyc_norm(x * y) == cyc_norm(x) * cyc_norm(y)

    def test_norm_of_conjugate_product(self):
        # N(x) equals the product over all automorphisms zeta -> zeta^j
        rng = random.Random(83)
        for p in SUPPORTED_PRIMES:
            for _ in range(50):
                coeffs = [rng.randint(-5, 5) for _ in range(p - 1)]
                x = CycElement(p, coeffs)
                product = CycElement.from_int(p, 1)
                for j in range(1, p):
                    conj = CycElement.from_int(p, 0)
                    for i, c in enumerate(coeffs):
                        term = CycElement(p, [0] * ((i * j) % p) + [c])
                        conj = conj + term
                    product = product * conj
                assert product.coeffs == (cyc_norm(x),) + (0,) * (p - 2)


def bareiss_determinant(m):
    """Exact integer determinant by fraction-free (Bareiss) elimination."""
    n = len(m)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        for i in range(k + 1, n):
            row_i = m[i]
            row_k = m[k]
            lead = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - lead * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return sign * m[n - 1][n - 1]


def matrix_norm(x):
    """Oracle: the determinant of multiplication by x on the basis 1, zeta,
    ..., zeta**(p-2).  Row i holds x * zeta**i, each row the one above
    times zeta with zeta**(p-1) = -(1 + zeta + ... + zeta**(p-2))."""
    row = list(x.coeffs)
    rows = []
    for _ in range(x.p - 1):
        rows.append(row)
        top = row[-1]
        row = [-top] + [c - top for c in row[:-1]]
    return bareiss_determinant(rows)


def sylvester_norm(x):
    """Oracle: the resultant of the cyclotomic polynomial with the
    coefficient polynomial of x, from the (2p-3)-square Sylvester matrix."""
    p = x.p
    g = list(x.coeffs)
    while g and g[-1] == 0:
        g.pop()
    if not g:
        return 0
    n = len(g) - 1
    if n == 0:
        return g[0] ** (p - 1)
    m = p - 1
    size = m + n
    fd, gd = [1] * p, g[::-1]
    rows = [[0] * i + fd + [0] * (size - m - 1 - i) for i in range(n)]
    rows += [[0] * i + gd + [0] * (size - n - 1 - i) for i in range(m)]
    return bareiss_determinant(rows)


def assert_oracles_agree(x):
    norm = cyc_norm(x)
    assert norm == matrix_norm(x) == sylvester_norm(x), (x, norm)


class TestNormOracle:
    def test_random_elements(self):
        # every length, so short and constant elements whose top
        # coefficients are 0 come up too
        rng = random.Random(103)
        for p in SUPPORTED_PRIMES:
            for length in range(p):
                for _ in range(40):
                    coeffs = [rng.randint(-9, 9) for _ in range(length)]
                    assert_oracles_agree(CycElement(p, coeffs))

    def test_special_elements(self):
        rng = random.Random(107)
        for p in SUPPORTED_PRIMES:
            assert_oracles_agree(CycElement.from_int(p, 0))
            for j in range(p):
                assert_oracles_agree(CycElement.zeta(p, j))
                assert_oracles_agree(-CycElement.zeta(p, j))
            for n in (1, -1, 2, -3, 7, 2**64 + 13, -(2**200)):
                assert_oracles_agree(CycElement.from_int(p, n))
            for _ in range(20):
                coeffs = [
                    rng.choice((1, -1)) * 2**200 + rng.randint(-9, 9) for _ in range(p - 1)
                ]
                assert_oracles_agree(CycElement(p, coeffs))

    def test_mersenne_norms(self):
        # every k <= 120, and the record exponents k = +-1 (mod 4p) to 600
        for p in SUPPORTED_PRIMES:
            ks = [k for k in range(1, 601) if k <= 120 or k % (4 * p) in (1, 4 * p - 1)]
            for k in ks:
                x = one_minus_zeta(p) ** k - CycElement.from_int(p, 1)
                norm = cyc_mersenne_norm(p, k)
                assert norm == matrix_norm(x) == sylvester_norm(x), (p, k)

    def test_tower_conjugates_cover_the_group(self):
        # composing 1 or one conjugate of each step gives every element of
        # (Z/p)^* once; p - 1 = 2, 4, 6, 10, 12, 16, 18 take the sum of
        # l - 1 over its prime factors l: 1, 2, 3, 5, 4, 4, 5 products
        counts = []
        for p in SUPPORTED_PRIMES:
            tower = cyclotomic._TOWERS[p]
            counts.append(len(tower))
            cover, step = [1], [1]
            for s, step_end, *_ in tower:
                step.append(s)
                if step_end:
                    cover = [a * b % p for a in cover for b in step]
                    step = [1]
            assert step == [1], p
            assert sorted(cover) == list(range(1, p)), p
        assert counts == [1, 2, 3, 5, 4, 4, 5]


class TestEvenness:
    def test_examples(self):
        assert cyc_is_even(one_minus_zeta(5))
        assert not cyc_is_even(CycElement.from_int(5, 1))
        assert cyc_is_even(CycElement.from_int(7, 7))

    def test_multiple_of_one_minus_zeta(self):
        rng = random.Random(89)
        for p in SUPPORTED_PRIMES:
            for _ in range(100):
                x = CycElement(p, [rng.randint(-9, 9) for _ in range(p - 1)])
                assert cyc_is_even(one_minus_zeta(p) * x)


class TestFieldFacts:
    def test_ramification_all_p(self):
        for p in SUPPORTED_PRIMES:
            assert ramification_check(p)

    def test_discriminants(self):
        assert discriminant(3) == -3
        assert discriminant(4) == -4
        assert discriminant(5) == 125
        assert discriminant(7) == -16807
        assert discriminant(11) == -(11**9)
        assert discriminant(13) == 13**11

    def test_discriminant_unsupported(self):
        with pytest.raises(ValueError):
            discriminant(23)

    def test_residue_degrees(self):
        assert residue_degree(2, 7) == 3
        assert residue_degree(11, 5) == 1
        assert residue_degree(2, 3) == 2
        assert residue_degree(3, 5) == 4

    def test_residue_degree_rejects_p(self):
        with pytest.raises(ValueError):
            residue_degree(7, 7)

    def test_residue_degree_divides_and_is_minimal(self):
        for p in SUPPORTED_PRIMES:
            for q in SMALL_Q:
                if q == p:
                    continue
                f = residue_degree(q, p)
                assert (p - 1) % f == 0
                assert pow(q, f, p) == 1
                assert all(pow(q, d, p) != 1 for d in range(1, f))

    def test_splitting_patterns(self):
        for p in SUPPORTED_PRIMES:
            for q in SMALL_Q:
                if q == p:
                    continue
                assert splitting_pattern_check(q, p), (q, p)

    def test_splitting_rejects_p(self):
        with pytest.raises(ValueError):
            splitting_pattern_check(5, 5)

    def test_order_lemma(self):
        assert order_lemma_check(2, 7)  # 1 + 2 + 4 = 7
        assert order_lemma_check(3, 5)  # 1 + 3 + 9 + 27 = 40
        for p in SUPPORTED_PRIMES:
            assert order_lemma_check(p - 1, p)
            for a in range(2, p):
                assert order_lemma_check(a, p)

    def test_order_lemma_rejects(self):
        with pytest.raises(ValueError):
            order_lemma_check(1, 7)
        with pytest.raises(ValueError):
            order_lemma_check(7, 7)


class TestMersenneNorms:
    def test_cross_module_oracle(self):
        assert cyc_mersenne_norm(3, 11) == 176419
        for k in range(1, 41):
            assert cyc_mersenne_norm(3, k) == mersenne_element(EISENSTEIN, k).norm()

    def test_unit_at_k1(self):
        for p in SUPPORTED_PRIMES:
            assert cyc_mersenne_norm(p, 1) == 1

    def test_p5_k2(self):
        # (1-z)^2 - 1 = -2z + z^2 = z(z - 2); norm = 1 * Phi_5(2) = 31
        assert cyc_mersenne_norm(5, 2) == 31

    def test_conjecture_records(self):
        records = conjecture_records(5, 60)
        assert [r["k"] for r in records] == [19, 21, 39, 41, 59]
        for r in records:
            assert r["k_mod_4p"] in (1, 19)
            assert int(r["norm"]) == cyc_mersenne_norm(5, r["k"])

    def test_conjecture_records_primality(self, monkeypatch):
        want = {}
        for p in SUPPORTED_PRIMES:
            records = conjecture_records(p, 200)
            want[p] = [
                {**r, "norm_is_prime": is_rational_prime(int(r["norm"]))}
                for r in records
            ]
            assert records == want[p], p
        # composite k are settled by the divisor N(pi**d - 1) alone; a prime-k
        # norm goes to is_rational_prime unless the divisor search splits it
        tested = []
        divisors = {}

        def recording(n):
            tested.append(n)
            return is_rational_prime(n)

        def searching(n, k, degree):
            g = rational.divisor_in_classes(n, k, degree)
            if g is not None:
                divisors[n] = g
            return g

        monkeypatch.setattr(cyclotomic, "is_rational_prime", recording)
        monkeypatch.setattr(cyclotomic, "divisor_in_classes", searching)
        for p in SUPPORTED_PRIMES:
            assert conjecture_records(p, 200, jobs=1) == want[p], p
            prime_k = [r for r in want[p] if is_rational_prime(r["k"])]
            for r in prime_k:
                n = int(r["norm"])
                assert (n in tested) != (n in divisors and n % divisors[n] == 0), p
            assert len(tested) + len(divisors) == len(prime_k), p
            assert len(prime_k) < len(want[p]), p
            tested.clear()
            divisors.clear()


    def test_divisor_search_changes_no_record(self, monkeypatch):
        want = {p: conjecture_records(p, 200) for p in SUPPORTED_PRIMES}
        found = []
        search = cyclotomic.divisor_in_classes

        def recording(n, k, degree):
            g = search(n, k, degree)
            if g is not None:
                found.append((n, g))
            return g

        monkeypatch.setattr(cyclotomic, "divisor_in_classes", recording)
        for p in SUPPORTED_PRIMES:
            assert conjecture_records(p, 200, jobs=1) == want[p], p
        assert found and all(n % g == 0 for n, g in found)
        monkeypatch.setattr(cyclotomic, "divisor_in_classes", lambda n, k, d: None)
        for p in SUPPORTED_PRIMES:
            assert conjecture_records(p, 200) == want[p], p

    def test_pool_matches_in_process(self):
        # the pool takes the largest exponent first; the records come back
        # in increasing k whatever the job count
        for p in SUPPORTED_PRIMES:
            records = conjecture_records(p, 200, jobs=1)
            assert [r["k"] for r in records] == sorted(r["k"] for r in records)
            assert conjecture_records(p, 200, jobs=2) == records, p

    def test_worker_error_reaches_parent(self, monkeypatch):
        # forked workers inherit the patch; a worker's failure is raised here
        def broken(n):
            raise RuntimeError(f"raised in process {os.getpid()}")

        monkeypatch.setattr(cyclotomic, "is_rational_prime", broken)
        with pytest.raises(RuntimeError, match="raised in process") as exc:
            conjecture_records(5, 200, jobs=2)
        assert str(exc.value) != f"raised in process {os.getpid()}"

class TestCrossRing:
    def test_norm_and_evenness_match_quadratic(self):
        for a in range(-100, 101):
            for b in range(-100, 101):
                x = QuadInt(EISENSTEIN, a, b)
                c = CycElement(3, [a, b])
                assert cyc_norm(c) == x.norm()
                assert cyc_is_even(c) == x.is_even()


class TestGeneralOddForm:
    def test_p3_case1(self):
        ok, why = validate_general_odd_form(
            AbstractOddFactorization(3, ((1, 2, True),))
        )
        assert ok, why

    def test_p3_case2(self):
        ok, _ = validate_general_odd_form(AbstractOddFactorization(3, ((2, 1, True),)))
        assert ok

    def test_p5_order2_violation(self):
        ok, why = validate_general_odd_form(
            AbstractOddFactorization(5, ((4, 2, True),))
        )
        assert not ok and "not -1" in why

    def test_no_special(self):
        ok, why = validate_general_odd_form(AbstractOddFactorization(5, ((2, 2, False),)))
        assert not ok and why == "no special entry"

    def test_non_special_collision(self):
        # j = 4 has order 2 mod 5, so exponent 3 = -1 mod 2 is forbidden
        ok, why = validate_general_odd_form(
            AbstractOddFactorization(5, ((1, 4, True), (4, 3, False)))
        )
        assert not ok and "non-special" in why

    def test_two_specials_rejected(self):
        with pytest.raises(ValueError):
            validate_general_odd_form(
                AbstractOddFactorization(3, ((1, 2, True), (2, 1, True)))
            )

    def test_bad_entries_rejected(self):
        with pytest.raises(ValueError):
            validate_general_odd_form(AbstractOddFactorization(5, ((0, 2, True),)))
        with pytest.raises(ValueError):
            validate_general_odd_form(AbstractOddFactorization(5, ((2, 0, True),)))

    def test_json_roundtrip(self):
        form = AbstractOddFactorization(5, ((2, 3, False), (1, 4, True)))
        obj = {
            "p": 5,
            "entries": [
                {"j": 2, "e": 3, "special": False},
                {"j": 1, "e": 4, "special": True},
            ],
        }
        assert AbstractOddFactorization.from_json(obj) == form

    def test_p3_agrees_with_concrete_validator(self):
        from cycloperfect.search import validate_odd_form
        from cycloperfect.verify import sector_primes

        rng = random.Random(97)
        pool = [p for p in sector_primes(EISENSTEIN, 600) if not p.is_even()]
        for _ in range(300):
            picks = {}
            for _ in range(rng.randint(1, 4)):
                picks[rng.choice(pool)] = rng.randint(1, 5)
            x = QuadInt(EISENSTEIN, 1, 0)
            for psi, exp in picks.items():
                x = x * psi**exp
            report = validate_odd_form(x)
            entries = tuple(
                (psi.residue_mod_minimal(), exp, psi == report.special_prime)
                for psi, exp in picks.items()
            )
            ok, _ = validate_general_odd_form(AbstractOddFactorization(3, entries))
            assert ok == report.conforms
