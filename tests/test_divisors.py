import random

import pytest

from cycloperfect import divisors
from cycloperfect.divisors import (
    Status,
    _STATUS,
    _is_primitive,
    _sign,
    check_mcdaniel_inequality,
    check_odd_power_divisibility,
    check_spira_inequality,
    classify,
    divisor_sum_from_factorization,
    json_rows,
    sigma,
    sigma_from_factorization,
)
from cycloperfect.factorization import factor
from cycloperfect.rings import EISENSTEIN, GAUSSIAN, QuadInt, Ring, gcd
from classification_json import reference_text


def e(a, b=0):
    return QuadInt(EISENSTEIN, a, b)


def g(a, b=0):
    return QuadInt(GAUSSIAN, a, b)


def random_nonzero(rng, ring, span=120):
    while True:
        x = QuadInt(ring, rng.randint(-span, span), rng.randint(-span, span))
        if x:
            return x


class TestSigma:
    def test_gaussian_prime(self):
        assert sigma(g(2, 1)) == g(3, 1)

    def test_units(self):
        for ring in Ring:
            for u in ring.units:
                assert sigma(u) == QuadInt(ring, 1, 0)

    def test_minimal_prime_square(self):
        # 1 + (2+w) + (2+w)^2 = 1 + (2+w) + (3+3w)
        assert sigma(e(3, 3)) == e(6, 4)

    def test_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            sigma(e(0))

    def test_associate_invariance(self):
        rng = random.Random(53)
        for ring in Ring:
            for _ in range(500):
                x = random_nonzero(rng, ring)
                s = sigma(x)
                for u in ring.units:
                    assert sigma(u * x) == s

    def test_multiplicative_on_coprime(self):
        rng = random.Random(59)
        for ring in Ring:
            done = 0
            while done < 300:
                x = random_nonzero(rng, ring, 60)
                y = random_nonzero(rng, ring, 60)
                if not gcd(x, y).is_unit():
                    continue
                done += 1
                assert sigma(x * y) == sigma(x) * sigma(y)

    def test_norm_monotone(self):
        rng = random.Random(61)
        for ring in Ring:
            for _ in range(1_000):
                x = random_nonzero(rng, ring)
                assert sigma(x).norm() >= x.norm()


class TestDivisorSumOracle:
    def test_prime(self):
        assert divisor_sum_from_factorization(factor(e(3, 1))) == e(4, 1)

    def test_gaussian_example(self):
        assert divisor_sum_from_factorization(factor(g(2, 1))) == g(3, 1)

    def test_eisenstein_seven(self):
        # (1 + (3+w)) (1 + (3+2w)) = (4+w)(4+2w) = 14 + 10w; norm check:
        # N(4+w) N(4+2w) = 13 * 12 = 156 = N(14+10w)
        total = divisor_sum_from_factorization(factor(e(7)))
        assert total == e(14, 10)
        assert total.norm() == 156

    def test_matches_sigma_small_sweep(self):
        from cycloperfect.search import iter_sector

        for ring in Ring:
            for a, b, _n in iter_sector(ring, 2_000):
                fac = factor(QuadInt(ring, a, b))
                assert sigma_from_factorization(fac) == divisor_sum_from_factorization(fac)


class TestClassify:
    def test_gaussian_2_plus_i(self):
        cls = classify(g(2, 1), check_primitive=True)
        assert cls.even is False
        assert cls.status is Status.NORM_PERFECT
        assert cls.perfect is False
        assert cls.primitive is True
        assert cls.norm == 5 and cls.sigma_norm == 10

    def test_minimal_prime_deficient(self):
        cls = classify(e(2, 1))
        assert cls.status is Status.DEFICIENT
        assert cls.sigma_norm == 7

    def test_one_deficient(self):
        assert classify(g(1)).status is Status.DEFICIENT

    def test_abundant_example(self):
        # (2+w)^2 has sigma 6+4w with norm 28 > 3 * 9
        cls = classify(e(3, 3))
        assert cls.status is Status.ABUNDANT

    def test_perfect_implies_norm_perfect(self):
        from cycloperfect.mersenne import candidate_factorization

        el, fac = candidate_factorization(EISENSTEIN, 193, "plain", e(0, -1))
        cls = classify(el, factorization=fac)
        assert cls.perfect
        assert cls.status is Status.NORM_PERFECT

    def test_primitive_none_unless_requested(self):
        assert classify(g(2, 1)).primitive is None
        assert classify(e(2, 1), check_primitive=True).primitive is None  # deficient

    def test_primitivity_budget(self, monkeypatch):
        monkeypatch.setattr(divisors, "PRIMITIVITY_DIVISOR_BUDGET", 1)
        with pytest.raises(ValueError):
            classify(g(2, 1), check_primitive=True)

    def test_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            classify(g(0))

    def test_json_shape(self):
        rows = [
            classify(g(2, 1)),
            classify(g(2, 1), check_primitive=True),
            classify(e(-3, 3)),
            classify(g(-7, -8)),
            classify(e(1)),
        ]
        for ring in Ring:
            mine = [row for row in rows if row.ring is ring]
            for r in mine:
                # classify's output: its one row with its primitive value
                text = json_rows(ring, [r.row()], with_unit=False, primitive=r.primitive)
                assert text == [reference_text(r)]
            # a scan's rows: primitivity unchecked, the perfect unit added
            scanned = [r for r in mine if r.primitive is None]
            assert json_rows(ring, [r.row() for r in scanned], with_unit=True) == [
                reference_text(r, r.perfect_unit) for r in scanned
            ]
        assert json_rows(GAUSSIAN, [], with_unit=True) == []

    def test_row_reads_like_the_element(self):
        x = g(-7, -8)
        cls = classify(x)
        assert (cls.element, cls.sigma, cls.even) == (x, sigma(x), x.is_even())
        assert cls.norm == x.norm() and cls.sigma_norm == sigma(x).norm()

    @pytest.mark.parametrize("ring", list(Ring))
    def test_status_at_the_threshold(self, ring):
        # deficient when N(sigma) < N(minimal) * N(x), norm-perfect at
        # equality, abundant above
        c = ring.minimal_prime.norm()
        for n in (1, 5, 7, 12, 10**30 + 1):
            assert _STATUS[_sign(c, n, c * n - 1)] is Status.DEFICIENT
            assert _STATUS[_sign(c, n, c * n)] is Status.NORM_PERFECT
            assert _STATUS[_sign(c, n, c * n + 1)] is Status.ABUNDANT

    def test_is_primitive_detects_normperfect_divisor(self):
        # any lattice containing the 2+i class has a norm-perfect divisor
        fac = factor(g(2, 1) * g(3, 2))
        assert _is_primitive(fac, 2) is False
        fac = factor(g(3, 2))
        assert _is_primitive(fac, 2) is True


class TestInequalities:
    def test_spira_examples(self):
        assert check_spira_inequality(e(2), 1)  # N(3) = 9 >= N(2)^1 = 4
        assert check_spira_inequality(e(2, 1), 5)
        assert check_spira_inequality(g(1, 1), 3)

    def test_spira_preconditions(self):
        with pytest.raises(ValueError):
            check_spira_inequality(e(0, 1), 2)  # 2 Re = -1
        with pytest.raises(ValueError):
            check_spira_inequality(e(1), 2)
        with pytest.raises(ValueError):
            check_spira_inequality(e(2), 0)

    def test_spira_random(self):
        rng = random.Random(67)
        for ring in Ring:
            done = 0
            while done < 1_000:
                x = QuadInt(ring, rng.randint(1, 30), rng.randint(-30, 30))
                if x.real_part_doubled() < 2 or x == QuadInt(ring, 1, 0):
                    continue
                done += 1
                assert check_spira_inequality(x, rng.randint(1, 10))

    def test_mcdaniel_examples(self):
        assert check_mcdaniel_inequality(e(2), 1)
        assert check_mcdaniel_inequality(e(2), 7)
        # psi = 2+i, n = 1: 5 * N(3+i) * 5 = 250 > 5 * (25 + 20 - 7) = 190
        assert check_mcdaniel_inequality(g(2, 1), 1)
        assert check_mcdaniel_inequality(e(3, 1), 2)

    def test_mcdaniel_rejects_even_or_composite(self):
        with pytest.raises(ValueError):
            check_mcdaniel_inequality(g(1, 1), 1)  # even
        with pytest.raises(ValueError):
            check_mcdaniel_inequality(e(7), 1)  # not prime
        with pytest.raises(ValueError):
            check_mcdaniel_inequality(e(1, -1), 1)  # not sector-canonical

    def test_odd_power_examples(self):
        assert check_odd_power_divisibility(e(3, 1), 2)  # residue 1, m = 2
        assert check_odd_power_divisibility(e(2), 1)  # sigma = 3, norm 9
        assert not check_odd_power_divisibility(e(3, 1), 0)
        assert not check_odd_power_divisibility(e(2), 0)

    def test_odd_power_rejects(self):
        with pytest.raises(ValueError):
            check_odd_power_divisibility(e(2, 1), 1)  # even
        with pytest.raises(ValueError):
            check_odd_power_divisibility(g(2, 1), 1)  # wrong ring

    def test_odd_power_iff_small(self):
        from cycloperfect.verify import sector_primes

        for psi in sector_primes(EISENSTEIN, 500):
            if psi.is_even():
                continue
            r = psi.residue_mod_minimal()
            for m in range(13):
                want = (r == 1 and m % 3 == 2) or (r == 2 and m % 2 == 1)
                assert check_odd_power_divisibility(psi, m) == want, (psi, m)
