import math
import random
from array import array

import pytest

from cycloperfect import rational
from cycloperfect.divisors import classify
from cycloperfect.mersenne import mersenne_element
from cycloperfect.rational import (
    SMALL_PRIMES,
    factor_rational,
    factor_with_sieve,
    is_rational_prime,
    smallest_prime_factor_sieve,
)
from cycloperfect.rings import QuadInt, Ring


def brute_force_is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class TestPrimality:
    def test_small_prime_table(self):
        assert SMALL_PRIMES[0] == 2
        assert SMALL_PRIMES[-1] < 10_000
        assert len(SMALL_PRIMES) == 1229  # pi(10^4)

    @pytest.mark.parametrize(
        "n,expected",
        [
            (2047, False),  # 23 * 89
            (113, True),
            (1, False),
            (0, False),
            (2, True),
            (176419, True),
            (2**61 - 1, True),
            (2**67 - 1, False),
        ],
    )
    def test_known_values(self, n, expected):
        assert is_rational_prime(n) == expected

    def test_agrees_with_brute_force(self):
        for n in range(2_000):
            assert is_rational_prime(n) == brute_force_is_prime(n), n

    def test_large_primes(self):
        # 2**89 - 1 and the product exercise the >64-bit randomized path; the
        # Eisenstein Mersenne norm for k = 193 takes the Pocklington path
        assert is_rational_prime(2**89 - 1)
        assert not is_rational_prime((2**89 - 1) * (2**61 - 1))
        assert is_rational_prime(3**193 - 3**97 + 1)

    def test_deterministic(self):
        n = 2**127 - 1
        assert is_rational_prime(n) == is_rational_prime(n)

    def test_twelve_witnesses_stop_at_psi12(self):
        # psi12 is the least strong pseudoprime to the bases 2..37, the
        # bound of _MR_WITNESSES_64; base 41 exposes it
        psi12 = 318665857834031151167461
        assert psi12 == 399165290221 * 798330580441
        assert rational._MR_WITNESSES_64 == tuple(SMALL_PRIMES[:12])
        assert all(rational._miller_rabin(psi12, a) for a in rational._MR_WITNESSES_64)
        assert not rational._miller_rabin(psi12, 41)
        assert not is_rational_prime(psi12)


def miller_rabin_oracle(n, rounds=40):
    """A plain strong-probable-prime test with random bases."""
    if n < 4 or n % 2 == 0:
        return n in (2, 3)
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    rng = random.Random(n)
    for _ in range(rounds):
        x = pow(rng.randrange(2, n - 1), d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def forbid_random_rounds(monkeypatch):
    """Make any Miller-Rabin round with a base outside the fixed witnesses raise."""
    plain = rational._miller_rabin

    def fixed_bases_only(n, a):
        if a not in rational._MR_WITNESSES:
            raise AssertionError(f"random Miller-Rabin round on {n}")
        return plain(n, a)

    monkeypatch.setattr(rational, "_miller_rabin", fixed_bases_only)


class TestPsi13:
    def test_thirteen_witnesses_stop_at_psi13(self):
        # psi13 is the least strong pseudoprime to the bases 2..41; base 43
        # exposes it, and is_rational_prime sends it past the fixed bases
        psi13 = 3317044064679887385961981
        assert psi13 == 1287836182261 * 2575672364521 == rational.PSI13
        assert rational._MR_WITNESSES == tuple(SMALL_PRIMES[:13])
        assert all(rational._miller_rabin(psi13, a) for a in rational._MR_WITNESSES)
        assert not rational._miller_rabin(psi13, 43)
        assert not is_rational_prime(psi13)

    def test_fixed_bases_decide_below_psi13(self, monkeypatch):
        # odd n in [2**64, psi13), bit lengths spread evenly, and psi12
        rng = random.Random(1313)
        ns = [318665857834031151167461]
        for _ in range(3000):
            b = rng.randrange(64, rational.PSI13.bit_length())
            ns.append(rng.randrange(1 << b, min(2 << b, rational.PSI13 - 1)) | 1)
        want = [miller_rabin_oracle(n) for n in ns]
        assert 50 < sum(want) < len(ns)
        forbid_random_rounds(monkeypatch)
        assert [is_rational_prime(n) for n in ns] == want

    def test_point_queries_need_no_random_rounds(self, monkeypatch):
        # classify with |a|, |b| <= 10**10, as the benchmark's point queries:
        # every norm and every cofactor its factoring tests is below psi13
        rng = random.Random(5)
        bound = 10**10
        xs = [
            QuadInt(rng.choice(list(Ring)), rng.randint(-bound, bound), rng.randint(-bound, bound))
            for _ in range(200)
        ]
        forbid_random_rounds(monkeypatch)
        for x in xs:
            assert classify(x, check_primitive=True).element == x


class TestPocklington:
    def test_mersenne_norms_agree_with_oracle(self):
        # every k <= 400, prime (the scans' norms) or composite: each norm of
        # 2**64 or more that trial division leaves is proven either way
        for ring in Ring:
            for k in range(2, 401):
                n = mersenne_element(ring, k).norm()
                want = miller_rabin_oracle(n)
                assert is_rational_prime(n) == want, (ring, k)
                if n >= 1 << 64 and all(n % p for p in SMALL_PRIMES):
                    assert rational._pocklington(n) == want, (ring, k)
                    if is_rational_prime(k):
                        # why _pocklington skips base c = N(min)
                        c = ring.minimal_prime.norm()
                        assert pow(c, (n - 1) // c, n) == 1, (ring, k)

    def test_fermat_numbers(self):
        # n - 1 = 2**64 and 2**128; base 2 (skipped) would have x = 1, and
        # base 3 is a Fermat witness
        f6, f7 = 2**64 + 1, 2**128 + 1
        assert f6 == 274177 * 67280421310721
        assert all(f7 % p for p in SMALL_PRIMES)
        for n in (f6, f7):
            assert pow(2, (n - 1) // 2, n) == 1
            assert pow(3, n - 1, n) != 1
            assert rational._pocklington(n) is False
            assert not is_rational_prime(n)

    def test_bases_can_run_out(self, monkeypatch):
        # with only bases that are squares mod n, every x is 1, the
        # criterion is silent and Miller-Rabin decides
        n = mersenne_element(Ring.GAUSSIAN, 113).norm()
        squares = [a for a in SMALL_PRIMES[:30] if pow(a, (n - 1) // 2, n) == 1]
        assert n >= 1 << 64 and len(squares) > 5
        assert rational._pocklington(n) is True
        monkeypatch.setattr(rational, "SMALL_PRIMES", squares)
        assert rational._pocklington(n) is None
        assert is_rational_prime(n)

    def test_gcd_step_is_one_or_n(self):
        # why _pocklington has no 1 < gcd < n branch: with F | n - 1 and
        # F*F > n, every base passing Fermat has gcd 1 or n (checked over
        # all bases of every composite n < 4000 that has such an F)
        checked = 0
        for n in range(4, 4000):
            if brute_force_is_prime(n):
                continue
            for q in (2, 3):
                f = q
                while f * f <= n:
                    f *= q
                if (n - 1) % f:
                    continue
                for a in range(2, n - 1):
                    if pow(a, n - 1, n) == 1:
                        g = math.gcd(pow(a, (n - 1) // q, n) - 1, n)
                        assert g in (1, n), (n, a, g)
                        checked += 1
        assert checked > 4000

    def test_no_power_of_two_or_three(self):
        n = 2**89 - 1  # 2 and 3 each divide n - 1 exactly once
        assert rational._pocklington(n) is None


class TestDivisorInClasses:
    def test_mersenne_2_11(self):
        # 2**11 - 1 = 23 * 89, both 1 (mod 22)
        assert rational.divisor_in_classes(2**11 - 1, 11, 1) == 23

    def test_whole_norm_in_one_batch(self):
        # 23 and 45 are the first two candidates and fill one batch, so the
        # batch gcd is n itself and the members are tried one by one
        assert rational.divisor_in_classes(23 * 45, 11, 1) == 23
        assert rational.divisor_in_classes(23 * 23, 11, 1) == 23

    def test_primes_give_none(self):
        for p in SMALL_PRIMES:
            for k in (2, 3, 5, 7, 11, 13):
                assert rational.divisor_in_classes(p, k, 2) is None, (p, k)
        for ring in Ring:
            for k in range(2, 401):
                n = mersenne_element(ring, k).norm()
                if is_rational_prime(k) and is_rational_prime(n):
                    assert rational.divisor_in_classes(n, k, 2) is None, (ring, k)

    def test_divisors_are_proper(self):
        rng = random.Random(101)
        found = 0
        for _ in range(2000):
            n = rng.randint(2, 10**9)
            k = rng.choice((2, 3, 5, 7, 11, 13, 17, 19))
            g = rational.divisor_in_classes(n, k, rng.choice((1, 2, 4, 6)))
            if g is not None:
                assert 1 < g < n and n % g == 0, (n, k, g)
                found += 1
        assert found > 100

    def test_k_below_two_rejected(self):
        with pytest.raises(ValueError):
            rational.divisor_in_classes(35, 1, 2)


class TestFactorRational:
    def test_examples(self):
        assert factor_rational(2047).factors == ((23, 1), (89, 1))
        assert factor_rational(1).factors == ()
        assert factor_rational(176419).factors == ((176419, 1),)

    def test_sign(self):
        f = factor_rational(-12)
        assert f.sign == -1 and f.factors == ((2, 2), (3, 1))
        assert f.value() == -12

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            factor_rational(0)

    def test_recomposition_random(self):
        rng = random.Random(41)
        for _ in range(300):
            n = rng.randint(1, 10**12)
            f = factor_rational(n)
            assert f.value() == n
            assert all(is_rational_prime(p) for p, _ in f.factors)
            assert list(f.factors) == sorted(f.factors)

    def test_large_semiprime(self):
        p, q = 1_000_003, 1_000_033
        f = factor_rational(p * q)
        assert f.factors == ((p, 1), (q, 1))

    def test_prime_power(self):
        f = factor_rational(10_007**3)
        assert f.factors == ((10_007, 3),)


def _spf_loop(limit):
    """The element-by-element sieve, kept as the oracle."""
    spf = array("i", range(limit + 1))
    for p in range(2, math.isqrt(limit) + 1):
        if spf[p] == p:
            for m in range(p * p, limit + 1, p):
                if spf[m] == m:
                    spf[m] = p
    return spf


class TestSieve:
    def test_spf_values(self):
        spf = smallest_prime_factor_sieve(100)
        assert spf[2] == 2 and spf[9] == 3 and spf[91] == 7 and spf[97] == 97

    def test_slices_match_the_loop(self):
        # every small limit, a larger one, and a prime square (211**2), whose
        # last entry is the only multiple of 211 the sieve writes
        for limit in (*range(201), 20_000, 211**2):
            assert smallest_prime_factor_sieve(limit) == _spf_loop(limit), limit

    def test_factor_with_sieve_matches(self):
        spf = smallest_prime_factor_sieve(50_000)
        rng = random.Random(43)
        for _ in range(500):
            n = rng.randint(2, 50_000)
            assert tuple(factor_with_sieve(n, spf)) == factor_rational(n).factors
