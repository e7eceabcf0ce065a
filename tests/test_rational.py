import bisect
import math
import random
from array import array

import pytest

from cycloperfect import rational
from cycloperfect.cyclotomic import cyc_mersenne_norm
from cycloperfect.divisors import classify
from cycloperfect.mersenne import mersenne_element
from cycloperfect.rational import (
    SMALL_PRIMES,
    TRIAL_DIVISION_BOUND,
    factor_rational,
    factor_with_sieve,
    is_rational_prime,
    prime_flags,
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


def is_prime_by_loop(n):
    """is_rational_prime with trial division as a loop over SMALL_PRIMES and
    all 13 fixed witnesses below PSI13, kept as the oracle."""
    if n < 2:
        return False
    for p in SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
        if p * p > n:
            return True
    if n >= 1 << 64:
        proven = rational._pocklington(n)
        if proven is not None:
            return proven
    if n < rational.PSI13:
        return all(rational._miller_rabin(n, a) for a in rational._MR_WITNESSES)
    rng = random.Random(rational.PRIMALITY_SEED ^ n)
    return all(
        rational._miller_rabin(n, rng.randrange(2, n - 1))
        for _ in range(rational.MR_ROUNDS_LARGE)
    )


def factor_by_loop(n):
    """factor_rational with trial division as a loop over SMALL_PRIMES, kept
    as the oracle: (sign, factors)."""
    sign = 1
    if n < 0:
        sign, n = -1, -n
    counts = {}
    for p in SMALL_PRIMES:
        if p * p > n:
            break
        while n % p == 0:
            counts[p] = counts.get(p, 0) + 1
            n //= p
    if n > 1:
        stack = [n]
        rng = random.Random(rational.FACTOR_SEED ^ n)
        while stack:
            m = stack.pop()
            if is_prime_by_loop(m):
                counts[m] = counts.get(m, 0) + 1
                continue
            d = rational._brent_rho(m, rng)
            stack.append(d)
            stack.append(m // d)
    return sign, tuple(sorted(counts.items()))


# psi_t, the least strong pseudoprime to the first t primes, with its factors
PSI_FACTORS = (
    (2047, (23, 89)),
    (1373653, (829, 1657)),
    (25326001, (2251, 11251)),
    (3215031751, (151, 751, 28351)),
    (2152302898747, (6763, 10627, 29947)),
    (3474749660383, (1303, 16927, 157543)),
    (341550071728321, (10670053, 32010157)),
    (341550071728321, (10670053, 32010157)),
    (3825123056546413051, (149491, 747451, 34233211)),
    (3825123056546413051, (149491, 747451, 34233211)),
    (3825123056546413051, (149491, 747451, 34233211)),
    (318665857834031151167461, (399165290221, 798330580441)),
    (3317044064679887385961981, (1287836182261, 2575672364521)),
)
PSI = tuple(psi for psi, _ in PSI_FACTORS)


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

    def test_agrees_with_sieve(self):
        # every n < 2*10**6: both sides of 10**4, where the gcd with the
        # product of SMALL_PRIMES decides alone
        limit = 2 * 10**6
        sieve = bytearray([1]) * limit
        sieve[0:2] = b"\x00\x00"
        for p in range(2, math.isqrt(limit - 1) + 1):
            if sieve[p]:
                sieve[p * p :: p] = bytes(len(range(p * p, limit, p)))
        got = bytearray(is_rational_prime(n) for n in range(limit))
        assert got == sieve

    @pytest.mark.parametrize(
        "n,expected",
        [
            (9973**2, False),  # square of the largest small prime
            (10007**2, False),  # the least composite with no small factor
            (10007 * 10009, False),
            (99999989, True),  # the largest prime below 10**8
            (10**8 - 1, False),
            (10**8, False),
            (10**8 + 1, False),  # 17 * 5882353
            (100000007, True),  # the least prime above 10**8
        ],
    )
    def test_trial_division_boundaries(self, n, expected):
        assert is_rational_prime(n) == is_prime_by_loop(n) == expected

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
        # bound of the first 12 witnesses; base 41 exposes it
        psi12 = 318665857834031151167461
        assert psi12 == 399165290221 * 798330580441
        witnesses = rational._MR_WITNESSES[:12]
        assert witnesses == tuple(SMALL_PRIMES[:12])
        assert all(rational._miller_rabin(psi12, a) for a in witnesses)
        assert not rational._miller_rabin(psi12, 41)
        assert not is_rational_prime(psi12)

    def test_psi_table(self):
        # each psi_t is composite, reported composite, and a strong
        # pseudoprime to the first t' primes and not the next one, where t'
        # is the largest index with that value (psi7 = psi8, psi9..psi11)
        assert rational._PSI == PSI
        for t, (psi, factors) in enumerate(PSI_FACTORS, 1):
            assert math.prod(factors) == psi and len(factors) > 1, t
            assert not is_rational_prime(psi), t
            last = max(u for u, (v, _) in enumerate(PSI_FACTORS, 1) if v == psi)
            passed = 0
            while rational._miller_rabin(psi, SMALL_PRIMES[passed]):
                passed += 1
            assert passed == last, t


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


_plain_miller_rabin = rational._miller_rabin


def forbid_random_rounds(monkeypatch, t=13):
    """Make any Miller-Rabin round with a base outside the first t fixed
    witnesses raise."""
    allowed = rational._MR_WITNESSES[:t]

    def fixed_bases_only(n, a):
        if a not in allowed:
            raise AssertionError(f"Miller-Rabin round on {n} with base {a}")
        return _plain_miller_rabin(n, a)

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
        # odd n in each band [psi_(t-1), psi_t), both ends included, and in
        # [2**64, psi13) with bit lengths spread evenly: the first t
        # witnesses decide each n, and a base past the t-th raises
        rng = random.Random(1313)
        bands = {}
        lower = 3
        for t, psi in enumerate(PSI, 1):
            if lower < psi:
                ns = [lower, psi - 2]
                ns += [rng.randrange(lower, psi - 1) | 1 for _ in range(300)]
                bands[t] = ns
            lower = psi
        for _ in range(3000):
            b = rng.randrange(64, rational.PSI13.bit_length())
            n = rng.randrange(1 << b, min(2 << b, rational.PSI13 - 1)) | 1
            bands[bisect.bisect_right(PSI, n) + 1].append(n)
        assert sorted(bands) == [1, 2, 3, 4, 5, 6, 7, 9, 12, 13]
        primes = 0
        for t, ns in bands.items():
            want = [miller_rabin_oracle(n) for n in ns]
            primes += sum(want)
            forbid_random_rounds(monkeypatch, t)
            assert [is_rational_prime(n) for n in ns] == want, t
        assert 200 < primes < sum(map(len, bands.values())) / 4

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


def primes_between(lo, hi):
    return [k for k in range(lo, hi) if is_rational_prime(k)]


class TestFoldedPow:
    def test_gaussian_norms_above_the_bound(self):
        # n = 2**k +- 2**((k+1)/2) + 1 for odd prime k, e = (n-1)/2 as in
        # _pocklington, over every prime k in a range above the bound
        ks = primes_between(rational.FOLD_MIN_BITS, rational.FOLD_MIN_BITS + 400)
        signs = set()
        for k in ks:
            n = mersenne_element(Ring.GAUSSIAN, k).norm()
            shape = rational._fold_shape(n)
            assert shape is not None and shape[0::2] == (k, (k + 1) // 2), k
            signs.add(shape[1])
            for a in (3, 5):
                e = (n - 1) // 2
                assert rational._folded_pow(a, e, n, *shape) == pow(a, e, n), (k, a)
        assert signs == {1, -1} and len(ks) > 50

    def test_random_exponents_on_every_shape(self):
        # 2**k + s*2**h + 1 for both signs and h from 1 to (k+2)//2: every h
        # up to k = 1000, a sample of h beyond; random e and small bases
        rng = random.Random(2203)
        bound = rational.FOLD_MIN_BITS
        checked = 0
        for k in (bound - 100, bound - 1, bound + 1, 701, 1000, 2003, 4000, 6000):
            top = (k + 2) // 2
            hs = range(1, top + 1)
            if k > 1000:
                hs = sorted({1, 2, 3, top - 2, top - 1, top, *rng.sample(hs, 8)})
            for h in hs:
                for s in (1, -1):
                    n = (1 << k) + s * (1 << h) + 1
                    assert rational._fold_shape(n) == (k, s, h), (k, s, h)
                    e = rng.getrandbits(rng.randint(1, 96 if k > 1000 else 40))
                    a = rng.randrange(2, TRIAL_DIVISION_BOUND)
                    assert rational._folded_pow(a, e, n, k, s, h) == pow(a, e, n), (k, s, h)
                    checked += 1
        e = rng.getrandbits(6000)
        n = (1 << 6000) - (1 << 3001) + 1
        assert rational._folded_pow(9973, e, n, 6000, -1, 3001) == pow(9973, e, n)
        assert checked > 2000

    def test_shape_rejects_other_norms(self):
        rejected = [mersenne_element(Ring.EISENSTEIN, k).norm() for k in primes_between(3, 1200)]
        rejected += [cyc_mersenne_norm(p, k) for p in (3, 5, 7) for k in (101, 211, 307)]
        rejected += [(1 << k) + 1 for k in (64, 128, 450, 1000, 2048)]
        rng = random.Random(17)
        rejected += [rng.getrandbits(rng.randint(64, 3000)) | 1 for _ in range(500)]
        rejected += [(1 << k) + (1 << h) + 1 for k, h in ((1000, 502), (1000, 700), (2001, 1003))]
        assert not any(rational._fold_shape(n) for n in rejected)

    def test_pocklington_takes_the_kernel_above_the_bound(self, monkeypatch):
        # above FOLD_MIN_BITS a Gaussian norm is powered by the kernel, at or
        # below it by pow: the gain cannot vanish silently, nor reach a small n
        calls = []
        kernel = rational._folded_pow

        def counting(*args):
            calls.append(args[2])
            return kernel(*args)

        monkeypatch.setattr(rational, "_folded_pow", counting)
        bound = rational.FOLD_MIN_BITS
        above = [mersenne_element(Ring.GAUSSIAN, k).norm() for k in primes_between(bound, bound + 60)]
        below = [mersenne_element(Ring.GAUSSIAN, k).norm() for k in primes_between(70, bound - 1)]
        assert above and below
        for n in above + below:
            assert rational._pocklington(n) is not None
        assert set(calls) == {n for n in above if n.bit_length() > bound}
        assert len(set(calls)) >= len(above) - 1


class TestDivisorInClasses:
    def test_mersenne_2_11(self):
        # 2**11 - 1 = 23 * 89, both 1 (mod 22)
        assert rational.divisor_in_classes(2**11 - 1, 22, (1,)) == 23

    def test_whole_norm_in_one_batch(self):
        # 23 and 45 are the first two candidates and fill one batch, so the
        # batch gcd is n itself and the members are tried one by one
        assert rational.divisor_in_classes(23 * 45, 22, (1,)) == 23
        assert rational.divisor_in_classes(23 * 23, 22, (1,)) == 23

    def test_primes_give_none(self):
        for p in SMALL_PRIMES:
            for m in (2, 3, 4, 10, 14, 22, 26):
                assert rational.divisor_in_classes(p, m, (1, m - 1)) is None, (p, m)
        for ring in Ring:
            for k in range(2, 401):
                n = mersenne_element(ring, k).norm()
                if is_rational_prime(k) and is_rational_prime(n):
                    m = math.lcm(k, ring.unit_count)
                    assert rational.divisor_in_classes(n, m, (1,)) is None, (ring, k)

    def test_divisors_are_proper(self):
        rng = random.Random(101)
        found = 0
        for _ in range(2000):
            n = rng.randint(2, 10**9)
            m = rng.choice((2, 3, 5, 7, 11, 13, 17, 19)) * rng.choice((1, 2, 4, 6))
            residues = sorted(rng.sample(range(m), rng.randint(1, min(m, 3))))
            g = rational.divisor_in_classes(n, m, residues)
            if g is not None:
                assert 1 < g < n and n % g == 0, (n, m, g)
                found += 1
        assert found > 100

    def test_modulus_below_two_rejected(self):
        # a modulus of 0 or an empty class would walk forever
        for m, residues in ((1, (0,)), (0, (1,)), (22, ())):
            with pytest.raises(ValueError):
                rational.divisor_in_classes(35, m, residues)


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

    def test_matches_the_loop(self):
        # seeded products of many small primes, high small-prime powers, a
        # small prime times a cofactor that rho splits, signs and +-1
        rng = random.Random(47)
        ns = [1, -1, 2**200 * 9973**3, -(2**200 * 9973**3), math.prod(SMALL_PRIMES)]
        ns += [9973 * 9967, 2 * 9973, 9973 * 1_000_003 * 1_000_033]
        for _ in range(300):
            ps = rng.sample(SMALL_PRIMES, rng.randint(1, 40))
            n = math.prod(p ** rng.randint(1, 5) for p in ps)
            ns.append(n * rng.choice((1, -1, rng.randint(2, 10**12))))
        for _ in range(300):
            ns.append(rng.randint(-(10**15), 10**15) or 1)
        for n in ns:
            f = factor_rational(n)
            assert (f.sign, f.factors) == factor_by_loop(n), n
            assert f.value() == n


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

    def test_flags_match_spf(self):
        # prime_flags(limit)[k] is 1 exactly when k >= 2 and spf[k] == k,
        # for every small limit and a larger one
        for limit in (*range(2001), 10**5):
            spf = smallest_prime_factor_sieve(limit)
            want = [int(k > 1 and spf[k] == k) for k in range(limit + 1)]
            assert list(prime_flags(limit)) == want, limit

    def test_factor_with_sieve_matches(self):
        spf = smallest_prime_factor_sieve(50_000)
        rng = random.Random(43)
        for _ in range(500):
            n = rng.randint(2, 50_000)
            assert tuple(factor_with_sieve(n, spf)) == factor_rational(n).factors
