import random
from math import isqrt

import pytest

from cycloperfect import search
from cycloperfect.divisors import Classification, classify
from cycloperfect.factorization import (
    _conjugate_prime,
    factor,
    is_ring_prime,
    prime_above,
)
from cycloperfect.rational import (
    factor_with_sieve,
    is_rational_prime,
    smallest_prime_factor_sieve,
)
from cycloperfect.rings import EISENSTEIN, GAUSSIAN, QuadInt, Ring
from cycloperfect.search import ScanInvariantError, iter_sector
from peeling import peel_factor


def e(a, b=0):
    return QuadInt(EISENSTEIN, a, b)


def g(a, b=0):
    return QuadInt(GAUSSIAN, a, b)


def least_b_prime_by_search(q, ring):
    """The sector prime of norm q with least b, trying b = 0, 1, 2, ..."""
    for b in range(isqrt(q) + 1):
        if ring is GAUSSIAN:
            a = isqrt(q - b * b)
        else:
            # a^2 - a*b + b^2 = q has the larger root a = (b + sqrt(4q - 3b^2)) / 2
            a = (b + isqrt(4 * q - 3 * b * b)) // 2
        x = QuadInt(ring, a, b)
        if x.norm() == q and x.in_sector():
            return x
    return None


def split_primes(rng, ring, lo, hi, count):
    out = []
    while len(out) < count:
        q = rng.randrange(lo, hi)
        if not (ring.is_inert(q) or ring.is_ramified(q)) and is_rational_prime(q):
            out.append(q)
    return out


class TestIsRingPrime:
    def test_examples(self):
        assert is_ring_prime(g(7, -8))  # norm 113
        assert is_ring_prime(e(2))  # inert, norm 4
        assert not is_ring_prime(g(2))  # 2 = -i (1+i)^2
        assert is_ring_prime(e(2, 1))
        assert is_ring_prime(g(1, 1))
        assert not is_ring_prime(e(1, 1))  # unit
        assert not is_ring_prime(e(7))  # splits

    def test_inert_associates(self):
        for x in e(5).associates():
            assert is_ring_prime(x)
        # norm 25 but not an associate of 5
        assert g(3, 4).norm() == 25 and not is_ring_prime(g(3, 4))

    def test_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            is_ring_prime(e(0))


class TestPrimeAbove:
    def test_ramified(self):
        assert prime_above(2, GAUSSIAN) == g(1, 1)
        assert prime_above(3, EISENSTEIN) == e(2, 1)

    def test_split_examples(self):
        assert prime_above(7, EISENSTEIN) == e(3, 1)
        assert prime_above(5, GAUSSIAN) == g(2, 1)  # least-b policy
        assert prime_above(13, EISENSTEIN) == e(4, 1)

    def test_inert(self):
        assert prime_above(5, EISENSTEIN) == e(5)
        assert prime_above(3, GAUSSIAN) == g(3)

    def test_trichotomy(self):
        # norms are q (split), q^2 (inert), or q for the ramified prime
        q = 2
        while q <= 10_000:
            if is_rational_prime(q):
                for ring in Ring:
                    pi = prime_above(q, ring)
                    assert pi.in_sector()
                    assert is_ring_prime(pi)
                    if ring.is_inert(q):
                        assert pi.norm() == q * q
                    else:
                        assert pi.norm() == q
                    if not ring.is_inert(q) and not ring.is_ramified(q):
                        pi_bar = _conjugate_prime(pi)
                        assert pi_bar == pi.conjugate().sector_canonical()[1] != pi
            q += 1

    def test_matches_search_below_1e5(self):
        spf = smallest_prime_factor_sieve(10**5)
        for ring in Ring:
            for q in range(2, 10**5):
                if spf[q] == q and not (ring.is_inert(q) or ring.is_ramified(q)):
                    assert prime_above(q, ring) == least_b_prime_by_search(q, ring), q

    def test_least_b_above_1e6(self):
        rng = random.Random(14)
        for ring in Ring:
            for q in split_primes(rng, ring, 10**6, 10**12, 150):
                pi = prime_above(q, ring)
                assert pi.norm() == q and pi.in_sector()
                assert pi.b < _conjugate_prime(pi).b, (q, ring)

    @pytest.mark.parametrize("q", [0, 1, 4, 21, 25, 65, 91])
    def test_non_prime_raises(self, q):
        for ring in Ring:
            with pytest.raises(ValueError):
                prime_above(q, ring)

    def test_large_split_prime_gaussian(self):
        q = 2**73 - 2**37 + 1  # prime, 1 mod 4
        pi = prime_above(q, GAUSSIAN)
        assert pi.norm() == q and pi.in_sector()

    def test_large_split_prime_eisenstein(self):
        from cycloperfect.mersenne import mersenne_element

        q = mersenne_element(EISENSTEIN, 17).norm()  # 8-digit prime, 1 mod 3
        assert q > 10**6 and q % 3 == 1
        assert is_rational_prime(q)
        pi = prime_above(q, EISENSTEIN)
        assert pi.norm() == q and pi.in_sector()


class TestFactor:
    def test_eisenstein_seven(self):
        f = factor(e(7))
        assert f.unit == e(0, -1)  # -w
        assert f.factors == ((e(3, 1), 1), (e(3, 2), 1))
        assert f.recompose() == e(7)

    def test_minimal_prime(self):
        f = factor(e(2, 1))
        assert f.unit == e(1) and f.factors == ((e(2, 1), 1),)

    def test_gaussian_two(self):
        f = factor(g(2))
        assert f.unit == g(0, -1) and f.factors == ((g(1, 1), 2),)

    def test_unit_input(self):
        f = factor(e(1, 1))
        assert f.unit == e(1, 1) and f.factors == ()

    def test_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            factor(e(0))

    def test_factor_properties_random(self):
        rng = random.Random(47)
        for ring in Ring:
            for _ in range(800):
                x = QuadInt(ring, rng.randint(-300, 300), rng.randint(-300, 300))
                if not x:
                    continue
                f = factor(x)
                assert f.recompose() == x
                assert f.unit.is_unit()
                norm_product = 1
                seen = set()
                for p, k in f.factors:
                    assert k >= 1
                    assert p.in_sector()
                    assert is_ring_prime(p)
                    assert p not in seen
                    seen.add(p)
                    norm_product *= p.norm() ** k
                assert norm_product == x.norm()
                keys = [(p.norm(), p.a, p.b) for p, _ in f.factors]
                assert keys == sorted(keys)
                assert x.is_even() == any(p == ring.minimal_prime for p, _ in f.factors)

    def test_recomposition_sweep(self):
        bound = 5_000
        from cycloperfect.rational import factor_with_sieve
        from cycloperfect.search import ScanInvariantError, iter_sector

        for ring in Ring:
            spf = smallest_prime_factor_sieve(bound)
            for a, b, n in iter_sector(ring, bound):
                x = QuadInt(ring, a, b)
                f = factor(x, norm_factors=factor_with_sieve(n, spf))
                assert f.recompose() == x

    def test_mersenne_scale_element(self):
        # norm has a ~38-digit split prime factor; exercises the gcd route
        from cycloperfect.mersenne import mersenne_element

        q = mersenne_element(EISENSTEIN, 79).norm()
        assert is_rational_prime(q)
        x = e(2, 1) ** 5 * prime_above(q, EISENSTEIN)
        f = factor(x)
        assert f.recompose() == x
        assert {p.norm() for p, _ in f.factors} == {3, q}

    def test_json_roundtrip(self):
        f = factor(e(7))
        obj = f.to_json(element=e(7))
        assert obj["element"] == e(7).to_json()


class TestMatchesPeeling:
    def test_every_class_up_to_2e4(self):
        bound = 20_000
        spf = smallest_prime_factor_sieve(bound)
        for ring in Ring:
            for a, b, n in iter_sector(ring, bound):
                x = QuadInt(ring, a, b)
                norm_factors = factor_with_sieve(n, spf)
                assert factor(x, norm_factors=norm_factors) == peel_factor(x, norm_factors), x

    def test_seeded_elements_up_to_1e10(self):
        rng = random.Random(17)
        span = 10**10
        for ring in Ring:
            for _ in range(150):
                x = QuadInt(ring, rng.randint(-span, span), rng.randint(-span, span))
                if x:
                    assert factor(x) == peel_factor(x), x

    def test_content_and_prime_powers(self):
        # the content q^k goes to both conjugates, the rest to one of them
        for ring in Ring:
            for q in (7, 13, 37):
                pi = prime_above(q, ring)
                for k in range(3):
                    for j in range(4):
                        for x in (q**k * pi**j, q**k * _conjugate_prime(pi) ** j):
                            for u in ring.units:
                                assert factor(u * x) == peel_factor(u * x), (u, x)


_WRONG_NORM_MESSAGES = {
    "ramified": "do not divide",
    "inert": "odd exponent",
    "split": "do not divide",
    "content": r"content 5\^1 exceeds 5\^1",
}


@pytest.mark.parametrize(
    "x, norm_factors, kind",
    [
        (g(2), [(2, 3)], "ramified"),  # 2 = -i(1+i)^2: (1+i)^3 does not divide it
        (e(2), [(2, 1)], "inert"),  # the prime 2 takes 2^2 of the norm at a time
        (g(5), [(5, 3)], "split"),  # 5 = (2+i)(2-i): two primes, not three
        (g(5), [(5, 1)], "content"),  # 5 | gcd(5, 0) puts 5^2 in the norm
    ],
)
def test_wrong_norm_factors_raise(x, norm_factors, kind):
    with pytest.raises(ArithmeticError, match=_WRONG_NORM_MESSAGES[kind]):
        factor(x, norm_factors=norm_factors)


def _claim(fac):
    """fac's (prime, exponent) pairs, the claim of a factorization."""
    return list(fac.factors)


def _certify(x, claim):
    """x's finding built as a sector scan builds a class: the prime table
    rows (search._prime_rows) of the claimed primes, the minimal prime
    first, taken at the claimed exponents and multiplied together, then
    checked by search._finding against x's norm and the norm of its sigma."""
    ring = x.ring
    least = ring.minimal_prime
    claim = sorted(claim, key=lambda term: term[0] != least)  # stable
    start = int(not claim or claim[0][0] != least)
    triples = [(ring.residue_char, least.a, least.b)] * start
    triples += [(p.norm(), p.a, p.b) for p, _ in claim]
    bound = max([ring.residue_char] + [p.norm() ** k for p, k in claim])
    rows = search._prime_rows(ring, bound, triples)
    y = s = QuadInt(ring, 1)
    for row, (_, k) in zip(rows[start:], claim):
        _pn, _psn, pa, pb, qa, qb = row[k - 1]
        y, s = y * QuadInt(ring, pa, pb), s * QuadInt(ring, qa, qb)
    sn = classify(x, factorization=factor(x)).sigma_norm
    return Classification.from_row(ring, search._finding(ring, x.norm(), sn, y.a, y.b, s.a, s.b))


def _shifted(claim):
    # (1+i)^5 does not divide x
    bump = {g(1, 1): 1}
    return [(p, k + bump.get(p, 0)) for p, k in claim]


def _swapped(claim):
    # (1+2i)^3 (2+i)^2 has the norm of (2+i)^3 (1+2i)^2 but not its sigma norm
    swap = {g(2, 1): g(1, 2), g(1, 2): g(2, 1)}
    return [(swap.get(p, p), k) for p, k in claim]


def _repeated(claim):
    # (2+i) * (2+i) divides x, but is one prime claimed twice
    return claim + [(g(2, 1), 1)]


def _cofactor(claim):
    # without 3 the claim leaves 3 of x unaccounted for
    return [t for t in claim if t[0] != g(3)]


def _associate(claim):
    # 2-i is an associate of 1+2i, not its sector representative
    return [(g(2, -1) if p == g(1, 2) else p, k) for p, k in claim]


class TestClaim:
    # x = (2+i)^3 * (1+2i)^2 * 3 * (1+i)^4 up to a unit
    X = g(2, 1) ** 3 * g(1, 2) ** 2 * g(3) * g(1, 1) ** 4

    def test_a_true_claim_gives_the_peeled_factorization(self):
        # the table rows of peeling's factorization, in any order, build the
        # sector associate of x and the sigma that classify builds from it
        rng = random.Random(53)
        for ring in Ring:
            for _ in range(300):
                x = QuadInt(ring, rng.randint(-300, 300), rng.randint(-300, 300))
                if x:
                    fac = peel_factor(x)
                    f = _certify(x, _claim(fac)[::-1])
                    _unit, y = x.sector_canonical()
                    cls = classify(y, factorization=peel_factor(y))
                    assert (f.element, f.sigma, f.sigma_norm, f.perfect) == (
                        y,
                        cls.sigma,
                        cls.sigma_norm,
                        cls.perfect,
                    ), x

    # a zero exponent has no counterpart: every table row is a power j >= 1
    @pytest.mark.parametrize(
        "edit, message",
        [
            (_shifted, "do not fit"),
            (_swapped, "do not fit"),
            (_repeated, "repeats a prime"),
            (_cofactor, "do not fit"),
            (_associate, "is not in the sector"),
        ],
        ids=["shifted", "swapped", "repeated", "cofactor", "associate"],
    )
    def test_a_wrong_claim_raises(self, edit, message):
        claim = _claim(factor(self.X))
        assert _certify(self.X, claim).element == self.X.sector_canonical()[1]
        with pytest.raises(ScanInvariantError, match=message):
            _certify(self.X, edit(claim))
