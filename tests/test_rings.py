import random

import pytest

from cycloperfect.factorization import _theta_root
from cycloperfect.rational import is_rational_prime
from cycloperfect.rings import (
    EISENSTEIN,
    GAUSSIAN,
    ElementParseError,
    QuadInt,
    Ring,
    RingMismatchError,
    _divrem,
    format_element,
    gcd,
    parse_element,
)


def e(a, b=0):
    return QuadInt(EISENSTEIN, a, b)


def g(a, b=0):
    return QuadInt(GAUSSIAN, a, b)


def random_element(rng, ring, span=200):
    return QuadInt(ring, rng.randint(-span, span), rng.randint(-span, span))


def divrem(x, y):
    """_divrem on QuadInt values: (q, r) with x = q*y + r."""
    qa, qb, ra, rb = _divrem(x.a, x.b, y.a, y.b, x.ring.t)
    return QuadInt(x.ring, qa, qb), QuadInt(x.ring, ra, rb)


def remainder_by_search(x, y):
    """A remainder of least norm: x - q*y for the lattice q nearest x/y,
    found among the four lattice points around the exact quotient."""
    n = y.norm()
    p = x * y.conjugate()
    corners = [(p.a // n + da, p.b // n + db) for da in (0, 1) for db in (0, 1)]
    return min((x - QuadInt(x.ring, qa, qb) * y for qa, qb in corners), key=QuadInt.norm)


def gcd_by_quadint_loop(x, y):
    """Euclid on QuadInt values with least-norm remainders, kept as the
    oracle for gcd."""
    while y:
        x, y = y, remainder_by_search(x, y)
    return x.sector_canonical()[1]


class TestArithmetic:
    def test_eisenstein_squares(self):
        assert e(2, 1) * e(2, 1) == e(3, 3)

    def test_gaussian_square(self):
        assert g(1, 1) ** 2 == g(0, 2)

    def test_eisenstein_product(self):
        # (3+w)(3+2w) expands to 9 + 9w + 2w^2 = 7 + 7w
        assert e(3, 1) * e(3, 2) == e(7, 7)

    def test_ring_mismatch(self):
        with pytest.raises(RingMismatchError):
            e(1) + g(1)

    def test_int_coercion(self):
        assert e(2, 1) + 1 == e(3, 1)
        assert 2 * g(1, 1) == g(2, 2)
        assert 1 - e(0, 1) == e(1, -1)

    def test_pow_matches_repeated_mul(self):
        rng = random.Random(7)
        for ring in Ring:
            for _ in range(50):
                x = random_element(rng, ring, 9)
                acc = QuadInt(ring, 1, 0)
                for k in range(6):
                    assert x**k == acc
                    acc = acc * x


class TestNormConjugate:
    def test_norms(self):
        assert e(2, 1).norm() == 3
        assert g(1, 1).norm() == 2
        assert e(0, 0).norm() == 0
        assert g(0, 0).norm() == 0

    def test_conjugates(self):
        assert g(7, -8).conjugate() == g(7, 8)
        assert e(3, 1).conjugate() == e(2, -1)
        assert e(5).conjugate() == e(5)

    def test_norm_multiplicative(self):
        rng = random.Random(11)
        for ring in Ring:
            for _ in range(10_000):
                x = random_element(rng, ring)
                y = random_element(rng, ring)
                assert (x * y).norm() == x.norm() * y.norm()

    def test_times_conjugate_is_norm(self):
        rng = random.Random(13)
        for ring in Ring:
            for _ in range(2_000):
                x = random_element(rng, ring)
                assert x * x.conjugate() == QuadInt(ring, x.norm(), 0)

    def test_conjugate_is_ring_homomorphism(self):
        rng = random.Random(17)
        for ring in Ring:
            for _ in range(2_000):
                x = random_element(rng, ring)
                y = random_element(rng, ring)
                assert x.conjugate().conjugate() == x
                assert (x * y).conjugate() == x.conjugate() * y.conjugate()
                assert (x + y).conjugate() == x.conjugate() + y.conjugate()

    def test_real_part_doubled(self):
        assert e(3, 1).real_part_doubled() == 5
        assert e(3, 2).real_part_doubled() == 4
        assert g(7, -8).real_part_doubled() == 14


class TestUnitsAndSector:
    def test_unit_groups(self):
        assert {(u.a, u.b) for u in GAUSSIAN.units} == {(1, 0), (0, 1), (-1, 0), (0, -1)}
        assert {(u.a, u.b) for u in EISENSTEIN.units} == {
            (1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1),
        }
        assert all(u.norm() == 1 for ring in Ring for u in ring.units)

    def test_associates_of_one(self):
        assert set(e(1).associates()) == set(EISENSTEIN.units)

    def test_associates_gaussian(self):
        assert set(g(2, 1).associates()) == {g(2, 1), g(-1, 2), g(-2, -1), g(1, -2)}

    def test_associates_contains_minimal(self):
        # (1-w)(-w^2) = 1 - w^2 = 2 + w
        assert e(2, 1) in e(1, -1).associates()

    def test_sector_canonical_examples(self):
        u, y = e(1, -1).sector_canonical()
        assert (u, y) == (e(0, -1), e(2, 1))
        assert u * y == e(1, -1)
        assert g(-3).sector_canonical() == (g(-1), g(3))
        u, y = e(3, 3).sector_canonical()
        assert (u, y) == (e(1, 1), e(3))

    def test_sector_uniqueness_exhaustive(self):
        for ring in Ring:
            for a in range(-50, 51):
                for b in range(-50, 51):
                    if a == 0 and b == 0:
                        continue
                    x = QuadInt(ring, a, b)
                    in_sector = [y for y in x.associates() if y.in_sector()]
                    assert len(in_sector) == 1, x
                    u, y = x.sector_canonical()
                    assert y == in_sector[0]
                    assert u * y == x

    def test_sector_canonical_matches_unit_loop(self):
        # the closed form against trying every unit v: y = x * v in the
        # sector, u = conj(v) = 1/v
        def unit_loop(x):
            (found,) = [
                (v.conjugate(), x * v) for v in x.ring.units if (x * v).in_sector()
            ]
            return found

        for ring in Ring:
            for a in range(-60, 61):
                for b in range(-60, 61):
                    if a or b:
                        x = QuadInt(ring, a, b)
                        assert x.sector_canonical() == unit_loop(x), x

    def test_sector_canonical_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            e(0, 0).sector_canonical()


@pytest.mark.parametrize("ring,t", [(GAUSSIAN, 0), (EISENSTEIN, 1)])
class TestRingLawOracles:
    """Each ring against oracles written here from theta^2 = -1 - t*theta."""

    @staticmethod
    def times(x, y, t):
        # multiplication by x = a + b*theta on the basis (1, theta): 1 goes
        # to a + b*theta and theta to b*theta^2 + a*theta = -b + (a - t*b)*theta
        (a, b), (c, d) = x, y
        return a * c - b * d, b * c + (a - t * b) * d

    def test_products_and_norms_match_the_matrix(self, ring, t):
        assert ring.t == t
        rng = random.Random(41)
        for _ in range(1_000):
            a, b, c, d = (rng.randint(-(2**70), 2**70) for _ in range(4))
            got = QuadInt(ring, a, b) * QuadInt(ring, c, d)
            assert (got.a, got.b) == self.times((a, b), (c, d), t), (a, b, c, d)
            # the determinant of the matrix
            assert QuadInt(ring, a, b).norm() == a * (a - t * b) + b * b

    def test_units_are_the_norm_one_points_in_generator_order(self, ring, t):
        box = {
            (a, b)
            for a in range(-2, 3)
            for b in range(-2, 3)
            if a * (a - t * b) + b * b == 1
        }
        powers = [(1, 0)]
        while len(powers) < len(box):
            powers.append(self.times(powers[-1], (t, 1), t))
        assert set(powers) == box
        assert [(u.a, u.b) for u in ring.units] == powers
        assert ring.unit_count == len(box)

    def test_inert_exactly_when_theta_has_no_root(self, ring, t):
        sieve = bytearray([1]) * 10_000
        sieve[:2] = b"\0\0"
        for n in range(2, 100):
            if sieve[n]:
                sieve[n * n :: n] = bytearray(len(sieve[n * n :: n]))
        primes = [q for q in range(10_000) if sieve[q] and q != 2 + t]
        assert ring.residue_char == 2 + t and ring.is_ramified(2 + t)
        for q in primes:
            rootless = all((x * x + t * x + 1) % q for x in range(q))
            assert ring.is_inert(q) == rootless, q


class TestEuclidean:
    def test_divrem_by_one(self):
        assert divrem(g(9, 4), g(1)) == (g(9, 4), g(0))

    def test_divrem_gaussian_example(self):
        q, r = divrem(g(5), g(1, 1))
        assert q * g(1, 1) + r == g(5)
        assert r.norm() < 2

    def test_divrem_eisenstein_exact(self):
        # 7 = (-w)(3+w)(3+2w), so division by 3+w is exact
        q, r = divrem(e(7), e(3, 1))
        assert r == e(0)
        assert q.sector_canonical()[1] == e(3, 2)

    def test_divrem_contract_random(self):
        rng = random.Random(19)
        for ring in Ring:
            for _ in range(10_000):
                x = random_element(rng, ring)
                y = random_element(rng, ring)
                if not y:
                    continue
                q, r = divrem(x, y)
                assert q * y + r == x
                assert r.norm() < y.norm()

    def test_divide_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            divrem(e(1), e(0))

    def test_exact_divide(self):
        assert g(0, 2).exact_divide(g(1, 1)) == g(1, 1)
        assert e(3).exact_divide(e(2, 1)) == e(1, -1)
        assert g(5).exact_divide(g(1, 1)) is None

    def test_gcd_examples(self):
        assert gcd(e(3), e(2, 1)) == e(2, 1)
        assert gcd(g(2, 1), g(2, -1)) == g(1)
        assert gcd(e(5, 2), e(0)) == e(5, 2).sector_canonical()[1]

    def test_gcd_zero_zero(self):
        with pytest.raises(ZeroDivisionError):
            gcd(e(0), e(0))
        with pytest.raises(ZeroDivisionError):
            gcd(g(0), g(0))

    def test_gcd_matches_quadint_loop(self):
        # zero operands, units, negative coordinates at several scales, and
        # prime_above's (q, c - theta) pairs for split q in (10**6, 10**20)
        rng = random.Random(29)
        for ring in Ring:
            zero = QuadInt(ring, 0)
            pairs = [(u, v) for u in ring.units for v in (zero, *ring.units)]
            pairs += [(zero, u) for u in ring.units]
            for span in (1, 3, 200, 10**6, 10**20):
                for _ in range(300):
                    x = random_element(rng, ring, span)
                    y = random_element(rng, ring, span)
                    pairs += [(x, y), (x, zero), (zero, y), (x * y, y)]
            split = 0
            while split < 100:
                q = rng.randrange(10**6, 10**20)
                if ring.is_inert(q) or not is_rational_prime(q) or ring.is_ramified(q):
                    continue
                split += 1
                x, y = QuadInt(ring, q, 0), QuadInt(ring, _theta_root(q, ring), -1)
                assert gcd(x, y).norm() == q
                pairs += [(x, y), (y, x)]
            for x, y in pairs:
                if x or y:
                    assert gcd(x, y) == gcd_by_quadint_loop(x, y), (x, y)

    def test_gcd_properties(self):
        rng = random.Random(23)
        for ring in Ring:
            for _ in range(1_000):
                x = random_element(rng, ring, 60)
                y = random_element(rng, ring, 60)
                z = random_element(rng, ring, 8)
                if not (x and y and z):
                    continue
                d = gcd(x, y)
                assert x.exact_divide(d) is not None
                assert y.exact_divide(d) is not None
                scaled = gcd(x * z, y * z)
                assert scaled == (z * d).sector_canonical()[1]


class TestParity:
    def test_examples(self):
        assert e(3).is_even()
        assert not e(2).is_even()
        assert not g(2, 1).is_even()
        assert g(1, 1).is_even()

    def test_or_property(self):
        rng = random.Random(29)
        for ring in Ring:
            for _ in range(3_000):
                x = random_element(rng, ring, 80)
                y = random_element(rng, ring, 80)
                if not (x and y):
                    continue
                assert (x * y).is_even() == (x.is_even() or y.is_even())

    def test_residue_mod_minimal(self):
        assert e(2, 1).residue_mod_minimal() == 0
        assert e(3, 1).residue_mod_minimal() == 1
        assert g(2, 1).residue_mod_minimal() == 1
        # residue is the image under theta -> 1, so it respects products
        rng = random.Random(31)
        for ring in Ring:
            p = ring.residue_char
            for _ in range(2_000):
                x = random_element(rng, ring, 50)
                y = random_element(rng, ring, 50)
                assert (x * y).residue_mod_minimal() == (
                    x.residue_mod_minimal() * y.residue_mod_minimal()
                ) % p
                assert (x + y).residue_mod_minimal() == (
                    x.residue_mod_minimal() + y.residue_mod_minimal()
                ) % p


class TestGrammar:
    @pytest.mark.parametrize(
        "text,ring,a,b",
        [
            ("7-8i", GAUSSIAN, 7, -8),
            ("2+1w", EISENSTEIN, 2, 1),
            ("-3", EISENSTEIN, -3, 0),
            ("-3", GAUSSIAN, -3, 0),
            ("0+1i", GAUSSIAN, 0, 1),
            ("+5-0w", EISENSTEIN, 5, 0),
        ],
    )
    def test_parse(self, text, ring, a, b):
        assert parse_element(text, ring) == QuadInt(ring, a, b)

    @pytest.mark.parametrize("bad", ["", "w", "i", "2+w", "1+2j", "2 + 1w", "1+1i+1i"])
    def test_parse_rejects(self, bad):
        with pytest.raises(ElementParseError):
            parse_element(bad, GAUSSIAN)

    def test_wrong_ring_symbol(self):
        with pytest.raises(ElementParseError):
            parse_element("2+1w", GAUSSIAN)

    def test_format(self):
        assert format_element(g(7, -8)) == "7-8i"
        assert format_element(e(2, 1)) == "2+1w"
        assert format_element(e(-3)) == "-3"

    def test_roundtrip_random(self):
        rng = random.Random(37)
        for ring in Ring:
            for _ in range(10_000):
                x = QuadInt(
                    ring, rng.randint(-(10**15), 10**15), rng.randint(-(10**15), 10**15)
                )
                assert parse_element(format_element(x), ring) == x

    def test_json_roundtrip(self):
        x = QuadInt(GAUSSIAN, 2**100, -(3**80))
        assert QuadInt.from_json(x.to_json()) == x
        assert x.to_json()["a"] == str(2**100)
