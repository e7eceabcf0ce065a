import random

import pytest

from cycloperfect.factorization import _cube_root_of_unity, _sqrt_minus_one
from cycloperfect.rational import is_rational_prime
from cycloperfect.rings import (
    EISENSTEIN,
    GAUSSIAN,
    ElementParseError,
    QuadInt,
    Ring,
    RingMismatchError,
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


def gcd_by_quadint_loop(x, y):
    """Euclid on QuadInt values, kept as the oracle for gcd."""
    while y:
        x, y = y, x % y
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


class TestEuclidean:
    def test_divrem_by_one(self):
        assert divmod(g(9, 4), g(1)) == (g(9, 4), g(0))

    def test_divrem_gaussian_example(self):
        q, r = divmod(g(5), g(1, 1))
        assert q * g(1, 1) + r == g(5)
        assert r.norm() < 2

    def test_divrem_eisenstein_exact(self):
        # 7 = (-w)(3+w)(3+2w), so division by 3+w is exact
        q, r = divmod(e(7), e(3, 1))
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
                q, r = divmod(x, y)
                assert q * y + r == x
                assert r.norm() < y.norm()

    def test_divide_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            divmod(e(1), e(0))

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
            root = _sqrt_minus_one if ring is GAUSSIAN else _cube_root_of_unity
            split = 0
            while split < 100:
                q = rng.randrange(10**6, 10**20)
                if ring.is_inert(q) or not is_rational_prime(q) or ring.is_ramified(q):
                    continue
                split += 1
                x, y = QuadInt(ring, q, 0), QuadInt(ring, root(q), -1)
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
