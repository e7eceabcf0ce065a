import hashlib
import importlib
import math

import pytest

from cycloperfect import cli, rational
from cycloperfect.divisors import Status, classify, sigma_from_factorization
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


def e(a, b=0):
    return QuadInt(EISENSTEIN, a, b)


def g(a, b=0):
    return QuadInt(GAUSSIAN, a, b)


class TestRecords:
    def test_gaussian_seven(self):
        rec = mersenne(GAUSSIAN, 7)
        assert rec.element == g(7, -8)
        assert rec.norm == 113
        assert rec.is_prime and rec.prime_exponent_ok
        assert rec.k_residue == 7  # mod 8

    def test_eisenstein_eleven(self):
        rec = mersenne(EISENSTEIN, 11)
        assert rec.norm == 176419
        assert rec.is_prime
        assert rec.k_residue == 11  # mod 12

    def test_unit_case(self):
        rec = mersenne(GAUSSIAN, 1)
        assert rec.element == g(0, 1)
        assert not rec.is_prime

    def test_k_zero_rejected(self):
        with pytest.raises(ValueError):
            mersenne(EISENSTEIN, 0)

    def test_prime_implies_prime_exponent(self):
        for ring in Ring:
            for k in range(2, 64):
                rec = mersenne(ring, k)
                if rec.is_prime:
                    assert rec.prime_exponent_ok, (ring, k)

    def test_json_roundtrip(self):
        rec = mersenne(EISENSTEIN, 11)
        assert rec.to_json()["norm"] == "176419"


class TestClosedForm:
    def test_known_values(self):
        assert mersenne_norm_closed_form(11) == 176419
        assert mersenne_norm_closed_form(12) == 728**2
        assert mersenne_norm_closed_form(3) is None
        assert mersenne_norm_closed_form(7) is None

    def test_rejects_small_k(self):
        with pytest.raises(ValueError):
            mersenne_norm_closed_form(1)

    def test_matches_computed_norms(self):
        for k in range(2, 61):
            want = mersenne_norm_closed_form(k)
            if want is None:
                assert k % 12 not in (0, 1, 2, 10, 11)
                continue
            assert mersenne_element(EISENSTEIN, k).norm() == want, k


class TestCompositeWitness:
    def test_eisenstein_four(self):
        left, right = composite_exponent_witness(EISENSTEIN, 4)
        assert (left, right) == (e(2, 3), e(4, 3))
        assert left * right == mersenne_element(EISENSTEIN, 4)

    def test_gaussian_four(self):
        left, right = composite_exponent_witness(GAUSSIAN, 4)
        assert (left, right) == (g(-1, 2), g(1, 2))
        assert left * right == g(-5)

    def test_gaussian_nine(self):
        left, right = composite_exponent_witness(GAUSSIAN, 9)
        assert left * right == mersenne_element(GAUSSIAN, 9)

    def test_all_composite_k(self):
        for ring in Ring:
            for k in range(4, 51):
                if is_rational_prime(k):
                    continue
                left, right = composite_exponent_witness(ring, k)
                m = mersenne_element(ring, k)
                assert left * right == m
                assert 1 < left.norm() < m.norm()

    def test_prime_k_rejected(self):
        with pytest.raises(ValueError):
            composite_exponent_witness(EISENSTEIN, 7)
        with pytest.raises(ValueError):
            composite_exponent_witness(EISENSTEIN, 3)


class TestConstructions:
    def test_gaussian_k7_conjugated(self):
        alpha = candidate_factorization(GAUSSIAN, 7, "conjugated")[0]
        assert alpha == g(1, 1) ** 6 * g(7, 8) == g(64, -56)
        cls = classify(alpha, check_primitive=True)
        assert cls.status is Status.NORM_PERFECT
        assert cls.sigma_norm == 2 * cls.norm
        assert cls.primitive

    def test_eisenstein_k11_conjugated(self):
        el, fac = candidate_factorization(EISENSTEIN, 11, "conjugated")
        cls = classify(el, check_primitive=True, factorization=fac)
        assert cls.status is Status.NORM_PERFECT
        assert cls.sigma_norm == 3 * cls.norm
        assert cls.primitive
        # the known factorization agrees with the generic path
        assert classify(el, check_primitive=True) == cls

    def test_composite_k_rejected(self):
        with pytest.raises(ValueError):
            candidate_factorization(EISENSTEIN, 13)[0]  # (2+w)^13 - 1 is composite

    def test_bad_unit_rejected(self):
        with pytest.raises(ValueError):
            candidate_factorization(EISENSTEIN, 11, "conjugated", e(2))[0]

    def test_factorization_recomposes(self):
        for ring, k in ((GAUSSIAN, 7), (EISENSTEIN, 11), (EISENSTEIN, 193)):
            for variant in ("plain", "conjugated"):
                el, fac = candidate_factorization(ring, k, variant)
                assert fac.recompose() == el

    def test_eisenstein_perfect_unit(self):
        eps = e(0, -1)  # -w
        el, fac = candidate_factorization(EISENSTEIN, 193, "plain", eps)
        assert sigma_from_factorization(fac) == EISENSTEIN.minimal_prime * el
        for u in EISENSTEIN.units:
            if u == eps:
                continue
            el2, fac2 = candidate_factorization(EISENSTEIN, 193, "plain", u)
            assert sigma_from_factorization(fac2) != EISENSTEIN.minimal_prime * el2

    def test_conjugated_k11_never_perfect(self):
        for u in EISENSTEIN.units:
            el, fac = candidate_factorization(EISENSTEIN, 11, "conjugated", u)
            assert sigma_from_factorization(fac) != EISENSTEIN.minimal_prime * el


class TestScan:
    def test_eisenstein_flags(self):
        records = scan(EISENSTEIN, 12, jobs=1)
        assert [r.k for r in records] == [2, 3, 5, 7, 11]
        flagged = {r.k for r in records if r.is_prime}
        assert flagged == {2, 3, 5, 7, 11} - {3}
        assert mersenne(EISENSTEIN, 3).is_prime is False

    def test_composite_k_absent(self):
        records = scan(EISENSTEIN, 4, jobs=1)
        assert all(r.k != 4 for r in records)

    def test_residue_filter(self):
        records = scan(GAUSSIAN, 12, residues={1, 7}, jobs=1)
        assert {r.k for r in records} == {7}
        assert records[0].is_prime

    def test_k_max_too_small(self):
        with pytest.raises(ValueError):
            scan(EISENSTEIN, 1)

    def test_parallel_matches_serial(self):
        done = []
        parallel = scan(EISENSTEIN, 90, jobs=2, progress_cb=done.append)
        assert parallel == scan(EISENSTEIN, 90, jobs=1)
        assert [r.k for r in parallel] == sorted(r.k for r in parallel)
        assert done == list(range(1, len(parallel) + 1))

    def test_large_norms_are_proven(self, monkeypatch):
        # every quadratic Mersenne norm of 2**64 or more is decided by
        # Pocklington, never by the random Miller-Rabin rounds
        want = {ring: scan(ring, 400, jobs=1) for ring in Ring}
        assert any(r.is_prime and r.norm >= 1 << 64 for r in want[GAUSSIAN])
        assert any(r.is_prime and r.norm >= 1 << 64 for r in want[EISENSTEIN])
        plain = rational._miller_rabin

        def deterministic_only(n, a):
            if n >= 1 << 64:
                raise AssertionError(f"random Miller-Rabin round on {n}")
            return plain(n, a)

        monkeypatch.setattr(rational, "_miller_rabin", deterministic_only)
        for ring in Ring:
            assert scan(ring, 400, jobs=1) == want[ring]

    def test_divisor_search_changes_no_record(self, monkeypatch):
        # a divisor of the forced form only settles a composite earlier: with
        # the search finding nothing, every record is the same
        module = importlib.import_module("cycloperfect.mersenne")
        for ring in Ring:
            found = []
            search = module.divisor_in_classes

            def recording(n, k, degree):
                g = search(n, k, degree)
                if g is not None and g * g != n:
                    found.append(k)
                return g

            monkeypatch.setattr(module, "divisor_in_classes", recording)
            want = scan(ring, 400, jobs=1)
            assert found, ring  # some composite norm was decided by a divisor
            assert all(not r.is_prime for r in want if r.k in found), ring
            monkeypatch.setattr(module, "divisor_in_classes", lambda n, k, d: None)
            assert scan(ring, 400, jobs=1) == want, ring
            monkeypatch.undo()


def prime_divisors_below(n, blocks):
    """The primes of the blocks (lists with their products) dividing n."""
    found = []
    for members, product in blocks:
        g = math.gcd(product % n, n)
        if g > 1:
            found += [ell for ell in members if g % ell == 0]
    return found


class TestDivisorClasses:
    def test_prime_factors_below_a_million_lie_in_the_walked_class(self):
        # every split prime factor l of N(min**k - 1), prime k, is 1 mod
        # lcm(k, unit_count); an odd inert l never divides it (Frobenius:
        # pi**l = conj(pi) mod l), so the rule "inert l = 1 (mod 2k)" holds
        # vacuously, and the one inert factor is 2 in Z[w] at k = 3, the
        # order of min = w (mod 2); no ramified prime divides the norm
        primes = rational._sieve_primes(10**6)
        blocks = [(primes[i : i + 4000], math.prod(primes[i : i + 4000])) for i in range(0, len(primes), 4000)]
        split, inert = 0, []
        for ring in Ring:
            for k in filter(is_rational_prime, range(2, 401)):
                for ell in prime_divisors_below(mersenne_element(ring, k).norm(), blocks):
                    assert not ring.is_ramified(ell), (ring, k, ell)
                    if ring.is_inert(ell):
                        inert.append((ring, k, ell))
                        assert ell == 2 or ell % (2 * k) == 1, (ring, k, ell)
                    else:
                        assert ell % math.lcm(k, ring.unit_count) == 1, (ring, k, ell)
                        split += 1
        assert inert == [(EISENSTEIN, 3, 2)]
        assert split > 100

    def test_walk_decides_at_least_the_old_classes(self):
        # over the benchmark's exponents the class 1 (mod lcm(k, unit_count))
        # decides at least as many composite norms, with the same budget, as
        # the classes +-1 (mod 2k) the walk used before, kept here as oracle
        for ring, k_max in ((GAUSSIAN, 2000), (EISENSTEIN, 1500)):
            new = old = 0
            for k in filter(is_rational_prime, range(2, k_max + 1)):
                n = mersenne_element(ring, k).norm()
                g = rational.divisor_in_classes(n, math.lcm(k, ring.unit_count), (1,))
                h = rational.divisor_in_classes(n, 2 * k, (1, 2 * k - 1))
                new += g is not None and g * g != n
                old += h is not None and h * h != n
            assert new >= old > 90, (ring, new, old)


# OEIS A057429 and A066408: the prime exponents k of the prime Gaussian and
# Eisenstein Mersenne elements, taken from the published lists
A057429 = [2, 3, 5, 7, 11, 19, 29, 47, 73, 79, 113, 151, 157, 163, 167, 239, 241, 283, 353, 367, 379, 457, 997, 1367]
A066408 = [2, 5, 7, 11, 17, 19, 79, 163, 193, 239, 317, 353, 659, 709, 1049, 1103]
# sha256 of the mersenne command's stdout (JSON, then --csv), recorded with
# plain pow and the walk over the classes +-1 (mod 2k)
MERSENNE_DIGESTS = {
    GAUSSIAN: (
        2000,
        A057429,
        "fead2f06cebc566cd513c9c57acbdd1d644026634a2aa17709114340e60a99e4",
        "c6d4b27eaed98f82906cd7df9682abc5b5976b090951ef5d05953a8efb63661b",
    ),
    EISENSTEIN: (
        1500,
        A066408,
        "86d40aa69ed82325e8b5be6f2800056a96564d602bdde51241a5b37b64e522bd",
        "2489f2065a0f2fe92acb10bff69f1f36a5ab6a30e96015b4e01db7dbc744f2d1",
    ),
}


@pytest.mark.parametrize("ring", [GAUSSIAN, EISENSTEIN], ids=str)
def test_prime_exponents_are_the_published_lists(ring, capsys, monkeypatch):
    # one scan at jobs=2 feeds both checks: its prime exponents against the
    # OEIS list, and the digests of both renderings by the CLI
    k_max, published, json_digest, csv_digest = MERSENNE_DIGESTS[ring]
    records = scan(ring, k_max, jobs=2)
    assert [r.k for r in records if r.is_prime] == published
    monkeypatch.setattr(cli, "scan", lambda *args, **kwargs: records)
    digests = []
    for extra in ([], ["--csv"]):
        argv = ["mersenne", "--ring", ring.value, "--max-k", str(k_max), "--jobs", "2"]
        assert cli.main(argv + extra) == 0
        digests.append(hashlib.sha256(capsys.readouterr().out.encode()).hexdigest())
    assert digests == [json_digest, csv_digest]
