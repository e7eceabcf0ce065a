import csv
import functools
import hashlib
import io
import json
import os
import random
import re
import signal
from bisect import bisect_right
from math import isqrt

import pytest

from cycloperfect import cli, search, verify
from cycloperfect.divisors import (
    Classification,
    Status,
    _geometric_sum,
    classify,
    divisor_sum_from_factorization,
    perfect_associate_unit,
)
from cycloperfect.factorization import Factorization, factor, is_ring_prime
from cycloperfect.mersenne import NORM_PERFECT_K_RESIDUES, candidate_factorization
from cycloperfect.mersenne import scan as mersenne_scan
from cycloperfect.rings import EISENSTEIN, GAUSSIAN, QuadInt, Ring
from cycloperfect.search import (
    ScanInvariantError,
    SearchReport,
    check_rational_perfect_remark,
    count_lattice_points,
    count_sector_classes,
    factor_sweep,
    find_normperfect_primes,
    iter_sector,
    no_normperfect_prime_equation,
    sector_scan,
    validate_odd_form,
    validate_parker_form,
    validate_ward_form,
)
from cycloperfect.verify import DEFAULTS, _check_recomposition_sweep, sector_primes
from classification_json import reference_json
from peeling import peel_factor
from table_faults import FAULTS, conjugate_sigma, swapped_split_exponents


def e(a, b=0):
    return QuadInt(EISENSTEIN, a, b)


def g(a, b=0):
    return QuadInt(GAUSSIAN, a, b)


class TestEnumeration:
    def test_every_class_once(self):
        for ring in Ring:
            seen = set()
            for a, b, n in iter_sector(ring, 500):
                x = QuadInt(ring, a, b)
                assert x.in_sector()
                assert x.norm() == n <= 500
                canon = x.sector_canonical()[1]
                assert canon == x
                assert x not in seen
                seen.add(x)

    def test_completeness_against_lattice_count(self):
        for ring in Ring:
            for bound in (50, 400, 2_000):
                classes = count_sector_classes(ring, bound)
                points = count_lattice_points(ring, bound)
                assert points == classes * ring.unit_count

    def test_strip_sum_counts_every_class(self):
        # against the in_sector points of a box that holds every norm <= 3000
        top = 3_000
        m = isqrt(4 * top) + 2
        for ring in Ring:
            box = sorted(
                (x.norm(), a, b)
                for a in range(-m, m + 1)
                for b in range(-m, m + 1)
                if (x := QuadInt(ring, a, b)).in_sector() and x.norm() <= top
            )
            norms = [n for n, _, _ in box]
            for bound in range(top + 1):
                want = bisect_right(norms, bound)
                assert count_sector_classes(ring, bound) == want, (ring, bound)
            for bound in (0, 1, 2, 3, 4, 7, 100, 2_999, top):
                points = sorted((n, a, b) for a, b, n in iter_sector(ring, bound))
                assert points == box[: bisect_right(norms, bound)], (ring, bound)

    def test_expected_counts(self):
        # frozen from the lattice-count cross-check: 31416 / 4 and 36294 / 6
        assert count_sector_classes(GAUSSIAN, 10_000) == 7854
        assert count_sector_classes(EISENSTEIN, 10_000) == 6049


class TestSectorScan:
    def test_gaussian_odd_contains_2_plus_i(self):
        report = sector_scan(GAUSSIAN, 30, parity="odd", jobs=1)
        norm_perfect = [
            f.element for f in report.findings if f.status is Status.NORM_PERFECT
        ]
        assert g(2, 1) in norm_perfect

    def test_units_only_scan(self):
        report = sector_scan(EISENSTEIN, 1, parity="all", jobs=1)
        assert report.scanned == 1  # the class of 1
        assert not report.findings

    def test_bound_guard(self):
        with pytest.raises(ValueError):
            sector_scan(EISENSTEIN, 10**7, jobs=1)

    def test_negative_bound(self):
        for ring in Ring:
            with pytest.raises(ValueError, match="^norm bound -5 is negative$"):
                sector_scan(ring, -5, jobs=1)
            with pytest.raises(ValueError, match="^norm bound -5 is negative$"):
                find_normperfect_primes(ring, -5)
            empty = sector_scan(ring, 0, jobs=1)
            assert (empty.scanned, empty.findings) == (0, ())
            assert find_normperfect_primes(ring, 0) == []

    def test_parity_filters(self):
        all_r = sector_scan(EISENSTEIN, 300, parity="all", jobs=1)
        odd_r = sector_scan(EISENSTEIN, 300, parity="odd", jobs=1)
        even_r = sector_scan(EISENSTEIN, 300, parity="even", jobs=1)
        assert odd_r.scanned + even_r.scanned == all_r.scanned
        assert all(f.element.is_even() for f in even_r.findings)

    def test_findings_reclassify_identically(self):
        report = sector_scan(GAUSSIAN, 2_000, parity="all", jobs=1)
        assert report.findings
        for f in report.findings:
            again = classify(f.element)
            assert f == again
            assert (f.element, f.sigma, f.status, f.even) == (
                again.element,
                again.sigma,
                again.status,
                again.even,
            )

    def test_parallel_matches_serial(self):
        serial = sector_scan(EISENSTEIN, 3_000, jobs=1)
        parallel = sector_scan(EISENSTEIN, 3_000, jobs=2)
        assert serial.scanned == parallel.scanned
        assert serial.findings == parallel.findings

    def test_prune_no_norm_perfect_loss(self):
        plain = sector_scan(EISENSTEIN, 20_000, parity="even", jobs=2, prune=False)
        pruned = sector_scan(EISENSTEIN, 20_000, parity="even", jobs=2, prune=True)
        assert pruned.pruned > 0

        def norm_perfect(report):
            return [
                f.element for f in report.findings if f.status is Status.NORM_PERFECT
            ]

        assert norm_perfect(plain) == norm_perfect(pruned)

    def test_report_serialization(self):
        report = sector_scan(GAUSSIAN, 100, jobs=1)
        obj = report.to_json()
        assert obj["ring"] == "gaussian"
        assert isinstance(obj["findings"], list)
        rows = report.csv_rows()
        assert rows[0][0] == "element"
        assert len(rows) == len(report.findings) + 1

    def test_perfect_unit_serialization(self):
        # no scan finding up to norm 2*10^5 has a perfect unit, so the report
        # is built by hand: k = 73 is the first prime Mersenne exponent with
        # k = 1 (mod 8), eta is perfect, and x = i*eta is perfect under -i
        i = g(0, 1)
        eta, _ = candidate_factorization(GAUSSIAN, 73, "plain", -i)
        x = i * eta
        cls = classify(x)
        report = SearchReport(
            ring=GAUSSIAN,
            norm_bound=x.norm(),
            parity="all",
            scanned=1,
            pruned=0,
            rows=(cls.row(),),
            wall_time=0.0,
        )
        assert report.findings == (cls,)
        assert report.to_json()["findings"] == [reference_json(cls, -i)]
        assert report.csv_rows()[1][-1] == "0-1i"


class TestSectorContext:
    @staticmethod
    def _count(monkeypatch, name):
        """Replace search's binding of a sieve by one that logs each limit."""
        sieved = []
        sieve = getattr(search, name)

        def counting_sieve(limit):
            sieved.append(limit)
            return sieve(limit)

        monkeypatch.setattr(search, name, counting_sieve)
        return sieved

    def test_each_context_is_built_once(self, monkeypatch):
        monkeypatch.setattr(search, "_BUILT", {})
        flagged = self._count(monkeypatch, "prime_flags")
        spf = self._count(monkeypatch, "smallest_prime_factor_sieve")
        bound = 1_234
        rows = search._build_context(GAUSSIAN, bound)["rows"]
        assert search._build_context(GAUSSIAN, bound)["rows"] is rows
        assert flagged == [bound]
        # the other ring reuses the ring-independent flags
        ctx = search._build_context(EISENSTEIN, bound)
        assert flagged == [bound]
        assert ctx["ring"] is EISENSTEIN and search._BUILT[EISENSTEIN] is ctx
        assert ctx["flags"] is search._BUILT[GAUSSIAN]["flags"]
        assert sector_primes(GAUSSIAN, bound)[0] == g(1, 1)
        assert flagged == [bound]
        search._build_context(GAUSSIAN, bound + 1)
        assert flagged == [bound, bound + 1]
        assert spf == []

    def test_a_scan_never_sieves_spf(self, monkeypatch):
        monkeypatch.setattr(search, "_BUILT", {})
        spf = self._count(monkeypatch, "smallest_prime_factor_sieve")
        for ring in Ring:
            for parity in ("odd", "even"):
                sector_scan(ring, 3_000, parity=parity, jobs=1)
        assert spf == []
        assert all("spf" not in ctx for ctx in search._BUILT.values())

    def test_factor_sweep_sieves_spf_once_per_bound(self, monkeypatch):
        monkeypatch.setattr(search, "_BUILT", {})
        spf = self._count(monkeypatch, "smallest_prime_factor_sieve")
        bound = 1_234
        sector_scan(GAUSSIAN, bound, jobs=1)
        for ring in (GAUSSIAN, GAUSSIAN, EISENSTEIN):
            swept = factor_sweep(ring, bound, search._divisor_sum_mismatch, jobs=1)
            assert swept == (count_sector_classes(ring, bound), [])
        assert spf == [bound]
        assert search._BUILT[EISENSTEIN]["spf"] is search._BUILT[GAUSSIAN]["spf"]
        factor_sweep(GAUSSIAN, bound + 1, search._divisor_sum_mismatch, jobs=1)
        assert spf == [bound, bound + 1]

    def test_a_failed_build_is_not_kept(self, monkeypatch):
        install, message = FAULTS["repeated"]
        install(monkeypatch)
        with pytest.raises(ScanInvariantError, match=message):
            search._build_context(GAUSSIAN, 1_234)
        assert search._BUILT == {}


@functools.lru_cache(maxsize=None)
def _peeled_classes(ring, bound):
    """(minimal-prime exponent, classify's row) of each class that
    iter_sector yields, from peeling's factorization."""
    classes = []
    for a, b, _ in iter_sector(ring, bound):
        x = QuadInt(ring, a, b)
        fac = peel_factor(x)
        v = dict(fac.factors).get(ring.minimal_prime, 0)
        classes.append((v, classify(x, factorization=fac)))
    return classes


class TestWalk:
    @pytest.mark.parametrize("ring", list(Ring))
    def test_walk_matches_peel_oracle(self, ring):
        # every class up to 2*10^4: each scan's findings are the rows that
        # classify builds from peeling's factorization, and it scans every
        # class of its parity that iter_sector yields
        bound = 20_000
        allowed = NORM_PERFECT_K_RESIDUES[ring]
        classes = _peeled_classes(ring, bound)
        for parity in ("all", "odd", "even"):
            kept = [(v, cls) for v, cls in classes if parity == "all" or (v > 0) == (parity == "even")]
            for prune in (False, True):
                skipped = [prune and v > 0 and (v + 1) % 12 not in allowed for v, _ in kept]
                want = [
                    cls
                    for (_, cls), skip in zip(kept, skipped)
                    if not skip and cls.status is not Status.DEFICIENT
                ]
                report = sector_scan(ring, bound, parity=parity, jobs=1, prune=prune)
                assert report.scanned == len(kept), (parity, prune)
                assert report.pruned == sum(skipped), (parity, prune)
                assert report.findings == tuple(sorted(want)), (parity, prune)

    @pytest.mark.parametrize("ring", list(Ring))
    def test_row_layout_round_trips(self, ring):
        # the integer row keeps every field of classify's row but primitive,
        # in the layout the walk writes
        classes = [cls for _, cls in _peeled_classes(ring, 20_000)]
        for cls in classes:
            assert Classification.from_row(ring, cls.row()) == cls
        want = sorted(cls for cls in classes if cls.status is not Status.DEFICIENT)
        report = sector_scan(ring, 20_000, jobs=1)
        assert report.rows == tuple(cls.row() for cls in want)
        assert report.findings == tuple(want)

    @pytest.mark.parametrize("ring", list(Ring))
    def test_walk_returns_plain_integers(self, ring, monkeypatch):
        # what crosses the pool is cheap to pickle: each chunk's class count
        # and findings hold nothing but ints and bools
        returned = []

        def recording_walk(starts):
            returned.append(_WALK_CHUNK(starts))
            return returned[-1]

        monkeypatch.setattr(search, "_walk_chunk", recording_walk)
        report = sector_scan(ring, 20_000, jobs=1)
        assert sum(len(found) for _, found in returned) == len(report.findings) > 0
        for visited, found in returned:
            assert type(visited) is int and type(found) is list
            for row in found:
                assert type(row) is tuple and len(row) == 7, row
                assert {type(v) for v in row} <= {int, bool}, row

    def test_table_rows(self):
        # every row j of every prime's table entry holds N(pi)**j, the
        # oracle norm of sigma(pi**j), pi**j and _geometric_sum(pi, j)
        bound = 20_000
        for ring in Ring:
            ctx = search._build_context(ring, bound)
            one = QuadInt(ring, 1, 0)
            assert ctx["norms"] == [p.norm() for p in sector_primes(ring, bound)] + [bound + 1]
            for row in ctx["rows"]:
                pi = QuadInt(ring, row[0][2], row[0][3])
                assert len(row) == max(j for j in range(1, 20) if pi.norm() ** j <= bound), pi
                for j, (pn, sn, pa, pb, sa, sb) in enumerate(row, 1):
                    fac = Factorization(one, ((pi, j),))
                    assert pn == pi.norm() ** j, (pi, j)
                    assert sn == divisor_sum_from_factorization(fac).norm(), (pi, j)
                    assert QuadInt(ring, pa, pb) == pi**j, (pi, j)
                    assert QuadInt(ring, sa, sb) == _geometric_sum(pi, j), (pi, j)

    @pytest.mark.parametrize("fault", list(FAULTS))
    @pytest.mark.parametrize("ring", list(Ring))
    def test_a_table_fault_is_a_scan_breach(self, ring, fault, monkeypatch):
        install, message = FAULTS[fault]
        install(monkeypatch)
        for parity, jobs in (("odd", 1), ("even", 2)):
            with pytest.raises(ScanInvariantError, match=message):
                sector_scan(ring, 2_000, parity=parity, jobs=jobs)
            search._BUILT.clear()


_CSV_HEADER = ["element", "norm", "status", "even", "perfect", "sigma_norm", "perfect_unit"]


def _reference_scan(classes, parity, prune):
    """(scanned, pruned, findings JSON, CSV rows) from factor + classify per
    class."""
    scanned = pruned = 0
    rows = []
    for x, fac, cls in classes:
        ring = x.ring
        if (parity == "odd" and cls.even) or (parity == "even" and not cls.even):
            continue
        scanned += 1
        if prune and cls.even:
            v = dict(fac.factors)[ring.minimal_prime]
            if (v + 1) % 12 not in NORM_PERFECT_K_RESIDUES[ring]:
                pruned += 1
                continue
        if cls.status is Status.DEFICIENT:
            continue
        unit = None
        if cls.status is Status.NORM_PERFECT:
            unit = perfect_associate_unit(x, cls.sigma)
        finding = reference_json(cls, unit)
        csv_row = [
            str(x),
            str(cls.norm),
            cls.status.value,
            str(cls.even).lower(),
            str(cls.perfect).lower(),
            str(cls.sigma_norm),
            str(unit) if unit else "",
        ]
        rows.append(((cls.norm, x.a, x.b), finding, csv_row))
    rows.sort(key=lambda row: row[0])
    return scanned, pruned, [row[1] for row in rows], [row[2] for row in rows]


def _table_text(table):
    widths = [max(len(row[i]) for row in table) for i in range(len(table[0]))]
    return "".join(
        "  ".join(cell.ljust(w) for cell, w in zip(row, widths)) + "\n" for row in table
    )


@pytest.mark.parametrize("ring", list(Ring))
def test_scan_matches_peel_reference(ring, capsys):
    bound = 2_500
    classes = []
    for a, b, _n in iter_sector(ring, bound):
        x = QuadInt(ring, a, b)
        fac = peel_factor(x)
        classes.append((x, fac, classify(x, factorization=fac)))
    for parity in ("all", "odd", "even"):
        for prune in (False, True):
            scanned, pruned, findings, csv_rows = _reference_scan(classes, parity, prune)
            want = {
                "ring": ring.value,
                "norm_bound": bound,
                "parity": parity,
                "scanned": scanned,
                "pruned": pruned,
                "findings": findings,
            }
            for jobs in (1, 2):
                mode = (parity, prune, jobs)
                report = sector_scan(ring, bound, parity=parity, jobs=jobs, prune=prune)
                got = report.to_json()
                assert got == {**want, "wall_time": report.wall_time}, mode
                if parity == "all" or (parity == "odd" and prune):
                    continue  # no CLI command scans these
                argv = [f"search-{parity}", "--ring", ring.value, "--max-norm", str(bound)]
                argv += ["--jobs", str(jobs)] + (["--prune"] if prune else [])
                # the report text is json.dumps of the reference, wall_time
                # taken from the output
                assert cli.main(argv) == 0
                out = capsys.readouterr().out
                doc = {
                    **want,
                    "wall_time": json.loads(out)["wall_time"],
                    "config": cli._config_header(),
                }
                assert out == json.dumps(doc, sort_keys=True) + "\n", mode
                assert cli.main(["--pretty", *argv]) == 0
                out = capsys.readouterr().out
                doc["wall_time"] = json.JSONDecoder().raw_decode(out)[0]["wall_time"]
                table = _table_text([_CSV_HEADER, *csv_rows]) if csv_rows else ""
                assert out == json.dumps(doc, sort_keys=True, indent=2) + "\n" + table, mode
                assert cli.main([*argv, "--csv"]) == 0
                text = io.StringIO()
                csv.writer(text).writerows([_CSV_HEADER, *csv_rows])
                assert capsys.readouterr().out == text.getvalue(), mode


_WALK_CHUNK = search._walk_chunk


def _sigterm_probe(starts):
    """Stands in for _walk_chunk: walks the chunk only in a pool worker
    where SIGTERM is unblocked and has the default disposition and SIGINT
    is ignored, and raises anywhere else."""
    blocked = signal.pthread_sigmask(signal.SIG_BLOCK, ()) & {
        signal.SIGTERM,
        signal.SIGINT,
    }
    if not (
        os.getpid() != _TEST_PID
        and signal.getsignal(signal.SIGTERM) == signal.SIG_DFL
        and signal.getsignal(signal.SIGINT) == signal.SIG_IGN
        and not blocked
    ):
        raise RuntimeError("a scan chunk ran outside a clean pool worker")
    return _WALK_CHUNK(starts)


_TEST_PID = os.getpid()


def test_pool_workers_do_not_inherit_the_scan_sigterm_handler(monkeypatch):
    # cli.main's SIGTERM handler is in place whenever a pool forks; a worker
    # that kept a Python-level handler would not die of SIGTERM as it should
    # (a flag-only one would ignore it), and one that kept SIGINT's would
    # print a traceback on every Ctrl-C
    serial = sector_scan(EISENSTEIN, 20_000, jobs=1)
    monkeypatch.setattr(search, "_walk_chunk", _sigterm_probe)
    previous = signal.signal(signal.SIGTERM, lambda signum, frame: None)
    try:
        report = sector_scan(EISENSTEIN, 20_000, jobs=2)
    finally:
        signal.signal(signal.SIGTERM, previous)
    assert (report.scanned, report.findings) == (serial.scanned, serial.findings)


class TestNormPerfectPrimes:
    def test_gaussian_is_exactly_2_plus_i(self):
        assert find_normperfect_primes(GAUSSIAN, 50_000) == [g(2, 1)]

    def test_eisenstein_empty(self):
        assert find_normperfect_primes(EISENSTEIN, 50_000) == []

    def test_small_gaussian_bound(self):
        assert find_normperfect_primes(GAUSSIAN, 4) == []

    def test_prime_enumeration_matches_sector_primes(self):
        # the oracle walks every class representative and asks is_ring_prime,
        # with no sieve and no context tables
        for ring in Ring:
            for bound in (*range(1, 11), 2_000):
                classes = (QuadInt(ring, a, b) for a, b, _ in iter_sector(ring, bound))
                want = sorted(
                    filter(is_ring_prime, classes), key=lambda x: (x.norm(), x.a, x.b)
                )
                assert sector_primes(ring, bound) == want, (ring, bound)
                perfect = [
                    psi
                    for psi in want
                    if (1 + psi).norm() == ring.residue_char * psi.norm()
                ]
                assert find_normperfect_primes(ring, bound) == perfect, (ring, bound)


def _flag_tenth_rational(x, fac, n, sigma, spf):
    """Fails on the rational points a + 0*theta with 10 | a: 14 failures
    in several subtrees of the walk."""
    return [x] if x.b == 0 and x.a % 10 == 0 else []


def _flag_rational(x, fac, n, sigma, spf):
    """Fails on every rational point, more often than the sweep keeps going."""
    return [x] if x.b == 0 else []


def _sector_order(xs):
    return sorted(xs, key=lambda x: (x.norm(), x.a, x.b))


class TestFactorSweep:
    @pytest.mark.parametrize("ring", list(Ring))
    def test_serial_and_pooled_agree_in_sector_order(self, ring):
        bound = 20_000
        classes = count_sector_classes(ring, bound)
        want = [QuadInt(ring, a, 0) for a in range(10, isqrt(bound) + 1, 10)]
        for jobs in (1, 2):
            assert factor_sweep(ring, bound, _flag_tenth_rational, jobs) == (classes, want)
            assert search.oracle_equivalence_sweep(ring, bound, jobs) == (classes, [])
        # taken in input order, the failures stop after the class that brings
        # them past 20, and come back in (norm, a, b) order
        checked, held = factor_sweep(ring, bound, _flag_rational, 1)
        assert checked < classes
        assert len(held) == search._MAX_FAILURES + 1
        assert held == _sector_order(held) and all(x.b == 0 for x in held)
        assert factor_sweep(ring, bound, _flag_rational, 2) == (checked, held)
        # the class that passes the cap keeps all of its failures
        twice = factor_sweep(ring, bound, lambda x, *rest: 2 * _flag_rational(x, *rest), 2)[1]
        assert twice[::2] == twice[1::2] and len(twice) == search._MAX_FAILURES + 2

    @pytest.mark.parametrize("ring", list(Ring))
    def test_the_walk_hands_over_each_class_with_its_factorization(self, ring):
        seen = []

        def record(x, fac, n, sigma, spf):
            seen.append((x, fac, n, sigma))
            return []

        bound = 3_000
        assert factor_sweep(ring, bound, record, 1) == (count_sector_classes(ring, bound), [])
        assert sorted((n, x.a, x.b) for x, _, n, _ in seen) == sorted(
            (n, a, b) for a, b, n in iter_sector(ring, bound)
        )
        for x, fac, n, sigma in seen:
            assert fac == factor(x), x
            s = divisor_sum_from_factorization(fac)
            assert sigma == (s.a, s.b), x

    def test_pooled_recomposition_sweep_reports_a_wrong_factorization(self, monkeypatch):
        bound = 20_000
        monkeypatch.setitem(DEFAULTS, "recomposition_norm_bound", bound)
        assert _check_recomposition_sweep(2) == []
        bad = QuadInt(EISENSTEIN, 120, 7)
        assert bad.norm() <= bound and bad.in_sector()
        real = verify.factor

        def wrong_at_bad(x, **kwargs):
            fac = real(x, **kwargs)
            return Factorization(-fac.unit, fac.factors) if x == bad else fac

        monkeypatch.setattr(verify, "factor", wrong_at_bad)
        failures = _check_recomposition_sweep(2)
        assert [(f["check"], f["inputs"]) for f in failures] == [("recomposition", repr(bad))]

    def test_recomposition_sweep_reports_swapped_split_exponents(self, monkeypatch):
        # pi and its conjugate have one norm, so the norm product and the
        # parity still hold: only the walk's own primes show the swap
        bound = 2_000
        monkeypatch.setitem(DEFAULTS, "recomposition_norm_bound", bound)
        swapped_split_exponents(monkeypatch)
        failures = _check_recomposition_sweep(1)
        assert {f["check"] for f in failures} == {"recomposition"}
        assert len(failures) > search._MAX_FAILURES
        assert _check_recomposition_sweep(2) == failures

    @pytest.mark.parametrize("ring", list(Ring))
    def test_oracle_sweep_reports_a_conjugate_sigma_row(self, ring, monkeypatch):
        bound = 2_000
        conjugate_sigma(monkeypatch)
        pi = next(p for p in sector_primes(ring, bound)[1:] if p.b)
        sector_scan(ring, bound, jobs=1)  # every norm the scan checks still fits
        checked, mismatches = search.oracle_equivalence_sweep(ring, bound, 1)
        assert len(mismatches) > search._MAX_FAILURES
        assert mismatches == _sector_order(mismatches)
        # exactly the classes with pi**1 take the faulted row
        assert all(dict(factor(x).factors).get(pi) == 1 for x in mismatches)
        assert search.oracle_equivalence_sweep(ring, bound, 2) == (checked, mismatches)


@pytest.mark.parametrize("jobs", [0, -3])
def test_jobs_below_one_raise(jobs):
    # the pool runner refuses what the CLI's --jobs refuses
    with pytest.raises(ValueError, match="jobs must be at least 1"):
        sector_scan(GAUSSIAN, 300, jobs=jobs)
    with pytest.raises(ValueError, match="jobs must be at least 1"):
        mersenne_scan(EISENSTEIN, 20, jobs=jobs)
    with pytest.raises(ValueError, match="jobs must be at least 1"):
        factor_sweep(GAUSSIAN, 300, _flag_rational, jobs)


class TestOddFormValidators:
    def test_square_of_residue1_prime(self):
        report = validate_odd_form(e(3, 1) ** 2)
        assert report.conforms
        assert report.special_prime == e(3, 1)
        assert report.special_exponent == 2
        assert report.special_residue == 1
        assert report.p1 == () and report.p2 == ()

    def test_two_times_residue1_prime(self):
        report = validate_odd_form(e(2) * e(3, 1))
        assert report.conforms
        assert report.special_prime == e(2)
        assert report.p1 == ((e(3, 1), 1, 1),)

    def test_two_candidates_fail(self):
        report = validate_odd_form(e(2) * e(5))
        assert not report.conforms
        assert "multiple" in report.violated_condition

    def test_no_candidate_fails(self):
        report = validate_odd_form(e(3, 1))  # exponent 1 not 2 mod 3
        assert not report.conforms
        assert "no prime power" in report.violated_condition

    def test_even_rejected(self):
        with pytest.raises(ValueError):
            validate_odd_form(e(3))
        with pytest.raises(ValueError):
            validate_ward_form(g(1, 1))
        with pytest.raises(ValueError):
            validate_parker_form(e(3))

    def test_wrong_ring_rejected(self):
        with pytest.raises(ValueError):
            validate_odd_form(g(3, 2))
        with pytest.raises(ValueError):
            validate_ward_form(e(2))

    def test_ward_examples(self):
        assert validate_ward_form(g(2, 1))
        assert validate_ward_form(g(2, 1) ** 3 * g(3, 2) ** 2)
        assert not validate_ward_form(g(2, 1) * g(3, 2))

    def test_parker_examples(self):
        psi, phi = e(3, 1), e(4, 1)
        assert validate_parker_form(psi**2)
        assert validate_parker_form(psi**2 * phi**3)
        assert not validate_parker_form(psi**2 * phi)

    def test_parker_implies_odd_form_in_p1_subcase(self):
        # The conjectured form is the residue-1-special subcase of the odd
        # form, so instances are generated there: special prime of residue 1
        # with exponent 2 mod 3, cube part keeping residue-2 exponents even.
        rng = random.Random(71)
        pool = [p for p in sector_primes(EISENSTEIN, 600) if not p.is_even()]
        p1 = [p for p in pool if p.residue_mod_minimal() == 1]
        p2 = [p for p in pool if p.residue_mod_minimal() == 2]
        for _ in range(300):
            x = rng.choice(p1) ** rng.choice([2, 5])
            for _ in range(rng.randrange(2)):
                x = x * rng.choice(p1) ** rng.choice([3, 6])
            for _ in range(rng.randrange(2)):
                x = x * rng.choice(p2) ** 6
            if validate_parker_form(x):
                assert validate_odd_form(x).conforms

    def test_parker_does_not_imply_odd_form_outside_p1(self):
        # 5 is inert with residue 2; exponent 2 fits the conjectured shape
        # but a residue-2 special prime needs an odd exponent
        assert validate_parker_form(e(25))
        assert not validate_odd_form(e(25)).conforms

    def test_corollary_residue_class(self):
        # conforming products have residue 1 exactly when the special prime
        # lies in the residue-1 class
        rng = random.Random(73)
        pool = [p for p in sector_primes(EISENSTEIN, 1_500) if not p.is_even()]
        p1 = [p for p in pool if p.residue_mod_minimal() == 1]
        p2 = [p for p in pool if p.residue_mod_minimal() == 2]
        checked = 0
        for _ in range(2_000):
            if rng.random() < 0.5:
                x = rng.choice(p1) ** rng.choice([2, 5])
                want = 1
            else:
                x = rng.choice(p2) ** rng.choice([1, 3])
                want = 2
            for _ in range(rng.randrange(3)):
                y = rng.choice(p1) ** rng.choice([1, 3]) if rng.random() < 0.5 else rng.choice(p2) ** 2
                if x.norm() * y.norm() > 10**10:
                    continue
                x = x * y
            report = validate_odd_form(x)
            if not report.conforms:
                continue  # random collisions can merge exponents
            checked += 1
            assert x.residue_mod_minimal() == want
        assert checked >= 1_000


class TestEquation:
    def test_solution_set(self):
        assert no_normperfect_prime_equation(1_000) == [(0, -1), (1, 1)]

    def test_bound_one(self):
        assert no_normperfect_prime_equation(1) == [(0, -1), (1, 1)]

    def test_solutions_satisfy_equation(self):
        for a, b in no_normperfect_prime_equation(100):
            assert 3 * (a * a - a * b + b * b) == (a + 1) ** 2 - (a + 1) * b + b * b

    def test_brute_force_cross_check(self):
        brute = sorted(
            (a, b)
            for a in range(-60, 61)
            for b in range(-60, 61)
            if 3 * (a * a - a * b + b * b) == (a + 1) ** 2 - (a + 1) * b + b * b
        )
        assert no_normperfect_prime_equation(60) == brute

    def test_bad_bound(self):
        with pytest.raises(ValueError):
            no_normperfect_prime_equation(0)


class TestRationalPerfectRemark:
    @pytest.mark.parametrize("k", [3, 5, 7, 13])
    def test_perfect_numbers_not_norm_perfect(self, k):
        assert check_rational_perfect_remark(k)

    def test_split_structure(self):
        # for k = 5, 2^5 - 1 = 31 must split with equal unit exponents
        fac = factor(e(2**4 * 31))
        above = [(p, k) for p, k in fac.factors if p.norm() == 31]
        assert len(above) == 2
        assert above[0][1] == above[1][1] == 1
        assert above[0][0].conjugate().sector_canonical()[1] == above[1][0]

    def test_small_k_rejected(self):
        with pytest.raises(ValueError):
            check_rational_perfect_remark(2)


# sha256 of each scan's output: the JSON with its wall_time item cut out,
# and the --csv text.  Those at norm 2*10^4 were recorded before the walk
# replaced per-class factoring, those at 5*10^4 (the benchmark's odd scans)
# before the findings became integer rows.  Any change to a scan's output
# fails here.
_GOLDEN_SCAN_DIGESTS = {
    ("gaussian", "search-odd", 20_000): (
        "2e985ebea1708687831a267ce2af20d799a18ba5003fede282d2aaf0e3631c9e",
        "f6c3e743fd27ea6dc86664f981285d2a2af36b9a0456a425bd601395aaef062a",
    ),
    ("gaussian", "search-even", 20_000): (
        "c5b394b76f6ffebef6f00815584a61794ceaee26ab52325cb743efd217740c54",
        "0f1bddae963805ac6df4c77de32c776ce16585360958e2277fb1f232a1fcb8f3",
    ),
    ("gaussian", "search-even --prune", 20_000): (
        "4814ff2a9c5bc3a4f1d0e7cc50d40cea064e8773cff9d1114f2b8e9d5f77dcd5",
        "0a631eb0922362c8eb652bd9064305cb6b42b6f089a96bd724c03a3b0331cfc5",
    ),
    ("eisenstein", "search-odd", 20_000): (
        "cf875039c4d244d6a749ee2346b210c1e33a956103c11f4ae2dcd2e119337a2d",
        "f3aa74993ee1c310f2310c90fd18110cfac95c8a5a56aaa836c4f504ab0e659e",
    ),
    ("eisenstein", "search-even", 20_000): (
        "d7c4ce5b154ef0c288b0b8ad34a1671cdc59232ad349ca9d49559cdf63da8c73",
        "35d1b113eebb20878c54e0e94a078f8cbfe60e609135e07ac78bc479161f58bd",
    ),
    ("eisenstein", "search-even --prune", 20_000): (
        "ef83ecefb11b7feafe9f392afea1eb90ead792da219375158d19453c2d2537f8",
        "41d8103e1d568384151f7f7565ae9e1f617ab71ffffcfef066840279d40f3ed0",
    ),
    ("gaussian", "search-odd", 50_000): (
        "797a09f2e7b219814ff9bcfe11e870227ef96cdaf562a2933c51f327de7750b7",
        "d9abbe52d8f9f23d536c08e0c42479cde6ead873727bc81a28e1a0f2843131b8",
    ),
    ("eisenstein", "search-odd", 50_000): (
        "50ea0df73154ad8d3b5a660503e0818c43c588cb12bf594f6a8c50d94302ff8f",
        "cbc001fca08e0a31be0c63eeb7ea57ca2b3a2af9ecf8d72fef995eb440e53d62",
    ),
}


@pytest.mark.parametrize(
    "ring, command, bound",
    [
        pytest.param(*key, id="-".join(map(str, key if key[2] != 20_000 else key[:2])))
        for key in _GOLDEN_SCAN_DIGESTS
    ],
)
def test_scan_outputs_match_golden_digests(ring, command, bound, capsys):
    want = _GOLDEN_SCAN_DIGESTS[ring, command, bound]
    for jobs in ("1", "2"):
        argv = [*command.split(), "--ring", ring, "--max-norm", str(bound), "--jobs", jobs]
        texts = []
        for extra in ([], ["--csv"]):
            assert cli.main(argv + extra) == 0
            texts.append(capsys.readouterr().out)
        texts[0] = re.sub(r', "wall_time": [0-9.e-]+', "", texts[0])
        got = tuple(hashlib.sha256(text.encode()).hexdigest() for text in texts)
        assert got == want, jobs
