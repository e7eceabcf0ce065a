import dataclasses
import hashlib
import json
import os
import random
import subprocess
import sys

import pytest

from cycloperfect import cli
from cycloperfect.cli import (
    EXIT_DOMAIN_ERROR,
    EXIT_OK,
    EXIT_PARSE_ERROR,
    EXIT_SCAN_BREACH,
    main,
)
from cycloperfect.divisors import classify
from cycloperfect.rings import GAUSSIAN, QuadInt
from cycloperfect.search import SearchReport
from classification_json import reference_json
from table_faults import FAULTS


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, _err = run(capsys, *argv)
    assert code == EXIT_OK, out
    return json.loads(out)


class TestElementCommands:
    def test_factor_eisenstein_seven(self, capsys):
        obj = run_json(capsys, "factor", "--ring", "eisenstein", "7")
        assert obj["unit"] == {"ring": "eisenstein", "a": "0", "b": "-1"}
        assert obj["factors"] == [
            {"prime": {"ring": "eisenstein", "a": "3", "b": "1"}, "exp": 1},
            {"prime": {"ring": "eisenstein", "a": "3", "b": "2"}, "exp": 1},
        ]

    def test_factor_gaussian_two(self, capsys):
        obj = run_json(capsys, "factor", "--ring", "gaussian", "2")
        assert obj["factors"] == [
            {"prime": {"ring": "gaussian", "a": "1", "b": "1"}, "exp": 2}
        ]
        assert obj["unit"]["b"] == "-1"

    def test_factor_unit(self, capsys):
        obj = run_json(capsys, "factor", "--ring", "eisenstein", "1")
        assert obj["factors"] == []
        assert obj["unit"] == {"ring": "eisenstein", "a": "1", "b": "0"}

    def test_classify_norm_perfect(self, capsys):
        obj = run_json(capsys, "classify", "--ring", "gaussian", "2+1i")
        assert obj["status"] == "norm_perfect"
        assert obj["sigma_norm"] == "10"

    def test_classify_deficient(self, capsys):
        obj = run_json(capsys, "classify", "--ring", "eisenstein", "2+1w")
        assert obj["status"] == "deficient"

    def test_classify_unit(self, capsys):
        obj = run_json(capsys, "classify", "--ring", "gaussian", "0+1i")
        assert obj["status"] == "deficient"

    def test_classify_primitive_flag(self, capsys):
        obj = run_json(capsys, "classify", "--ring", "gaussian", "2+1i", "--primitive")
        assert obj["primitive"] is True
        obj = run_json(capsys, "classify", "--ring", "gaussian", "2+1i")
        assert obj["primitive"] is None
        obj = run_json(capsys, "classify", "--ring", "eisenstein", "3+3w", "--primitive")
        assert (obj["status"], obj["primitive"]) == ("abundant", None)

    @pytest.mark.parametrize("primitive", [True, False, None])
    @pytest.mark.parametrize("pretty", [False, True])
    def test_classify_output_is_the_reference_json(self, capsys, monkeypatch, primitive, pretty):
        # no norm-perfect class up to norm 2*10^5 is imprimitive, so the
        # false row is the 2+i row with its primitive field replaced
        x = QuadInt(GAUSSIAN, 2, 1)
        cls = dataclasses.replace(classify(x, check_primitive=True), primitive=primitive)
        monkeypatch.setattr(cli, "classify", lambda *args, **kwargs: cls)
        argv = ["classify", "--ring", "gaussian", "2+1i"]
        code, out, _err = run(capsys, *(["--pretty"] if pretty else []), *argv)
        assert code == EXIT_OK
        want = reference_json(cls)
        assert want["primitive"] is primitive
        assert out == json.dumps(want, sort_keys=True, indent=2 if pretty else None) + "\n"

    def test_sigma(self, capsys):
        obj = run_json(capsys, "sigma", "--ring", "eisenstein", "3+3w")
        assert obj["sigma"] == {"ring": "eisenstein", "a": "6", "b": "4"}

    @pytest.mark.parametrize("command", ["factor", "sigma", "classify"])
    def test_an_element_may_start_with_a_minus(self, capsys, command):
        for ring, text in (("gaussian", "-3+4i"), ("eisenstein", "-3-4w"), ("gaussian", "-3")):
            obj = run_json(capsys, command, "--ring", ring, text)
            assert obj == run_json(capsys, command, "--ring", ring, "--", text), (ring, text)

    def test_parse_error_exit(self, capsys):
        code, _out, err = run(capsys, "classify", "--ring", "gaussian", "nope")
        assert code == EXIT_PARSE_ERROR
        assert "parse error" in err

    def test_zero_element_exit(self, capsys):
        code, _out, err = run(capsys, "factor", "--ring", "gaussian", "0")
        assert code == EXIT_DOMAIN_ERROR

    def test_wrong_symbol_is_parse_error(self, capsys):
        code, _out, _err = run(capsys, "classify", "--ring", "gaussian", "2+1w")
        assert code == EXIT_PARSE_ERROR

    def test_usage_error_exit(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["classify", "--ring", "martian", "1"])
        assert exc.value.code == EXIT_PARSE_ERROR


class TestMersenneCommand:
    def test_scan_output(self, capsys):
        obj = run_json(capsys, "mersenne", "--ring", "eisenstein", "--max-k", "12")
        ks = [rec["k"] for rec in obj["records"]]
        assert ks == [2, 3, 5, 7, 11]
        flagged = {rec["k"] for rec in obj["records"] if rec["is_prime"]}
        assert 11 in flagged and 4 not in ks
        assert obj["config"]["mr_rounds_large"] == 40

    def test_residue_filter(self, capsys):
        obj = run_json(
            capsys,
            "mersenne", "--ring", "gaussian", "--max-k", "12",
            "--residue-filter", "1,7",
        )
        assert [rec["k"] for rec in obj["records"]] == [7]

    def test_csv(self, capsys):
        code, out, _ = run(
            capsys, "mersenne", "--ring", "eisenstein", "--max-k", "12", "--csv"
        )
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0].startswith("k,element,norm")
        assert any(line.startswith("11,") for line in lines)


class TestSearchCommands:
    @pytest.mark.parametrize("command", ["mersenne", "search-even", "search-odd"])
    def test_json_is_not_an_option(self, capsys, command):
        # JSON is the only output besides --csv, so there is no flag for it
        bound = "--max-k" if command == "mersenne" else "--max-norm"
        with pytest.raises(SystemExit) as exc:
            main([command, "--ring", "gaussian", bound, "10", "--json"])
        assert exc.value.code == EXIT_PARSE_ERROR
        assert "unrecognized arguments: --json" in capsys.readouterr().err

    def test_search_odd_gaussian(self, capsys):
        obj = run_json(
            capsys, "search-odd", "--ring", "gaussian", "--max-norm", "30", "--jobs", "1"
        )
        elements = [f["element"] for f in obj["findings"]]
        assert {"ring": "gaussian", "a": "2", "b": "1"} in elements

    def test_search_even_csv(self, capsys):
        code, out, _ = run(
            capsys,
            "search-even", "--ring", "eisenstein", "--max-norm", "300",
            "--jobs", "1", "--csv",
        )
        assert code == EXIT_OK
        assert out.splitlines()[0].startswith("element,")

    def test_find_normperfect_primes(self, capsys):
        obj = run_json(
            capsys,
            "find-normperfect-primes", "--ring", "gaussian",
            "--max-norm", "1000",
        )
        assert obj["count"] == 1
        assert obj["primes"] == [{"ring": "gaussian", "a": "2", "b": "1"}]

    @pytest.mark.parametrize("command", ["search-odd", "search-even", "find-normperfect-primes"])
    def test_negative_bound_is_a_domain_error(self, capsys, command):
        code, out, err = run(capsys, command, "--ring", "gaussian", "--max-norm=-5")
        assert code == EXIT_DOMAIN_ERROR
        assert (out, err) == ("", "domain error: norm bound -5 is negative\n")

    def test_progress_lines(self, capsys):
        code, _out, err = run(
            capsys,
            "search-odd", "--ring", "gaussian", "--max-norm", "200",
            "--jobs", "1", "--progress",
        )
        assert code == EXIT_OK
        assert "scanned" in err

    @pytest.mark.parametrize("fault", list(FAULTS))
    def test_a_table_fault_is_a_scan_breach(self, capsys, monkeypatch, fault):
        install, message = FAULTS[fault]
        install(monkeypatch)
        code, out, err = run(
            capsys,
            "search-odd", "--ring", "gaussian", "--max-norm", "200", "--jobs", "1",
        )
        assert (code, out) == (EXIT_SCAN_BREACH, "")
        assert err.startswith("scan invariant breach: ") and message in err
        assert err.count("\n") == 1

    def test_plain_json_builds_no_table(self, capsys, monkeypatch):
        def no_table(report):
            raise AssertionError("table built for plain JSON output")

        monkeypatch.setattr(SearchReport, "csv_rows", no_table)
        obj = run_json(
            capsys, "search-odd", "--ring", "gaussian", "--max-norm", "30", "--jobs", "1"
        )
        assert obj["findings"]

    def test_pretty_search_prints_table(self, capsys):
        code, out, _err = run(
            capsys, "--pretty", "search-odd", "--ring", "gaussian", "--max-norm", "30",
            "--jobs", "1",
        )
        assert code == EXIT_OK
        assert any(line.startswith("element ") for line in out.splitlines())

    def test_pretty_output(self, capsys):
        code, out, _err = run(
            capsys, "--pretty", "classify", "--ring", "gaussian", "2+1i"
        )
        assert code == EXIT_OK
        assert json.loads(out)["status"] == "norm_perfect"
        assert "\n  " in out  # indented rendering


class TestCheckRemark:
    def test_values(self, capsys):
        obj = run_json(capsys, "check-remark", "3", "5", "13")
        assert obj["all_pass"] is True
        assert [c["k"] for c in obj["checks"]] == [3, 5, 13]

    def test_domain_error(self, capsys):
        code, _out, _err = run(capsys, "check-remark", "2")
        assert code == EXIT_DOMAIN_ERROR


class TestCycloCommand:
    def test_norm(self, capsys):
        obj = run_json(capsys, "cyclo", "--p", "7", "norm", "[1,-1]")
        assert obj["norm"] == "7"

    def test_even(self, capsys):
        obj = run_json(capsys, "cyclo", "--p", "5", "even", "[1,-1]")
        assert obj["even"] is True

    def test_discriminant(self, capsys):
        obj = run_json(capsys, "cyclo", "--p", "7", "discriminant")
        assert obj["discriminant"] == "-16807"
        obj = run_json(capsys, "cyclo", "--p", "4", "discriminant")
        assert obj["discriminant"] == "-4"

    def test_ramify(self, capsys):
        obj = run_json(capsys, "cyclo", "--p", "7", "ramify-check")
        assert obj["ramifies"] is True

    def test_residue_degree(self, capsys):
        obj = run_json(capsys, "cyclo", "--p", "7", "residue-degree", "2")
        assert obj["f"] == 3

    def test_mersenne_norm(self, capsys):
        obj = run_json(capsys, "cyclo", "--p", "3", "mersenne-norm", "11")
        assert obj["norm"] == "176419"

    def test_validate_odd_form(self, capsys):
        form = '{"p": 3, "entries": [{"j": 1, "e": 2, "special": true}]}'
        obj = run_json(capsys, "cyclo", "--p", "3", "validate-odd-form", form)
        assert obj["conforms"] is True

    def test_validate_odd_form_bad_json(self, capsys):
        code, _out, _err = run(capsys, "cyclo", "--p", "3", "validate-odd-form", "{")
        assert code == EXIT_PARSE_ERROR

    @pytest.mark.parametrize(
        "entry",
        [
            '{"j": 1, "e": 4, "special": "false"}',
            '{"j": 1, "e": 4, "special": 0}',
            '{"j": 1.7, "e": 4, "special": true}',
            '{"j": "1", "e": 4, "special": true}',
            '{"j": true, "e": 4, "special": true}',
            '{"j": 1, "e": 4.0, "special": true}',
            '{"j": 1, "e": false, "special": true}',
        ],
    )
    def test_validate_odd_form_wrong_json_types(self, capsys, entry):
        # the well-typed entry conforms, and int() and bool() read most of
        # these as that entry
        form = '{"p": 5, "entries": [%s]}'
        good = form % '{"j": 1, "e": 4, "special": true}'
        assert run_json(capsys, "cyclo", "--p", "5", "validate-odd-form", good)["conforms"]
        code, out, err = run(capsys, "cyclo", "--p", "5", "validate-odd-form", form % entry)
        assert (code, out) == (EXIT_PARSE_ERROR, "")
        assert err.startswith("parse error:")

    @pytest.mark.parametrize("p", ["5.0", "true", '"5"'])
    def test_validate_odd_form_p_must_be_an_integer(self, capsys, p):
        form = '{"p": %s, "entries": [{"j": 1, "e": 4, "special": true}]}' % p
        code, _out, _err = run(capsys, "cyclo", "--p", "5", "validate-odd-form", form)
        assert code == EXIT_PARSE_ERROR

    @pytest.mark.parametrize("command", ["norm", "even"])
    @pytest.mark.parametrize("coeffs", ["[true, 2]", "[1, false]", "[1.0, 2]"])
    def test_coefficients_must_be_integers(self, capsys, command, coeffs):
        code, out, _err = run(capsys, "cyclo", "--p", "5", command, coeffs)
        assert (code, out) == (EXIT_PARSE_ERROR, "")

    def test_unsupported_p(self, capsys):
        code, _out, _err = run(capsys, "cyclo", "--p", "23", "ramify-check")
        assert code == EXIT_DOMAIN_ERROR


class TestVerifyCommand:
    def test_cyclo_suite_passes_and_is_deterministic(self, capsys):
        code1, out1, err1 = run(capsys, "verify", "cyclo", "--jobs", "1")
        assert code1 == EXIT_OK
        obj1 = json.loads(out1)
        assert obj1["passed"] is True
        assert "ok  " in err1
        code2, out2, _ = run(capsys, "verify", "cyclo", "--jobs", "1")
        obj2 = json.loads(out2)
        obj1.pop("wall_time"), obj2.pop("wall_time")
        assert json.dumps(obj1, sort_keys=True) == json.dumps(obj2, sort_keys=True)

    def test_unknown_suite_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "everything"])
        assert exc.value.code == EXIT_PARSE_ERROR
        err = capsys.readouterr().err
        assert "unknown suite 'everything'" in err
        for suite in ("core", "lemmas", "mersenne", "search", "cyclo", "all"):
            assert suite in err


def test_import_leaves_out_verify_cyclotomic_and_pool_modules():
    # only verify and cyclo import these; every other command starts without them
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    code = (
        "import sys, cycloperfect.cli; "
        "print(sorted(m for m in ('cycloperfect.verify', 'cycloperfect.cyclotomic', "
        "'concurrent.futures', 'multiprocessing') if m in sys.modules))"
    )
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout == "[]\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["mersenne", "--ring", "eisenstein", "--max-k", "12"],
        ["search-odd", "--ring", "gaussian", "--max-norm", "30"],
        ["search-even", "--ring", "eisenstein", "--max-norm", "30"],
        ["verify", "cyclo"],
    ],
    ids=["mersenne", "search-odd", "search-even", "verify"],
)
@pytest.mark.parametrize("jobs", ["0", "-3", "two"])
def test_jobs_must_be_a_positive_integer(capsys, argv, jobs):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--jobs", jobs])
    assert exc.value.code == EXIT_PARSE_ERROR
    out, err = capsys.readouterr()
    assert out == ""
    assert err.endswith(f"error: argument --jobs: jobs must be a positive integer, not '{jobs}'\n")


def _digest_elements(ring: str) -> list[str]:
    """100 seeded nonzero elements of the ring, negative coordinates included,
    then the norm-perfect element of the k = 7 (Z[i]) resp. k = 11 (Z[w])
    construction."""
    from cycloperfect.mersenne import candidate_factorization
    from cycloperfect.rings import Ring

    rng = random.Random(f"element digests {ring}")
    xs = []
    while len(xs) < 100:
        x = QuadInt(Ring(ring), rng.randint(-10**6, 10**6), rng.randint(-10**6, 10**6))
        if x:
            xs.append(x)
    k = 7 if ring == "gaussian" else 11
    xs.append(candidate_factorization(Ring(ring), k, "conjugated")[0])
    return [str(x) for x in xs]


# sha256 of the concatenated output of each element command over the
# elements of _digest_elements, recorded before classify and the scans
# shared one classification row.  Any change to their output fails here.
_GOLDEN_ELEMENT_DIGESTS = {
    ("gaussian", "factor"): "db0d44e7066609adf63fbff36dd74402e8de0b6b67648d3c2c9381930c3dfb22",
    ("gaussian", "sigma"): "c2954e22234e491f93e207239bb5bc77d489ecb54692a7fa3407da2f4fd4edab",
    ("gaussian", "classify"): "1206ac71163a422d1a18f04632983b8a6395cf58641aa111d841ec783cf500fd",
    ("gaussian", "classify --primitive"): "08c15f3f6fe1b2f08dd5baeb9195a2a6a62952d57d6ee937f308680ebd02f691",
    ("eisenstein", "factor"): "0ffeda82eabe30001c0d5aff6321bb93fd515117e8f0f6fc489d69a6e3b53cb2",
    ("eisenstein", "sigma"): "2cae306ed5c1f5acdd669d277102cdeb118fd2baa7795721dee5e1757b371d77",
    ("eisenstein", "classify"): "8f0e6751ae05adbb716efa00b9809b945dcc9337cede990d1a1b330b7d0d3a26",
    ("eisenstein", "classify --primitive"): "d47e428af4b2a7124eea6404f518fafcf91e0d268dbeacc629ffa791136251c8",
}


@pytest.mark.parametrize("ring, command", list(_GOLDEN_ELEMENT_DIGESTS))
def test_element_outputs_match_golden_digests(ring, command, capsys):
    name, *flags = command.split()
    digest = hashlib.sha256()
    for text in _digest_elements(ring):
        assert main([name, "--ring", ring, *flags, text]) == EXIT_OK, text
        digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == _GOLDEN_ELEMENT_DIGESTS[ring, command]
