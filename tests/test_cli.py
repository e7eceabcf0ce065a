import json

import pytest

from cycloperfect import search
from cycloperfect.cli import (
    EXIT_DOMAIN_ERROR,
    EXIT_OK,
    EXIT_PARSE_ERROR,
    EXIT_SCAN_BREACH,
    main,
)
from cycloperfect.search import SearchReport
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
