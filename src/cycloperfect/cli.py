"""Command-line front end.

Every subcommand prints one JSON document on stdout (sorted keys, so equal
runs produce byte-identical output apart from wall-time fields); --pretty
switches to an indented rendering plus aligned tables for list-shaped
results.  Exit codes: 0 success, 1 verification failure, 2 scan invariant
breach, 64 parse/usage error, 65 domain error, 130 interrupted (SIGINT or
SIGTERM).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import signal
import sys

from .cyclotomic import (
    AbstractOddFactorization,
    CycElement,
    SUPPORTED_PRIMES,
    cyc_is_even,
    cyc_mersenne_norm,
    cyc_norm,
    discriminant,
    ramification_check,
    residue_degree,
    splitting_pattern_check,
    validate_general_odd_form,
)
from .divisors import classify, json_rows, sigma
from .factorization import factor
from .mersenne import scan
from .rational import (
    FACTOR_SEED,
    MR_ROUNDS_LARGE,
    PRIMALITY_SEED,
    TRIAL_DIVISION_BOUND,
)
from .rings import _ELEMENT_RE, ElementParseError, QuadInt, Ring, parse_element
from .search import (
    ScanInvariantError,
    check_rational_perfect_remark,
    find_normperfect_primes,
    sector_scan,
)
from .verify import DEFAULTS, SUITE_NAMES, run_suite

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_SCAN_BREACH = 2
EXIT_PARSE_ERROR = 64
EXIT_DOMAIN_ERROR = 65
EXIT_INTERRUPTED = 130


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # what parses as an element, -3+4i included, is an argument and not an option
        self._negative_number_matcher = _ELEMENT_RE

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_PARSE_ERROR)


def _config_header() -> dict:
    """Defaults every report carries, so probabilistic claims are auditable."""
    return {
        "trial_division_bound": TRIAL_DIVISION_BOUND,
        "mr_rounds_large": MR_ROUNDS_LARGE,
        "primality_seed": PRIMALITY_SEED,
        "factor_seed": FACTOR_SEED,
        "verify_seed": DEFAULTS["seed"],
    }


def _emit(obj: dict, pretty: bool, table: list[list[str]] | None = None) -> None:
    if pretty:
        print(json.dumps(obj, sort_keys=True, indent=2))
        if table:
            widths = [max(len(row[i]) for row in table) for i in range(len(table[0]))]
            for row in table:
                print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    else:
        print(json.dumps(obj, sort_keys=True))


def _ring(value: str) -> Ring:
    try:
        return Ring(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"ring must be 'gaussian' or 'eisenstein', not {value!r}"
        )


def _jobs(value: str) -> int:
    try:
        jobs = int(value)
    except ValueError:
        jobs = 0
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"jobs must be a positive integer, not {value!r}")
    return jobs


def _residue_set(value: str) -> set[int]:
    try:
        return {int(part) for part in value.split(",") if part.strip() != ""}
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad residue list {value!r}")


def _parse_nonzero(text: str, ring: Ring) -> QuadInt:
    x = parse_element(text, ring)
    if not x:
        raise ZeroDivisionError("the zero element is outside the domain here")
    return x


def _progress_printer(enabled: bool):
    if not enabled:
        return None

    def cb(done: int) -> None:
        # one write per line: print() writes the newline separately, and an
        # interrupt between the two would glue the next line onto this one
        sys.stderr.write(f"scanned {done}\n")

    return cb


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cycloperfect")
    parser.add_argument("--pretty", action="store_true", help="indented output")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_element_cmd(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("--ring", type=_ring, required=True)
        p.add_argument("element", help="element text, e.g. 7-8i, 2+1w, -3")
        return p

    add_element_cmd("factor", _cmd_factor, "factor an element into positive primes")
    add_element_cmd("sigma", _cmd_sigma, "generalized sum-of-divisors of an element")
    p = add_element_cmd("classify", _cmd_classify, "deficient/norm-perfect/abundant status")
    p.add_argument("--primitive", action="store_true", help="also check primitivity")

    p = sub.add_parser("mersenne", help="scan generalized Mersenne exponents")
    p.set_defaults(func=_cmd_mersenne)
    p.add_argument("--ring", type=_ring, required=True)
    p.add_argument("--max-k", type=int, required=True)
    p.add_argument("--residue-filter", type=_residue_set, default=None)
    p.add_argument("--jobs", type=_jobs, default=None)
    p.add_argument("--csv", action="store_true")
    p.add_argument("--progress", action="store_true")

    for name, parity in (("search-even", "even"), ("search-odd", "odd")):
        p = sub.add_parser(name, help=f"sector scan over {parity} classes")
        p.set_defaults(func=_cmd_search, parity=parity, prune=False)
        p.add_argument("--ring", type=_ring, required=True)
        p.add_argument("--max-norm", type=int, required=True)
        p.add_argument("--jobs", type=_jobs, default=None)
        p.add_argument("--progress", action="store_true")
        p.add_argument("--csv", action="store_true")
        if parity == "even":
            p.add_argument(
                "--prune",
                action="store_true",
                help="skip exponents the mod-12 lemmas exclude from norm-perfection",
            )

    p = sub.add_parser("find-normperfect-primes", help="norm-perfect prime sweep")
    p.set_defaults(func=_cmd_find_primes)
    p.add_argument("--ring", type=_ring, required=True)
    p.add_argument("--max-norm", type=int, required=True)

    p = sub.add_parser("check-remark", help="rational perfect numbers are not Eisenstein norm-perfect")
    p.set_defaults(func=_cmd_check_remark)
    p.add_argument("k", type=int, nargs="+")

    p = sub.add_parser("cyclo", help="Z[zeta_p] operations")
    p.set_defaults(func=_cmd_cyclo)
    p.add_argument("--p", type=int, required=True)
    cyc_sub = p.add_subparsers(dest="cyclo_command", required=True)
    q = cyc_sub.add_parser("norm")
    q.add_argument("coeffs", help="JSON list of coefficients, e.g. [1,-1]")
    q = cyc_sub.add_parser("even")
    q.add_argument("coeffs", help="JSON list of coefficients")
    cyc_sub.add_parser("discriminant")
    cyc_sub.add_parser("ramify-check")
    q = cyc_sub.add_parser("residue-degree")
    q.add_argument("q", type=int)
    q = cyc_sub.add_parser("splitting-check")
    q.add_argument("q", type=int)
    q = cyc_sub.add_parser("mersenne-norm")
    q.add_argument("k", type=int)
    q = cyc_sub.add_parser("validate-odd-form")
    q.add_argument("form", help="JSON AbstractOddFactorization, or - for stdin")

    p = sub.add_parser("verify", help="run named invariant suites")
    p.set_defaults(func=_cmd_verify)
    p.add_argument("suite", choices=SUITE_NAMES)
    p.add_argument("--jobs", type=_jobs, default=None)
    return parser


def _cmd_factor(args) -> int:
    x = _parse_nonzero(args.element, args.ring)
    fac = factor(x)
    _emit(fac.to_json(element=x), args.pretty)
    return EXIT_OK


def _cmd_sigma(args) -> int:
    x = _parse_nonzero(args.element, args.ring)
    s = sigma(x)
    _emit(
        {
            "element": x.to_json(),
            "sigma": s.to_json(),
            "norm": str(x.norm()),
            "sigma_norm": str(s.norm()),
        },
        args.pretty,
    )
    return EXIT_OK


def _cmd_classify(args) -> int:
    x = _parse_nonzero(args.element, args.ring)
    cls = classify(x, check_primitive=args.primitive)
    (text,) = json_rows(x.ring, [cls.row()], with_unit=False, primitive=cls.primitive)
    if args.pretty:
        _emit(json.loads(text), True)
    else:
        print(text)
    return EXIT_OK


def _cmd_mersenne(args) -> int:
    records = scan(
        args.ring,
        args.max_k,
        residues=args.residue_filter,
        jobs=args.jobs,
        progress_cb=_progress_printer(args.progress),
    )
    if args.csv:
        writer = csv.writer(sys.stdout)
        writer.writerow(["k", "element", "norm", "k_residue", "is_prime"])
        for rec in records:
            writer.writerow(
                [rec.k, str(rec.element), rec.norm, rec.k_residue, rec.is_prime]
            )
        return EXIT_OK
    table = [["k", "element", "is_prime", "k_residue"]] + [
        [str(r.k), str(r.element) if r.k < 40 else f"(norm ~1e{len(str(r.norm)) - 1})",
         str(r.is_prime), str(r.k_residue)]
        for r in records
    ]
    _emit(
        {
            "ring": args.ring.value,
            "max_k": args.max_k,
            "config": _config_header(),
            "records": [rec.to_json() for rec in records],
        },
        args.pretty,
        table,
    )
    return EXIT_OK


def _cmd_search(args) -> int:
    report = sector_scan(
        args.ring,
        args.max_norm,
        parity=args.parity,
        jobs=args.jobs,
        prune=args.prune,
        progress_cb=_progress_printer(args.progress),
    )
    if args.csv:
        writer = csv.writer(sys.stdout)
        writer.writerows(report.csv_rows())
        return EXIT_OK
    text = report.json_text(config=_config_header())
    if args.pretty:
        _emit(json.loads(text), True, report.csv_rows() if report.rows else None)
    else:
        print(text)
    return EXIT_OK


def _cmd_find_primes(args) -> int:
    primes = find_normperfect_primes(args.ring, args.max_norm)
    _emit(
        {
            "ring": args.ring.value,
            "max_norm": args.max_norm,
            "config": _config_header(),
            "count": len(primes),
            "primes": [x.to_json() for x in primes],
        },
        args.pretty,
    )
    return EXIT_OK


def _cmd_check_remark(args) -> int:
    checks = []
    for k in args.k:
        checks.append({"k": k, "not_norm_perfect": check_rational_perfect_remark(k)})
    _emit(
        {"checks": checks, "all_pass": all(c["not_norm_perfect"] for c in checks)},
        args.pretty,
    )
    return EXIT_OK


def _cyc_coeffs(text: str) -> list[int]:
    try:
        coeffs = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ElementParseError(f"bad coefficient list: {exc}")
    # bool is a subclass of int, but true is no JSON integer
    if not isinstance(coeffs, list) or not all(type(c) is int for c in coeffs):
        raise ElementParseError("coefficients must be a JSON list of integers")
    return coeffs


def _cmd_cyclo(args) -> int:
    p = args.p
    cmd = args.cyclo_command
    if cmd == "discriminant":
        _emit({"p": p, "discriminant": str(discriminant(p))}, args.pretty)
        return EXIT_OK
    if p not in SUPPORTED_PRIMES:
        raise ValueError(f"p must be one of {SUPPORTED_PRIMES}")
    if cmd == "norm":
        x = CycElement(p, _cyc_coeffs(args.coeffs))
        _emit({"p": p, "coeffs": list(x.coeffs), "norm": str(cyc_norm(x))}, args.pretty)
    elif cmd == "even":
        x = CycElement(p, _cyc_coeffs(args.coeffs))
        _emit({"p": p, "coeffs": list(x.coeffs), "even": cyc_is_even(x)}, args.pretty)
    elif cmd == "ramify-check":
        _emit({"p": p, "ramifies": ramification_check(p)}, args.pretty)
    elif cmd == "residue-degree":
        _emit({"p": p, "q": args.q, "f": residue_degree(args.q, p)}, args.pretty)
    elif cmd == "splitting-check":
        _emit({"p": p, "q": args.q, "ok": splitting_pattern_check(args.q, p)}, args.pretty)
    elif cmd == "mersenne-norm":
        _emit({"p": p, "k": args.k, "norm": str(cyc_mersenne_norm(p, args.k))}, args.pretty)
    elif cmd == "validate-odd-form":
        text = sys.stdin.read() if args.form == "-" else args.form
        try:
            form = AbstractOddFactorization.from_json(json.loads(text))
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise ElementParseError(f"bad odd-form JSON: {exc}")
        if form.p != p:
            raise ValueError(f"--p {p} disagrees with the form's p={form.p}")
        conforms, reason = validate_general_odd_form(form)
        _emit(
            {"p": p, "conforms": conforms, "violated_condition": reason},
            args.pretty,
        )
    return EXIT_OK


def _cmd_verify(args) -> int:
    result = run_suite(
        args.suite, jobs=args.jobs, log=lambda line: sys.stderr.write(line + "\n")
    )
    obj = result.to_json()
    obj["config"] = _config_header()
    obj["defaults"] = DEFAULTS
    _emit(obj, args.pretty)
    return EXIT_OK if result.passed else EXIT_VERIFY_FAILED


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # SIGTERM unwinds like a Ctrl-C, so either one tears a worker pool down
    # on the way out; the previous handler comes back for in-process callers
    previous = signal.signal(signal.SIGTERM, signal.default_int_handler)
    try:
        return args.func(args)
    except ElementParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    except ScanInvariantError as exc:
        print(f"scan invariant breach: {exc}", file=sys.stderr)
        return EXIT_SCAN_BREACH
    except (ValueError, ZeroDivisionError) as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN_ERROR
    except BrokenPipeError:
        # downstream closed the pipe (e.g. | head); leave quietly
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_OK
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
    finally:
        signal.signal(signal.SIGTERM, previous)


if __name__ == "__main__":
    sys.exit(main())
