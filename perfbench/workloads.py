"""The benchmark's workloads: their ops, inputs, and the correctness gate.

An op is a JSON-able dict the orchestrator sends to the worker process:

* ``{"kind": "cli", "argv": [...]}`` runs ``cycloperfect.cli.main(argv)``
  with stdout sent to a file, as a user redirecting a command's output;
* ``{"kind": "conjecture_records", "p": p, "k_max": k}`` calls the library;
* ``{"kind": "classify", ...}`` and ``{"kind": "cyc_norm", ...}`` are point
  queries, checked inside the worker because the check needs the objects.

Scan and Mersenne outputs are checked against digests recorded from the
seed commit (``references.json``).  Digests cover only the result fields, so
timing or stats keys added to a report later do not read as wrong output.
"""

from __future__ import annotations

import hashlib
import json
import random

# search-even is not a workload: on the seed commit, its --jobs 2 pool hangs in
# Pool.terminate() in about one run in ten (ROADMAP item 1), and a benchmark
# whose ops fail at random cannot compare two sets of runs.
WORKLOADS = ("scan-odd", "mersenne", "point-queries")

# Full-size and test-size parameters.  The tiny sizes exist only for the
# benchmark's own smoke tests.
SIZES = {
    "full": {
        "scan_bound": 50_000,
        "mersenne_max_k": {"eisenstein": 1500, "gaussian": 2000},
        "conjecture_k_max": 600,
        "queries_per_pass": 500,
        "trace_queries": 1000,
        "coordinate_bound": 10**10,
    },
    "tiny": {
        "scan_bound": 2_000,
        "mersenne_max_k": {"eisenstein": 60, "gaussian": 80},
        "conjecture_k_max": 100,
        "queries_per_pass": 20,
        "trace_queries": 40,
        "coordinate_bound": 10**6,
    },
}

CONJECTURE_PRIMES = (5, 7, 11, 13, 17, 19)
RINGS = ("gaussian", "eisenstein")
# The Mersenne sweep uses the pool (two cores on the 2-vCPU machine the
# benchmark was sized on); search-odd is the single-process baseline.
JOBS = {"scan-odd": 1, "mersenne": 2, "point-queries": 1}


def fixed_ops(workload: str, size: str) -> list[dict]:
    """The op list of one pass of a scan or Mersenne workload."""
    s = SIZES[size]
    jobs = str(JOBS[workload])
    if workload == "scan-odd":
        return [
            {"kind": "cli", "argv": ["search-odd", "--ring", r, "--max-norm", str(s["scan_bound"]), "--jobs", jobs]}
            for r in RINGS
        ]
    if workload == "mersenne":
        ops = [
            {"kind": "cli", "argv": ["mersenne", "--ring", r, "--max-k", str(s["mersenne_max_k"][r]), "--jobs", jobs]}
            for r in ("eisenstein", "gaussian")
        ]
        ops += [
            {"kind": "conjecture_records", "p": p, "k_max": s["conjecture_k_max"]}
            for p in CONJECTURE_PRIMES
        ]
        return ops
    raise ValueError(f"{workload} has no fixed op list")


def with_jobs(op: dict, jobs: int) -> dict:
    """The same op with its --jobs value replaced."""
    if op["kind"] != "cli" or "--jobs" not in op["argv"]:
        return op
    argv = list(op["argv"])
    argv[argv.index("--jobs") + 1] = str(jobs)
    return {"kind": "cli", "argv": argv}


def op_key(op: dict) -> str:
    """Reference key of an op: its arguments without --jobs, which never
    changes the output."""
    if op["kind"] == "cli":
        argv = list(op["argv"])
        i = argv.index("--jobs")
        del argv[i : i + 2]
        return " ".join(argv)
    if op["kind"] == "conjecture_records":
        return f"conjecture_records p={op['p']} k_max={op['k_max']}"
    raise ValueError(f"op kind {op['kind']} has no reference")


def query_ops(rng: random.Random, count: int, size: str) -> list[dict]:
    """Point queries, four quadratic classify calls to one cyclotomic norm."""
    bound = SIZES[size]["coordinate_bound"]
    ops = []
    for i in range(count):
        if i % 5 == 4:
            p = rng.choice(CONJECTURE_PRIMES)
            coeffs = [rng.randint(-9, 9) for _ in range(p - 1)]
            if not any(coeffs):
                coeffs[0] = 1
            ops.append({"kind": "cyc_norm", "p": p, "coeffs": coeffs})
        else:
            a, b = rng.randint(-bound, bound), rng.randint(-bound, bound)
            if a == b == 0:
                a = 1
            ops.append({"kind": "classify", "ring": rng.choice(RINGS), "a": a, "b": b})
    rng.shuffle(ops)
    return ops


# -- digests --------------------------------------------------------------------


def _sha(rows) -> str:
    return hashlib.sha256(json.dumps(rows, separators=(",", ":")).encode()).hexdigest()


def _element(obj: dict | None):
    return None if obj is None else [obj["ring"], obj["a"], obj["b"]]


def scan_digest(report: dict) -> dict:
    rows = [
        [
            _element(f["element"]),
            f["status"],
            _element(f["sigma"]),
            f["norm"],
            f["sigma_norm"],
            f["perfect"],
            _element(f["perfect_unit"]),
        ]
        for f in report["findings"]
    ]
    return {
        "ring": report["ring"],
        "norm_bound": report["norm_bound"],
        "parity": report["parity"],
        "scanned": report["scanned"],
        "findings": len(rows),
        "sha256": _sha(rows),
    }


def mersenne_digest(report: dict) -> dict:
    rows = [
        [r["k"], _element(r["element"]), r["norm"], r["k_residue"], r["is_prime"], r["prime_exponent_ok"]]
        for r in report["records"]
    ]
    return {
        "ring": report["ring"],
        "max_k": report["max_k"],
        "records": len(rows),
        "prime_exponents": [r["k"] for r in report["records"] if r["is_prime"]],
        "sha256": _sha(rows),
    }


def conjecture_digest(records: list[dict]) -> dict:
    rows = [[r["p"], r["k"], r["k_mod_4p"], r["norm"], r["norm_is_prime"]] for r in records]
    return {
        "records": len(rows),
        "prime_exponents": [r["k"] for r in records if r["norm_is_prime"]],
        "sha256": _sha(rows),
    }


def digest(op: dict, output: str) -> dict:
    """Digest of an op's output text (a CLI JSON document or the records)."""
    obj = json.loads(output)
    if op["kind"] == "conjecture_records":
        return conjecture_digest(obj)
    if op["argv"][0] == "mersenne":
        return mersenne_digest(obj)
    return scan_digest(obj)


def parity_count(ring_name: str, bound: int, parity: str) -> int:
    """Sector classes of one parity, counted straight from iter_sector and
    the ring's own evenness test rather than the scan's strip loop."""
    from cycloperfect.rings import QuadInt, Ring
    from cycloperfect.search import iter_sector

    ring = Ring(ring_name)
    want_even = parity == "even"
    return sum(
        1 for a, b, _ in iter_sector(ring, bound) if QuadInt(ring, a, b).is_even() == want_even
    )


def check_output(op: dict, output: str, references: dict, parity_counts: dict) -> tuple[dict | None, str | None]:
    """(digest, None) when the output matches the reference, else (digest or
    None, reason)."""
    try:
        dig = digest(op, output)
    except (ValueError, KeyError, TypeError) as exc:
        return None, f"unreadable output: {exc!r}"
    key = op_key(op)
    ref = references.get(key)
    if ref is None:
        return dig, f"no reference for {key!r}"
    if dig != ref:
        return dig, f"digest differs from the reference for {key!r}"
    if "scanned" in dig:
        count_key = (dig["ring"], dig["norm_bound"], dig["parity"])
        if count_key not in parity_counts:
            parity_counts[count_key] = parity_count(*count_key)
        if dig["scanned"] != parity_counts[count_key]:
            return dig, f"scanned {dig['scanned']} != sector count {parity_counts[count_key]}"
    return dig, None


# -- point-query checks (run in the worker) ---------------------------------------


def norm_by_conjugates(p: int, coeffs) -> int:
    """N(x) for x in Z[zeta_p] as the product of its p-1 Galois conjugates,
    computed in Z[t]/(t^p - 1): independent of the resultant route.

    The product maps to the rational integer N in Z[zeta_p], so it equals
    N + s*(1 + t + ... + t^(p-1)) for some integer s.
    """
    acc = [1] + [0] * (p - 1)
    for j in range(1, p):
        conj = [0] * p
        for i, c in enumerate(coeffs):
            conj[i * j % p] += c
        prod = [0] * p
        for i, u in enumerate(acc):
            if u:
                for k, v in enumerate(conj):
                    prod[(i + k) % p] += u * v
        acc = prod
    if any(c != acc[1] for c in acc[2:]):
        raise ArithmeticError("conjugate product is not a rational integer")
    return acc[0] - acc[1]


def check_classify(x, cls) -> str | None:
    """Recompose the factorization, compare norms and the oracle sigma."""
    from cycloperfect import divisors, factorization

    fac = factorization.factor(x)
    if fac.recompose() != x:
        return f"factorization of {x} does not recompose"
    n = 1
    for p, e in fac.factors:
        n *= p.norm() ** e
    if n != x.norm() or cls.norm != n:
        return f"factor norms of {x} multiply to {n}, not {x.norm()}"
    if cls.sigma != divisors.divisor_sum_from_factorization(fac):
        return f"sigma({x}) differs from the divisor-sum oracle"
    c = x.ring.residue_char
    want = "deficient" if cls.sigma_norm < c * n else "norm_perfect" if cls.sigma_norm == c * n else "abundant"
    if cls.status.value != want or cls.sigma_norm != cls.sigma.norm():
        return f"status of {x} disagrees with its sigma norm"
    return None


def check_cyc_norm(x, norm: int) -> str | None:
    if norm != norm_by_conjugates(x.p, x.coeffs):
        return f"cyc_norm of {x.coeffs} at p={x.p} disagrees with the conjugate product"
    return None
