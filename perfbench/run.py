"""Benchmark for cycloperfect: end-to-end metrics, or per-layer metrics from a traced run.

    python3 perfbench/run.py --workload scan-odd --seed 1 --seconds 35 --trace 0

Run from the root of a checkout.  Each workload is a closed loop with one
client: the next op starts when the previous one has returned and its output
has been checked.  Ops run in a worker process started in its own process
group; an op that outlives OP_LIMIT_S is a hang, and the whole group is
killed with SIGKILL (the scan's SIGTERM handler would swallow a SIGTERM).
The killed op counts as failed and the loop goes on with the next op in a
fresh worker; nothing is retried.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  The line before it is the environment
record.  See README.md for the metrics and why each workload exists.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import random
import select
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402

OP_LIMIT_S = 30.0
RUN_LIMIT_S = 150.0
SETUP_REPS_FIRST = 5
WORK_DIR = ".perfbench"

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "classes_per_s": "1/s",
    "query_p50_ms": "ms",
    "query_p99_ms": "ms",
    "peak_rss_mb": "MB",
}

# Per-layer metrics: name -> unit.  "<span>.calls" and "<span>.self_s" come
# straight from the trace summary; the rest are derived in layer_metrics().
LAYER_UNITS = {
    "factorization.factor.calls": "count",
    "factorization.factor.self_s": "s",
    "rings.exact_divide.calls": "count",
    "rings.exact_divide.hit_ratio": "ratio",
    "rational.factor_with_sieve.self_s": "s",
    "divisors.sigma_from_factorization.calls": "count",
    "divisors.sigma_from_factorization.self_s": "s",
    "divisors.classify.calls": "count",
    "divisors.classify.self_s": "s",
    "divisors.sigma_per_class": "ratio",
    "search.finding_ratio": "ratio",
    "search.sector_scan.self_s": "s",
    "search.pool_speedup": "ratio",
    "cli.main.self_s": "s",
    "cli.output_bytes": "bytes",
    "rings.sector_canonical.calls": "count",
    "rings.sector_canonical.self_s": "s",
    "rational.smallest_prime_factor_sieve.self_s": "s",
    "rational.is_rational_prime.calls": "count",
    "rational.is_rational_prime.self_s": "s",
    "mersenne.mersenne_element.self_s": "s",
    "mersenne.prime_ratio": "ratio",
    "cyclotomic.cyc_norm.calls": "count",
    "cyclotomic.cyc_norm.self_s": "s",
    "rational.factor_rational.calls": "count",
    "rational.factor_rational.self_s": "s",
    "factorization.prime_above.self_s": "s",
    "factorization.prime_above.hit_ratio": "ratio",
    "rings.gcd.calls": "count",
    "rings.gcd.self_s": "s",
    "trace.overhead_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.self_sum_s": "s",
}


class Worker:
    """One worker process in its own process group."""

    def __init__(self, out_dir: str) -> None:
        env = {k: v for k, v in os.environ.items() if k != "PYTHONOPTIMIZE"}
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py"), "--root", ROOT, "--out-dir", out_dir],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            cwd=ROOT,
            env=env,
            start_new_session=True,
        )

    def request(self, msg: dict, timeout: float) -> dict | None:
        """The worker's reply, or None when it hung or died (then it is killed)."""
        try:
            self.proc.stdin.write(json.dumps(msg) + "\n")
            self.proc.stdin.flush()
            ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
            line = self.proc.stdout.readline() if ready else ""
        except BrokenPipeError:
            line = ""
        if not line:
            self.kill()
            return None
        return json.loads(line)

    def kill(self) -> None:
        """SIGKILL the group, then reap the worker and its orphaned pool
        workers, which come to this process as their subreaper."""
        if self.proc.poll() is None or _group_alive(self.proc.pid):
            try:
                os.killpg(self.proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        self.proc.wait()
        while True:
            try:
                os.waitpid(-self.proc.pid, 0)
            except ChildProcessError:
                break
        for stream in (self.proc.stdin, self.proc.stdout):
            try:
                stream.close()
            except BrokenPipeError:
                pass

    def finish(self, spans_path: str) -> dict | None:
        reply = self.request({"cmd": "finish", "spans": spans_path}, OP_LIMIT_S)
        if reply is not None:
            try:
                self.proc.wait(timeout=OP_LIMIT_S)
            except subprocess.TimeoutExpired:
                pass
            self.kill()  # also reaps any pool worker left in the group
        return reply


def _become_subreaper() -> None:
    """Make orphaned descendants children of this process (Linux), so that the
    pool workers of a killed worker can be waited for here."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass


def _group_alive(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
        return True
    except (ProcessLookupError, PermissionError):
        return False


class Session:
    """Runs ops through a worker, replacing it after a kill, and checks outputs.

    With ``fresh`` set, every op gets a worker of its own, as every command a
    user runs gets a process of its own.  Its peak RSS then does not depend
    on which op ran before it in the same process.  The next worker is started
    only when the next op comes, so no worker runs between ops.
    """

    def __init__(self, out_dir: str, references: dict, t_end: float, fresh: bool) -> None:
        _become_subreaper()
        self.out_dir = out_dir
        self.fresh = fresh
        self.references = references
        self.t_end = t_end
        self.worker: Worker | None = None
        self.attempted = 0
        self.failed = 0
        self.killed = 0
        self.wrong: list[str] = []
        self.peak_rss_mb = 0.0
        self.parity_counts: dict = {}
        self.trace_on = False

    def _worker(self) -> Worker:
        if self.worker is None:
            self.worker = Worker(self.out_dir)
            if self.trace_on:
                self.worker.request({"cmd": "trace"}, OP_LIMIT_S)
        return self.worker

    def run(self, op: dict) -> dict | None:
        """Run and check one op; returns {"wall", "items", "digest", "bytes"},
        or None when the op was killed or raised.  An op whose output fails
        the gate keeps its time but counts as failed."""
        self.attempted += 1
        limit = max(1.0, min(OP_LIMIT_S, self.t_end - time.monotonic()))
        reply = self._worker().request({"cmd": "op", "op": op}, limit)
        if reply is None:
            self.worker = None
            self.killed += 1
            self.failed += 1
            return None
        self.peak_rss_mb = max(self.peak_rss_mb, reply.get("peak_rss_mb", 0.0))
        if self.fresh:
            self.close(None)
        name = workloads.op_key(op) if "out" in reply else op["kind"]
        if "wall" not in reply:
            self._fail(name, reply["error"])
            return None
        error = reply.get("error")
        dig = None
        if error is None and reply["rc"] != 0:
            error = f"exit code {reply['rc']}"
        if error is None and "out" in reply:
            with open(reply["out"], encoding="utf-8") as fh:
                output = fh.read()
            os.remove(reply["out"])
            dig, error = workloads.check_output(op, output, self.references, self.parity_counts)
        if error is not None:
            self._fail(name, error)
        # classes reported on: classes scanned, exponent records, or one query
        items = 1 if dig is None else dig["scanned"] if "scanned" in dig else dig["records"]
        return {"wall": reply["wall"], "items": items, "digest": dig, "bytes": reply.get("bytes", 0)}

    def _fail(self, name: str, error: str) -> None:
        self.failed += 1
        self.wrong.append(f"{name}: {error}")

    def run_pass(self, ops: list[dict]) -> list[dict | None]:
        return [self.run(op) for op in ops]

    def close(self, spans_path: str | None) -> dict:
        if self.worker is None:
            return {}
        reply = self.worker.finish(spans_path) or {}
        self.worker = None
        self.peak_rss_mb = max(self.peak_rss_mb, reply.get("peak_rss_mb", 0.0))
        return reply

    def abort(self) -> None:
        if self.worker is not None:
            self.worker.kill()
            self.worker = None


def setup_sample(out_dir: str) -> float:
    """The time a fresh interpreter takes to import the package."""
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), "--root", ROOT, "--out-dir", out_dir, "--setup-only"],
        check=True,
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=OP_LIMIT_S,
    )
    return float(out.stdout)


class Plan:
    """The ops of successive passes: a seeded order of the fixed op list, or
    fresh seeded point queries for every pass."""

    def __init__(self, workload: str, seed: int, size: str) -> None:
        self.workload = workload
        self.size = size
        self.rng = random.Random(seed)
        self.fixed = None if workload == "point-queries" else workloads.fixed_ops(workload, size)

    def next_pass(self, queries: int | None = None) -> list[dict]:
        if self.fixed is None:
            count = queries or workloads.SIZES[self.size]["queries_per_pass"]
            return workloads.query_ops(self.rng, count, self.size)
        ops = list(self.fixed)
        self.rng.shuffle(ops)
        return ops


def _quantile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure_e2e(session: Session, plan: Plan, seconds: float, setup_times: list[float]) -> tuple[dict, dict]:
    """Passes until ``seconds`` have gone by.

    One more set-up sample is taken after every op of a fixed list (no worker
    runs then) and after every pass of point queries, so that the samples
    spread over the whole run and its swings in machine speed.

    Point queries: wall_s is the median time of a complete pass of fresh
    queries, and the latency percentiles are over every query.  A fixed op
    list: each op's time is its median over the run; wall_s is their sum and
    the percentiles are over them, so a killed op costs its own samples only
    and cannot shift the others.  A fixed list may stop after any op, since
    its metrics need no complete pass.  Measuring goes on past ``seconds``
    (up to RUN_LIMIT_S) while an op of a fixed list has no sample because
    every run of it was killed.
    """
    times: dict[str, list[float]] = {
        json.dumps(op, sort_keys=True): [] for op in plan.fixed or ()
    }
    items: dict[str, int] = {}
    pass_walls, latencies = [], []
    t0 = time.monotonic()
    passes = 0

    def finished() -> bool:
        now = time.monotonic()
        return now >= session.t_end or (
            now - t0 >= seconds and (plan.fixed is None or all(times.values()) or bool(session.wrong))
        )

    while True:
        ops = plan.next_pass()
        results = []
        for op in ops:
            r = session.run(op)
            results.append(r)
            if r is not None:
                latencies.append(r["wall"])
                if plan.fixed is not None:
                    key = json.dumps(op, sort_keys=True)
                    times[key].append(r["wall"])
                    items[key] = r["items"]
            if plan.fixed is not None:
                setup_times.append(setup_sample(session.out_dir))
                if finished():
                    break
        passes += 1
        if plan.fixed is None:
            # a worker per pass: the program's caches start cold every pass,
            # so latency and peak RSS do not depend on how many passes fit
            session.close(None)
            setup_times.append(setup_sample(session.out_dir))
        if len(results) == len(ops) and None not in results:
            pass_walls.append(sum(r["wall"] for r in results))
        if finished():
            break
    metrics = {}
    if plan.fixed is not None:
        if all(times.values()):
            latencies = [statistics.median(t) for t in times.values()]
            metrics["wall_s"] = sum(latencies)
            metrics["classes_per_s"] = sum(items.values()) / metrics["wall_s"]
        else:
            latencies = []
    elif pass_walls:
        metrics["wall_s"] = statistics.median(pass_walls)
        metrics["classes_per_s"] = len(ops) / metrics["wall_s"]
    if latencies:
        metrics["query_p50_ms"] = 1e3 * _quantile(latencies, 50)
        metrics["query_p99_ms"] = 1e3 * _quantile(latencies, 99)
    samples = sum(len(t) for t in times.values()) if plan.fixed else len(latencies)
    return metrics, {"passes": passes, "complete_passes": len(pass_walls), "latency_samples": samples}


def measure_layers(session: Session, plan: Plan, spans_path: str) -> tuple[dict, dict]:
    """Untraced pass at jobs=1, untraced pass at the workload's jobs when that
    is more than one, then the traced pass at jobs=1, all on the same ops.
    Each pass runs in a worker of its own, so all three start from the same
    state (cold caches included)."""
    point = plan.fixed is None
    ops = plan.next_pass(workloads.SIZES[plan.size]["trace_queries"] if point else None)
    serial = [workloads.with_jobs(op, 1) for op in ops]
    session.fresh = False

    def timed(pass_ops, trace=False):
        session.close(None)
        session.trace_on = trace
        results = session.run_pass(pass_ops)
        done = [r for r in results if r is not None]
        return sum(r["wall"] for r in done), done, len(done) == len(results)

    wall_1, _, ok_1 = timed(serial)
    jobs = workloads.JOBS[plan.workload]
    speedup = None
    if jobs > 1:
        wall_n, _, ok_n = timed(ops)
        speedup = wall_1 / wall_n if ok_1 and ok_n and wall_n else None
    wall_t, traced, ok_t = timed(serial, trace=True)
    reply = session.close(spans_path)
    summary = reply.get("trace", {})
    m = layer_metrics(summary, traced, point)
    m["search.pool_speedup"] = speedup
    m["trace.overhead_s"] = wall_t - wall_1
    m["trace.untraced_wall_s"] = wall_1
    not_applicable = sorted(k for k, v in m.items() if v is None)
    info = {
        "complete": ok_1 and ok_t,
        "traced_wall_s": wall_t,
        "spans": sum(row.get("calls", 0) for k, row in summary.items() if "self_s" in row),
        "not_applicable": not_applicable,
    }
    return {k: (0.0 if v is None else v) for k, v in m.items()}, info


def _ratio(num, den):
    return num / den if den else None


def layer_metrics(summary: dict, traced: list[dict], point: bool) -> dict:
    def row(name):
        return summary.get(name, {"calls": 0, "self_s": 0.0, "hits": 0})

    m = {}
    for metric in LAYER_UNITS:
        span, _, field = metric.rpartition(".")
        if field in ("calls", "self_s") and not span.startswith("trace"):
            m[metric] = row(span).get(field, 0)
    scanned = sum(r["digest"]["scanned"] for r in traced if r["digest"] and "scanned" in r["digest"])
    findings = sum(r["digest"]["findings"] for r in traced if r["digest"] and "scanned" in r["digest"])
    classes = scanned or (row("divisors.classify")["calls"] if point else 0)
    exact = row("rings.exact_divide")
    cache = summary.get("prime_above.cache", {"hits": 0, "misses": 0})
    mers = row("mersenne.mersenne")
    m["rings.exact_divide.hit_ratio"] = _ratio(exact["hits"], exact["calls"])
    m["divisors.sigma_per_class"] = _ratio(row("divisors.sigma_from_factorization")["calls"], classes)
    m["search.finding_ratio"] = _ratio(findings, scanned)
    m["cli.output_bytes"] = sum(r["bytes"] for r in traced)
    m["mersenne.prime_ratio"] = _ratio(mers["hits"], mers["calls"])
    m["factorization.prime_above.hit_ratio"] = _ratio(cache["hits"], cache["hits"] + cache["misses"])
    m["trace.self_sum_s"] = sum(r["self_s"] for r in summary.values() if "self_s" in r)
    return m


def git_sha() -> str | None:
    """HEAD of the checkout, or None where it is not a git repository."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def environment(args, src_root: str) -> dict:
    digest = hashlib.sha256()
    pkg = os.path.join(src_root, "cycloperfect")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    ops = workloads.fixed_ops(args.workload, args.size) if args.workload != "point-queries" else []
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "jobs": {workloads.op_key(op): int(op["argv"][-1]) for op in ops if op["kind"] == "cli"},
        "jobs_traced": 1,
        "git_sha": git_sha(),
        "src_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "implementation": sys.implementation.name,
        "interpreter_flags": {
            "optimize": sys.flags.optimize,
            "dev_mode": sys.flags.dev_mode,
            "hash_randomization": sys.flags.hash_randomization,
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(workloads.SIZES), default="full",
                        help="tiny is for the benchmark's own tests")
    args = parser.parse_args(argv)
    if sys.flags.optimize:
        print("refusing to run under -O: it measures a different program", file=sys.stderr)
        return 2
    src_root = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src_root, "cycloperfect", "__init__.py")):
        print(f"no cycloperfect sources under {src_root}", file=sys.stderr)
        return 2
    sys.path.insert(0, src_root)
    with open(os.path.join(HERE, "references.json"), encoding="utf-8") as fh:
        references = json.load(fh)["ops"]

    run_dir = os.path.join(ROOT, WORK_DIR, f"{args.workload}-{os.getpid()}")
    os.makedirs(run_dir, exist_ok=True)
    spans_path = os.path.join(ROOT, WORK_DIR, f"spans-{args.workload}.bin")
    env = environment(args, src_root)
    plan = Plan(args.workload, args.seed, args.size)
    fresh = plan.fixed is not None
    session = Session(run_dir, references, time.monotonic() + RUN_LIMIT_S, fresh)
    try:
        if args.trace:
            metrics, info = measure_layers(session, plan, spans_path)
            units = LAYER_UNITS
        else:
            setup_times = [setup_sample(run_dir) for _ in range(SETUP_REPS_FIRST)]
            metrics, info = measure_e2e(session, plan, args.seconds, setup_times)
            metrics["setup_s"] = statistics.median(setup_times)
            info["setup_samples"] = len(setup_times)
            session.close(spans_path)
            metrics["peak_rss_mb"] = session.peak_rss_mb
            units = E2E_UNITS
    finally:
        session.abort()
        for name in os.listdir(run_dir):
            os.remove(os.path.join(run_dir, name))
        os.rmdir(run_dir)

    env.update(info)
    env["killed_ops"] = session.killed
    env["error_rate"] = session.failed / max(session.attempted, 1)
    env["wrong_outputs"] = session.wrong[:20]
    missing = [k for k in units if k not in metrics]
    correct = not session.wrong
    print(json.dumps({"env": env}, sort_keys=True))
    if missing:
        print(f"no complete pass: cannot report {missing}", file=sys.stderr)
        return 1
    result = {
        "correct": correct,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
