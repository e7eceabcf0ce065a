"""Tests of the benchmark itself: python3 -m pytest perfbench/test_perfbench.py"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import random
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

from cycloperfect import cli, cyclotomic, divisors  # noqa: E402
from cycloperfect.rings import QuadInt, Ring  # noqa: E402


def _bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def _declared() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    proc = _bench("--workload", workload, "--seed", "7", "--seconds", "1",
                  "--trace", trace, "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = _declared()["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))
    env = json.loads(proc.stdout.strip().splitlines()[-2])["env"]
    assert env["seed"] == 7 and env["interpreter_flags"]["optimize"] == 0


def test_declared_workloads_match_the_benchmark():
    assert [w["name"] for w in _declared()["workloads"]] == list(workloads.WORKLOADS)


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "scan-odd", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


# -- correctness gate ---------------------------------------------------------------


def _output(op: dict) -> str:
    if op["kind"] == "conjecture_records":
        return json.dumps(cyclotomic.conjecture_records(op["p"], op["k_max"]))
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(op["argv"]) == 0
    return buf.getvalue()


def _refs() -> dict:
    with open(os.path.join(HERE, "references.json"), encoding="utf-8") as fh:
        return json.load(fh)["ops"]


def _doctor_finding(obj):
    f = obj["findings"][0]
    f["status"] = "abundant" if f["status"] != "abundant" else "norm_perfect"


def _doctor_record(obj):
    obj["records"][-1]["is_prime"] = not obj["records"][-1]["is_prime"]


def _doctor_scanned(obj):
    obj["scanned"] += 1


@pytest.mark.parametrize(
    "workload, index, doctor",
    [
        ("scan-odd", 0, _doctor_finding),
        ("scan-odd", 1, _doctor_scanned),
        ("mersenne", 0, _doctor_record),
    ],
)
def test_doctored_output_trips_the_gate(workload, index, doctor):
    op = workloads.fixed_ops(workload, "tiny")[index]
    text = _output(op)
    counts: dict = {}
    assert workloads.check_output(op, text, _refs(), counts)[1] is None
    obj = json.loads(text)
    doctor(obj)
    assert workloads.check_output(op, json.dumps(obj), _refs(), counts)[1] is not None


def test_doctored_conjecture_record_trips_the_gate():
    op = workloads.fixed_ops("mersenne", "tiny")[2]
    records = json.loads(_output(op))
    records[0]["norm"] = str(int(records[0]["norm"]) + 1)
    assert workloads.check_output(op, json.dumps(records), _refs(), {})[1] is not None


def test_extra_report_keys_do_not_trip_the_gate():
    op = workloads.fixed_ops("scan-odd", "tiny")[0]
    obj = json.loads(_output(op))
    obj["stats"] = {"chunks": 3}
    obj["timing"] = {"sieve_s": 0.1}
    obj["wall_time"] = 123.0
    assert workloads.check_output(op, json.dumps(obj), _refs(), {})[1] is None


def test_mismatch_counts_as_a_failed_op(tmp_path):
    op = workloads.fixed_ops("mersenne", "tiny")[1]
    refs = _refs()
    refs[workloads.op_key(op)] = dict(refs[workloads.op_key(op)], sha256="0" * 64)
    session = run.Session(str(tmp_path), refs, time.monotonic() + 60, fresh=True)
    try:
        assert session.run(op)["wall"] > 0
    finally:
        session.abort()
    assert (session.attempted, session.failed, session.killed) == (1, 1, 0)
    assert "digest differs" in session.wrong[0]


def test_hang_guard_kills_the_whole_group(tmp_path):
    # a full-size jobs=2 scan outlives a one-second limit, like a hung op
    argv = ["search-even", "--ring", "gaussian", "--max-norm", "200000", "--jobs", "2"]
    op = {"kind": "cli", "argv": argv}
    session = run.Session(str(tmp_path), _refs(), time.monotonic() + 1.0, fresh=True)
    worker = session._worker()
    time.sleep(0.5)  # let the worker import the package before the clock starts
    try:
        assert session.run(op) is None
    finally:
        session.abort()
    assert (session.attempted, session.failed, session.killed) == (1, 1, 1)
    assert worker.proc.returncode is not None
    with pytest.raises(ProcessLookupError):
        os.killpg(worker.proc.pid, 0)


def test_point_query_checks():
    rng = random.Random(5)
    for op in workloads.query_ops(rng, 60, "tiny"):
        if op["kind"] == "cyc_norm":
            x = cyclotomic.CycElement(op["p"], op["coeffs"])
            norm = cyclotomic.cyc_norm(x)
            assert workloads.check_cyc_norm(x, norm) is None
            assert workloads.check_cyc_norm(x, norm + 1) is not None
        else:
            x = QuadInt(Ring(op["ring"]), op["a"], op["b"])
            cls = divisors.classify(x, check_primitive=True)
            assert workloads.check_classify(x, cls) is None
            bad = dataclasses.replace(cls, sigma=cls.sigma + 1)
            assert workloads.check_classify(x, bad) is not None


# -- tracing --------------------------------------------------------------------------


def test_self_time_plus_child_cover_is_the_span_duration():
    t = tracing.Tracer()

    def leaf():
        sum(range(20_000))

    leaf = t.span("leaf", leaf)

    def mid():
        leaf()
        sum(range(5_000))
        leaf()

    mid = t.span("mid", mid)

    def top():
        mid()
        leaf()

    top = t.span("top", top)
    t.active = True
    top()
    top()
    t.active = False
    selfs = t.self_times()
    assert len(selfs) == 10
    for i in range(len(selfs)):
        children = [j for j, p in enumerate(t.parent) if p == i]
        # the union of the children's intervals, measured independently
        cover, last = 0.0, t.start[i]
        for j in sorted(children, key=lambda j: t.start[j]):
            lo, hi = max(t.start[j], last), t.end[j]
            if hi > lo:
                cover += hi - lo
                last = hi
        assert selfs[i] >= 0
        assert selfs[i] + cover == pytest.approx(t.end[i] - t.start[i], abs=1e-9)
    summary = t.summary()
    assert summary["leaf"]["calls"] == 6 and summary["top"]["calls"] == 2
    roots = sum(e - s for s, e, p in zip(t.start, t.end, t.parent) if p < 0)
    assert sum(r["self_s"] for r in summary.values()) == pytest.approx(roots)


def test_spans_survive_a_write_and_read(tmp_path):
    t = tracing.Tracer()
    f = t.span("f", lambda: None)
    t.active = True
    f()
    path = str(tmp_path / "spans.bin")
    t.write(path)
    back = tracing.Tracer.read(path)
    assert back.names == t.names and list(back.start) == list(t.start)


def test_install_patches_every_binding_and_uninstall_restores_them():
    from cycloperfect import factorization, rings, search

    originals = (search.factor, factorization.ring_gcd, rings.QuadInt.exact_divide)
    t = tracing.Tracer()
    undo = tracing.install(t)
    try:
        assert search.factor is not originals[0]
        assert search.factor is factorization.factor
        assert factorization.ring_gcd is rings.gcd
        assert rings.QuadInt.exact_divide is not originals[2]
        t.active = True
        search.sector_scan(Ring.GAUSSIAN, 200, parity="odd", jobs=1)
        t.active = False
    finally:
        tracing.uninstall(undo)
    assert (search.factor, factorization.ring_gcd, rings.QuadInt.exact_divide) == originals
    summary = t.summary()
    assert summary["factorization.factor"]["calls"] > 0
    assert summary["rings.exact_divide"]["calls"] > 0
    assert summary["search.sector_scan"]["calls"] == 1
