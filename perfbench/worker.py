"""Worker process: runs the ops the orchestrator sends, one at a time.

Protocol: one JSON request per line on stdin, one JSON reply per line on
the stdout it was started with (fd 1 itself is pointed at /dev/null, so a
stray print from the program or its pool workers cannot corrupt a reply).

Requests:
  {"cmd": "op", "op": {...}}          run one op, reply with its wall time
  {"cmd": "trace"}                    install the span wrappers
  {"cmd": "finish", "spans": path}    reply with peak RSS and the trace

Only the call into the program is timed; writing the records of a library
op and the point-query checks happen after the clock stops.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import sys
import time

import tracing


def _import_program(root: str) -> None:
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "cycloperfect", "__init__.py")):
        raise SystemExit(f"no cycloperfect package under {src}")
    sys.path.insert(0, src)
    import cycloperfect.cli  # noqa: F401  (imports every layer)


class Worker:
    def __init__(self, out_dir: str) -> None:
        self.out_path = os.path.join(out_dir, f"op-{os.getpid()}.json")
        self.modules = {
            name: importlib.import_module(f"cycloperfect.{name}")
            for name in ("cli", "cyclotomic", "divisors", "factorization", "rings")
        }
        self.tracer = tracing.Tracer()
        self.undo = None
        self.prime_above = self.modules["factorization"].prime_above
        self.cache_hits = 0
        self.cache_misses = 0

    def run_op(self, op: dict) -> dict:
        m = self.modules
        kind = op["kind"]
        tracer = self.tracer
        traced = self.undo is not None
        before = self.prime_above.cache_info()
        if kind == "cli":
            saved = sys.stdout
            with open(self.out_path, "w", encoding="utf-8") as fh:
                sys.stdout = fh
                try:
                    tracer.active = traced
                    t0 = time.perf_counter()
                    rc = m["cli"].main(op["argv"])
                    wall = time.perf_counter() - t0
                finally:
                    tracer.active = False
                    sys.stdout = saved
            reply = {"wall": wall, "out": self.out_path, "rc": rc}
            reply["bytes"] = os.path.getsize(self.out_path)
        elif kind == "conjecture_records":
            tracer.active = traced
            t0 = time.perf_counter()
            records = m["cyclotomic"].conjecture_records(op["p"], op["k_max"])
            wall = time.perf_counter() - t0
            tracer.active = False
            with open(self.out_path, "w", encoding="utf-8") as fh:
                json.dump(records, fh)
            reply = {"wall": wall, "out": self.out_path, "rc": 0, "bytes": 0}
        elif kind == "classify":
            rings = m["rings"]
            x = rings.QuadInt(rings.Ring(op["ring"]), op["a"], op["b"])
            tracer.active = traced
            t0 = time.perf_counter()
            cls = m["divisors"].classify(x, check_primitive=True)
            wall = time.perf_counter() - t0
            tracer.active = False
            reply = {"wall": wall, "rc": 0, "error": _check("check_classify", x, cls)}
        elif kind == "cyc_norm":
            cyc = m["cyclotomic"]
            x = cyc.CycElement(op["p"], op["coeffs"])
            tracer.active = traced
            t0 = time.perf_counter()
            norm = cyc.cyc_norm(x)
            wall = time.perf_counter() - t0
            tracer.active = False
            reply = {"wall": wall, "rc": 0, "error": _check("check_cyc_norm", x, norm)}
        else:
            raise ValueError(f"unknown op kind {kind!r}")
        reply["peak_rss_mb"] = _peak_rss_mb()
        if traced:
            after = self.prime_above.cache_info()
            self.cache_hits += after.hits - before.hits
            self.cache_misses += after.misses - before.misses
        return reply

    def handle(self, msg: dict) -> dict:
        cmd = msg["cmd"]
        if cmd == "op":
            return self.run_op(msg["op"])
        if cmd == "trace":
            if self.undo is None:
                self.undo = tracing.install(self.tracer)
            return {}
        if cmd == "finish":
            if self.undo is not None:
                tracing.uninstall(self.undo)
                self.undo = None
            reply = {"peak_rss_mb": _peak_rss_mb()}
            if self.tracer.start and msg["spans"]:
                self.tracer.write(msg["spans"])
                reply["trace"] = self.tracer.summary()
                reply["trace"]["prime_above.cache"] = {
                    "hits": self.cache_hits,
                    "misses": self.cache_misses,
                }
            return reply
        raise ValueError(f"unknown command {cmd!r}")


def _peak_rss_mb() -> float:
    """Own peak RSS plus the largest peak among finished child processes."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def _check(name: str, *args) -> str | None:
    import workloads

    try:
        return getattr(workloads, name)(*args)
    except Exception as exc:  # a check that crashes is a failed op, not a crash
        return f"check raised {exc!r}"


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    if sys.flags.optimize:
        print("refusing to run under -O: it removes the program's asserts", file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    _import_program(args.root)
    if args.setup_only:
        print(time.perf_counter() - t0)
        return 0
    worker = Worker(args.out_dir)
    replies = os.fdopen(os.dup(1), "w", encoding="utf-8")
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, 1)
    os.close(devnull)
    for line in sys.stdin:
        msg = json.loads(line)
        try:
            reply = worker.handle(msg)
        except Exception as exc:  # reported to the orchestrator as a failed op
            reply = {"error": f"{type(exc).__name__}: {exc}"}
        replies.write(json.dumps(reply) + "\n")
        replies.flush()
        if msg["cmd"] == "finish":
            break
    return 0


if __name__ == "__main__":
    sys.exit(main())
