"""Span tracer attached to cycloperfect's layers from outside the program.

Each traced layer function is replaced, at every module-level name that
holds it, by a wrapper that records a span (name, parent span, start, end)
around the call.  Patching only the defining module would miss callers that
imported the function into their own namespace (``search`` binds ``factor``,
``classify`` and the sieve helpers; ``factorization`` binds ``gcd`` as
``ring_gcd``), so every ``cycloperfect`` module is searched for the original
object.  Spans live in flat arrays until the run ends.

A span's self time is its duration minus the time its direct children
cover; children run sequentially inside their parent, so that cover is the
sum of their durations.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array

# Layer functions that get a span: span name -> (module, attribute).  An
# attribute with a dot is a method patched on its class.
SPANS = {
    "cli.main": ("cycloperfect.cli", "main"),
    "search.sector_scan": ("cycloperfect.search", "sector_scan"),
    "mersenne.mersenne": ("cycloperfect.mersenne", "mersenne"),
    "mersenne.mersenne_element": ("cycloperfect.mersenne", "mersenne_element"),
    "cyclotomic.conjecture_records": ("cycloperfect.cyclotomic", "conjecture_records"),
    "cyclotomic.cyc_norm": ("cycloperfect.cyclotomic", "cyc_norm"),
    "divisors.classify": ("cycloperfect.divisors", "classify"),
    "divisors.sigma_from_factorization": (
        "cycloperfect.divisors",
        "sigma_from_factorization",
    ),
    "factorization.factor": ("cycloperfect.factorization", "factor"),
    "factorization.prime_above": ("cycloperfect.factorization", "prime_above"),
    "rational.factor_rational": ("cycloperfect.rational", "factor_rational"),
    "rational.is_rational_prime": ("cycloperfect.rational", "is_rational_prime"),
    "rational.factor_with_sieve": ("cycloperfect.rational", "factor_with_sieve"),
    "rational.smallest_prime_factor_sieve": (
        "cycloperfect.rational",
        "smallest_prime_factor_sieve",
    ),
    "rings.gcd": ("cycloperfect.rings", "gcd"),
    "rings.sector_canonical": ("cycloperfect.rings", "QuadInt.sector_canonical"),
}

# Spans whose results are also counted as hits: name -> predicate.
HIT_TESTS = {
    "mersenne.mersenne": lambda rec: rec.is_prime,
}

# Called too often for a span each; counted as calls and hits only, so their
# time stays in the caller's self time.
COUNTED = {
    "rings.exact_divide": (
        "cycloperfect.rings",
        "QuadInt.exact_divide",
        lambda q: q is not None,
    ),
}


class Tracer:
    """Records spans while ``active``; wrappers pass straight through otherwise."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id = array("H")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.calls: dict[str, int] = {}
        self.hits: dict[str, int] = {}
        self.active = False
        self._stack: list[int] = []

    def _name(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def span(self, name: str, fn, hit=None):
        """Wrap fn so that each active call records a span named ``name``."""
        nid = self._name(name)
        clock = time.perf_counter
        stack = self._stack
        self.hits.setdefault(name, 0)

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            sid = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.end.append(0.0)
            stack.append(sid)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[sid] = clock()
                stack.pop()
            if hit is not None and hit(result):
                self.hits[name] += 1
            return result

        traced.__wrapped__ = fn
        return traced

    def counter(self, name: str, fn, hit):
        """Wrap fn so that each active call is counted, and its hits."""
        self.calls.setdefault(name, 0)
        self.hits.setdefault(name, 0)

        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            if self.active:
                self.calls[name] += 1
                if hit(result):
                    self.hits[name] += 1
            return result

        counted.__wrapped__ = fn
        return counted

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        own = [e - s for s, e in zip(self.start, self.end)]
        out = list(own)
        for i, p in enumerate(self.parent):
            if p >= 0:
                out[p] -= own[i]
        return out

    def summary(self) -> dict:
        """Per span name: calls, self seconds and hits; plus the counters."""
        out = {name: {"calls": 0, "self_s": 0.0, "hits": self.hits[name]} for name in self.names}
        for i, s in enumerate(self.self_times()):
            row = out[self.names[self.name_id[i]]]
            row["calls"] += 1
            row["self_s"] += s
        for name, calls in self.calls.items():
            out[name] = {"calls": calls, "hits": self.hits[name]}
        return out

    def write(self, path: str) -> None:
        """One JSON header line, then the name, parent, start and end arrays."""
        header = {"names": self.names, "count": len(self.start)}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_id, self.parent, self.start, self.end):
                arr.tofile(fh)

    @staticmethod
    def read(path: str) -> "Tracer":
        t = Tracer()
        with open(path, "rb") as fh:
            header = json.loads(fh.readline())
            t.names = header["names"]
            for arr in (t.name_id, t.parent, t.start, t.end):
                arr.fromfile(fh, header["count"])
        return t


def _lookup(module: str, attr: str):
    owner = importlib.import_module(module)
    for part in attr.split(".")[:-1]:
        owner = getattr(owner, part)
    return owner, attr.split(".")[-1]


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Patch every binding of the traced functions; returns the undo list.

    Modules are imported with importlib because the package re-exports the
    function ``mersenne`` under the name of its module.
    """
    undo: list[tuple[object, str, object]] = []
    modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "cycloperfect"]

    def patch(owner_attr, make):
        owner, name = owner_attr
        original = owner.__dict__[name]
        wrapper = make(original)
        if isinstance(owner, type):
            undo.append((owner, name, original))
            setattr(owner, name, wrapper)
            return
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    undo.append((mod, key, original))
                    setattr(mod, key, wrapper)

    for name, (module, attr) in SPANS.items():
        patch(_lookup(module, attr), lambda fn, n=name: tracer.span(n, fn, HIT_TESTS.get(n)))
    for name, (module, attr, hit) in COUNTED.items():
        patch(_lookup(module, attr), lambda fn, n=name, h=hit: tracer.counter(n, fn, h))
    return undo


def uninstall(undo: list[tuple[object, str, object]]) -> None:
    for owner, key, original in reversed(undo):
        setattr(owner, key, original)
