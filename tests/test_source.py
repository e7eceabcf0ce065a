"""Rules on the package source itself."""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "cycloperfect"


def test_no_assert_or_debug_in_package():
    # invariants raise real exceptions, so they still hold under python -O
    paths = sorted(SRC.glob("*.py"))
    assert paths
    found = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert) or (
                isinstance(node, ast.Name) and node.id == "__debug__"
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_every_exported_name_resolves():
    import cycloperfect

    missing = [name for name in cycloperfect.__all__ if not hasattr(cycloperfect, name)]
    assert missing == []
    assert len(set(cycloperfect.__all__)) == len(cycloperfect.__all__)


def test_every_traced_name_resolves():
    # perfbench/tracing.py wraps each (module, attribute) of SPANS and COUNTED,
    # so a layer that is renamed or deleted breaks the benchmark's traced pass
    path = ROOT / "perfbench" / "tracing.py"
    targets = []
    for node in ast.parse(path.read_text(), str(path)).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id in ("SPANS", "COUNTED") for t in node.targets
        ):
            for value in node.value.values:
                targets.append((value.elts[0].value, value.elts[1].value))
    assert len(targets) >= 17
    missing = []
    for module, attr in targets:
        owner = importlib.import_module(module)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if owner is None:
            missing.append(f"{module}.{attr}")
    assert missing == []


def test_ring_formulas_read_the_ring_only_through_its_attributes():
    # both rings are Z[theta] with theta^2 = -1 - t*theta, so each ring
    # formula is written once, in t: these function bodies read ring.t and
    # the other member attributes, and never test which ring they have
    search_layers = {
        "strip_points",
        "count_lattice_points",
        "_prime_rows",
        "_finding",
        "_walk_chunk",
        "_every_class",
    }
    layers = {"rings.py": None, "factorization.py": None, "search.py": search_layers}
    banned = {"GAUSSIAN", "EISENSTEIN", "gaussian", "eisenstein"}
    found, seen = [], set()
    for filename, names in layers.items():
        for func in ast.walk(ast.parse((SRC / filename).read_text(), filename)):
            if isinstance(func, ast.FunctionDef) and (names is None or func.name in names):
                seen.add(func.name)
                for node in ast.walk(func):
                    name = getattr(node, "attr", getattr(node, "id", getattr(node, "arg", None)))
                    if name in banned:
                        found.append(f"{filename}:{node.lineno} {func.name} reads {name}")
    assert search_layers <= seen
    assert found == []
