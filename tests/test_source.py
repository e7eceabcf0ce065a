"""Rules on the package source itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "cycloperfect"


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
