"""Source-level checks: invariants are explicit raises, never ``assert``.

``python -O`` strips assert statements, so a check written as one
silently disappears under optimization.
"""

import ast
from pathlib import Path

import polymerlab

SOURCES = sorted(Path(polymerlab.__file__).parent.glob("*.py"))


def test_no_assert_statements_in_package():
    assert len(SOURCES) >= 7
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert found == []
