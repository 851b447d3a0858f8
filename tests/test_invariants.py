"""Source-level checks on the package.

Invariants are explicit raises, never ``assert``: ``python -O`` strips
assert statements, so a check written as one silently disappears under
optimization.  The log-domain walk step has one definition, the
transfer kernel in ``polymer``, so a second copy cannot drift from it.
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


def _functions_calling(tree, attr):
    """Names of the module-level functions whose body calls np.<attr>."""
    names = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and any(
            isinstance(call, ast.Call)
            and isinstance(call.func, ast.Attribute)
            and call.func.attr == attr
            and isinstance(call.func.value, ast.Name)
            and call.func.value.id == "np"
            for call in ast.walk(node)
        ):
            names.append(node.name)
    return names


def test_one_transfer_step_kernel():
    removed = {"_spread", "_transfer_free", "_transfer_window"}
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        defined = {
            node.name for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        assert not defined & removed, path.name
    polymer = Path(polymerlab.__file__).parent / "polymer.py"
    assert _functions_calling(ast.parse(polymer.read_text()), "logaddexp") == ["_transfer"]
