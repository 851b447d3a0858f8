"""Package definitions that no command, campaign or module-level statement reaches.

Run from anywhere:

    python tools/src_reach.py

It reads the ``src/polymerlab`` beside this directory and prints each
unreached name on its own line, qualified by module.  Stdlib only.

The walk is by name, so it over-approximates what runs:
- the nodes are the module-level functions and classes and the methods
  of module-level classes; dunder names are no nodes, so a dunder
  method is part of its class, and a nested function or class is part
  of the definition that encloses it;
- a node uses every ``Name`` id and ``Attribute`` attr in its body, and
  a used name reaches every node of that name, in any module;
- the roots are ``main``, ``run_experiment``, ``write_outputs`` and
  ``run_from_file``, and every module-level statement that is not a
  def, a class or an import.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "polymerlab"
ROOTS = ("main", "run_experiment", "write_outputs", "run_from_file")
_METHODS = (ast.FunctionDef, ast.AsyncFunctionDef)
_DEFS = (*_METHODS, ast.ClassDef)
_IMPORTS = (ast.Import, ast.ImportFrom)


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _uses(tree) -> set:
    """Every Name id and Attribute attr anywhere in ``tree``."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute))
    }


def _nodes(module: str, tree: ast.Module):
    """(qualified name, bare name, used names) of each node, and the
    names the module's root statements use."""
    nodes, rooted = [], set()
    for stmt in tree.body:
        if isinstance(stmt, _IMPORTS):
            continue
        if not isinstance(stmt, _DEFS):
            rooted |= _uses(stmt)
            continue
        if _dunder(stmt.name):
            continue
        if isinstance(stmt, ast.ClassDef):
            used = set().union(*map(_uses, (*stmt.decorator_list, *stmt.bases, *stmt.keywords)))
            for part in stmt.body:
                if isinstance(part, _METHODS) and not _dunder(part.name):
                    nodes.append((f"{module}.{stmt.name}.{part.name}", part.name, _uses(part)))
                else:
                    used |= _uses(part)
        else:
            used = _uses(stmt)
        nodes.append((f"{module}.{stmt.name}", stmt.name, used))
    return nodes, rooted


def unreached(package: Path = PACKAGE) -> list:
    """Qualified names of the nodes the walk does not reach, sorted."""
    nodes, seen = [], set(ROOTS)
    for path in sorted(package.glob("*.py")):
        found, rooted = _nodes(path.stem, ast.parse(path.read_text(), filename=str(path)))
        nodes += found
        seen |= rooted
    reached, todo = set(), list(seen)
    while todo:  # each name is popped once, so each node is reached once
        name = todo.pop()
        for qualified, bare, used in nodes:
            if bare == name:
                reached.add(qualified)
                todo += used - seen
                seen |= used
    return sorted(qualified for qualified, _, _ in nodes if qualified not in reached)


if __name__ == "__main__":
    print("\n".join(unreached()))
