"""Size of the package source: lines, AST statements and docstring lines.

Run from the repository root:

    python tools/src_size.py [DIR]

DIR defaults to ``src/polymerlab``.  For each ``*.py`` file, and in
total, it prints the line count, the number of ``ast.stmt`` nodes and
the lines spanned by module, class and function docstrings.  Stdlib
only.
"""

import ast
import sys
from pathlib import Path

_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def measure(text: str):
    """(lines, statements, docstring lines) of one module's source."""
    tree = ast.parse(text)
    statements = sum(isinstance(node, ast.stmt) for node in ast.walk(tree))
    docstring_lines = 0
    for node in ast.walk(tree):
        if isinstance(node, _DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            docstring_lines += doc.end_lineno - doc.lineno + 1
    return len(text.splitlines()), statements, docstring_lines


def main(argv) -> int:
    root = Path(argv[0] if argv else "src/polymerlab")
    paths = sorted(root.glob("*.py"))
    if not paths:
        print(f"no Python files in {root}", file=sys.stderr)
        return 2
    rows = [(path.stem, *measure(path.read_text())) for path in paths]
    rows.append(("total", *(sum(column) for column in list(zip(*rows))[1:])))
    width = max(len(name) for name, *_ in rows)
    print(f"{'file':<{width}}  {'lines':>6}  {'statements':>10}  {'docstring lines':>15}")
    for name, lines, statements, docstring_lines in rows:
        print(f"{name:<{width}}  {lines:>6}  {statements:>10}  {docstring_lines:>15}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
