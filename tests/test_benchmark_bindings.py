"""Every polymerlab name the benchmark binds still resolves.

``perfbench/`` is read here as source, never imported or run: its tracer
wraps the functions its ``REPORT`` names and sizes their work from
arguments read by name, and its workloads and runner reach the package
through ``<module>.<name>`` attributes.  A rename in the package that
the benchmark still uses fails this test instead of a benchmark run.
"""

import ast
import importlib
import inspect
from pathlib import Path


BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _tree(name):
    return ast.parse((BENCH / name).read_text())


def _assigned_dict(tree, name):
    (table,) = [
        node.value for node in tree.body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == name
    ]
    return table


def _resolve(qualified):
    module, name = qualified.split(".")
    return getattr(importlib.import_module(f"polymerlab.{module}"), name)


def test_tracer_report_names_resolve():
    keys = [key.value for key in _assigned_dict(_tree("tracer.py"), "REPORT").keys]
    assert len(keys) >= 10
    assert [key for key in keys if not callable(_resolve(key))] == []


def test_tracer_work_reads_parameters_of_the_traced_function():
    tree = _tree("tracer.py")
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    work = _assigned_dict(tree, "WORK")
    read = set()
    for key, value in zip(work.keys, work.values):
        fn = functions[value.id]
        arguments = fn.args.args[0].arg  # the bound arguments, by name
        names = {
            node.slice.value for node in ast.walk(fn)
            if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
            and node.value.id == arguments
        }
        params = inspect.signature(_resolve(key.value)).parameters
        assert names <= set(params), key.value
        read |= names
    assert read == {"n", "h", "field", "constraint", "points", "replicas", "out_dir"}


def _package_attributes(tree):
    """(module, name) for every attribute of a polymerlab module the source
    reads or binds, and for every name it imports from one."""
    modules, found = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update((a.asname or a.name, a.name) for a in node.names
                           if a.name.split(".")[0] == "polymerlab")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("polymerlab"):
            if node.module == "polymerlab":
                modules.update((a.asname or a.name, f"polymerlab.{a.name}") for a in node.names)
            else:
                found += [(node.module, a.name) for a in node.names]
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            found.append((modules[node.value.id], node.attr))
    return found


def test_workload_and_runner_names_resolve():
    found = []
    for name in ("workloads.py", "run.py"):
        found += _package_attributes(_tree(name))
    modules = {module for module, _ in found}
    assert {"polymerlab.cli", "polymerlab.experiments", "polymerlab.regimes"} <= modules
    missing = [f"{module}.{name}" for module, name in found
               if not hasattr(importlib.import_module(module), name)]
    assert missing == []
