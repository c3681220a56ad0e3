"""The benchmark harness under ``bench/`` imports the package by name; these
tests read its sources with ``ast``, without importing or running them, and
check that every name it takes from ``localmem`` still exists."""

import ast
import importlib
from pathlib import Path

import pytest

from localmem import schemas

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _localmem_imports():
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "localmem":
                for alias in node.names:
                    yield path.name, node.module, alias.name


def _resolves(module, name):
    owner = importlib.import_module(module)
    if hasattr(owner, name):
        return True
    try:
        importlib.import_module(f"{module}.{name}")
    except ImportError:
        return False
    return True


def test_bench_imports_from_localmem():
    imports = list(_localmem_imports())
    assert imports
    missing = [f"{f}: from {m} import {n}" for f, m, n in imports if not _resolves(m, n)]
    assert not missing


def _strings(node):
    """The string values an expression can take: a literal, or either branch
    of a conditional expression."""
    if isinstance(node, ast.IfExp):
        return _strings(node.body) | _strings(node.orelse)
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return {node.value}
    return set()


def _op_schemas(workload):
    """The schema names of every ``Op(...)`` that ``workloads.<workload>``
    reaches through the module's own functions, one set per ``Op``: the
    string passed as ``schema``, or those assigned to the variable passed."""
    tree = _tree(BENCH / "workloads.py")
    funcs = {f.name: f for f in tree.body if isinstance(f, ast.FunctionDef)}
    seen, todo, ops = set(), [workload], []
    while todo:
        name = todo.pop()
        if name in seen or name not in funcs:
            continue
        seen.add(name)
        assigned = {}
        for node in ast.walk(funcs[name]):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        assigned.setdefault(target.id, set()).update(_strings(node.value))
        for node in ast.walk(funcs[name]):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)):
                continue
            if node.func.id != "Op":
                todo.append(node.func.id)
                continue
            arg = next((k.value for k in node.keywords if k.arg == "schema"), None)
            arg = arg if arg is not None else node.args[3]
            ops.append(assigned.get(arg.id, set()) if isinstance(arg, ast.Name) else _strings(arg))
    return ops


@pytest.mark.parametrize("workload", ["paper", "wide"])
def test_workload_report_schemas_exist(workload):
    ops = _op_schemas(workload)
    assert ops
    for names in ops:
        assert names
        for name in names:
            assert isinstance(getattr(schemas, name, None), dict), f"schemas.{name}"
