"""The package runs on the standard library and its runtime dependencies in
``pyproject.toml``: numpy and jsonschema. These tests read the sources under
``src/localmem`` with ``ast``, without importing them, and check that every
import names one of those or the package itself; scipy, for one, is a test
extra only."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "localmem"

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "jsonschema", "localmem"}


def _imported(tree):
    """(top-level module, node) for every absolute import; a relative import
    is the package itself."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0], node
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0], node


def _violations():
    seen, bad = 0, []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for module, node in _imported(tree):
            seen += 1
            if module not in ALLOWED:
                bad.append(f"{path.name}:{node.lineno}: imports {module}")
    return seen, bad


def test_only_runtime_dependencies_are_imported():
    seen, bad = _violations()
    assert seen >= 10
    assert not bad


def test_checker_flags_other_modules():
    flagged = {
        "import scipy.special\n": "scipy",
        "from scipy.special import betainc\n": "scipy",
        "def f():\n    import pandas as pd\n": "pandas",
    }
    for source, module in flagged.items():
        assert [m for m, _ in _imported(ast.parse(source))] == [module], source
        assert module not in ALLOWED
    source = (
        "from __future__ import annotations\nimport math, numpy as np\nimport jsonschema\n"
        "from . import errors\nfrom .numerics import as_int\nfrom localmem.errors import DomainError\n"
    )
    found = [m for m, _ in _imported(ast.parse(source))]
    assert found == ["__future__", "math", "numpy", "jsonschema", "localmem"]
    assert set(found) <= ALLOWED
