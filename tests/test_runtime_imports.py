"""The package runs on the standard library and its runtime dependencies in
``pyproject.toml``: numpy and jsonschema. These tests read the sources under
``src/localmem`` with ``ast``, without importing them, and check that every
import names one of those or the package itself; scipy, for one, is a test
extra only. One more test imports the CLI in a fresh interpreter and checks
that the process pool's modules stay out of a start-up."""

import ast
import os
import subprocess
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


def test_cli_import_leaves_out_the_process_pool():
    # concurrent.futures.process pulls in multiprocessing, socket and
    # logging; only a run that starts a pool should pay for them.
    script = (
        "import sys\n"
        "import localmem.cli\n"
        "print(sorted(m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules))\n"
    )
    # The pytest pythonpath setting does not reach a subprocess.
    src = str(SRC.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
