"""The package runs on the standard library and its one runtime dependency in
``pyproject.toml``: numpy. These tests read the sources under
``src/localmem`` with ``ast``, without importing them, and check that every
import names one of those or the package itself; scipy and jsonschema, for
two, are test extras only. Fresh interpreters check that importing the CLI
loads neither jsonschema nor the process pool's modules, and that the CLI
runs and refuses a bad config with jsonschema unimportable."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "localmem"

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "localmem"}


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
        "import jsonschema\n": "jsonschema",
        "from jsonschema import Draft202012Validator\n": "jsonschema",
        "import scipy.special\n": "scipy",
        "from scipy.special import betainc\n": "scipy",
        "def f():\n    import pandas as pd\n": "pandas",
    }
    for source, module in flagged.items():
        assert [m for m, _ in _imported(ast.parse(source))] == [module], source
        assert module not in ALLOWED
    source = (
        "from __future__ import annotations\nimport math, numpy as np\n"
        "from . import errors\nfrom .numerics import as_int\nfrom localmem.errors import DomainError\n"
    )
    found = [m for m, _ in _imported(ast.parse(source))]
    assert found == ["__future__", "math", "numpy", "localmem"]
    assert set(found) <= ALLOWED


def _fresh(script, cwd=None):
    """Run script in a fresh interpreter that imports the package from src."""
    # The pytest pythonpath setting does not reach a subprocess.
    src = str(SRC.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, cwd=cwd)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_cli_import_leaves_out_jsonschema_and_the_process_pool():
    # concurrent.futures.process pulls in multiprocessing, socket and
    # logging; only a run that starts a pool should pay for them. Configs
    # are checked by schemas.schema_errors, so jsonschema is never loaded.
    script = (
        "import sys\n"
        "import localmem.cli\n"
        "print(sorted(m for m in ('concurrent.futures', 'multiprocessing', 'jsonschema') if m in sys.modules))\n"
    )
    assert _fresh(script)[-1] == "[]"


def test_cli_runs_without_jsonschema(tmp_path):
    # None in sys.modules makes every import of jsonschema raise ImportError.
    spec = {"baskets": 2, "max_sizes": 8, "theta0": 0.15, "theta1": 0.45, "delta": 1.0, "lambda": 0.9, "stages": 1}
    (tmp_path / "sim.json").write_text(json.dumps({"spec": spec, "n_sims": 20, "seed": 5}))
    (tmp_path / "typo.json").write_text(json.dumps({"x": [1], "n": [4], "delta": 0.0, "thetaO": 0.15}))
    script = (
        "import sys\n"
        "sys.modules['jsonschema'] = None\n"
        "from localmem.cli import main\n"
        "print(main(['simulate', '--config', 'sim.json', '--out', 'sim']))\n"
        "print(main(['analyze', '--config', 'typo.json', '--out', 'typo']))\n"
    )
    assert _fresh(script, cwd=tmp_path)[-2:] == ["0", "2"]
    assert (tmp_path / "sim" / "simulation.json").is_file()
    assert not (tmp_path / "typo").exists()
