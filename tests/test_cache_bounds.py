"""Every process-wide cache in the package states its bound. These tests read
the sources under ``src/localmem`` with ``ast``, without importing them, and
check that each ``functools.lru_cache`` is called with a ``maxsize`` other
than ``None`` and that ``functools.cache``, which has no bound, is not used."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "localmem"


def _cache_refs(tree):
    """(kind, node) for every reference to ``functools.lru_cache`` or
    ``functools.cache``: ``"call"`` with the Call node when lru_cache is
    called, ``"bare"`` for any other reference to lru_cache, ``"cache"`` for
    functools.cache, by attribute or by imported name."""
    modules, names = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {a.asname or a.name for a in node.names if a.name == "functools"}
        elif isinstance(node, ast.ImportFrom) and node.module == "functools":
            names |= {a.asname or a.name: a.name for a in node.names}

    def kind(expr):
        if isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name):
            if expr.value.id in modules:
                return expr.attr
        if isinstance(expr, ast.Name):
            return names.get(expr.id)
        return None

    called = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and kind(node.func) == "lru_cache":
            called.add(id(node.func))
            yield "call", node
    for node in ast.walk(tree):
        name = kind(node) if isinstance(node, (ast.Attribute, ast.Name)) else None
        if name == "lru_cache" and id(node) not in called:
            yield "bare", node
        elif name == "cache":
            yield "cache", node


def _maxsize(call):
    for k in call.keywords:
        if k.arg == "maxsize":
            return k.value
    return call.args[0] if call.args else None


def _violations():
    calls, bad = 0, []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for kind, node in _cache_refs(tree):
            where = f"{path.name}:{node.lineno}"
            if kind == "call":
                calls += 1
                size = _maxsize(node)
                if size is None or (isinstance(size, ast.Constant) and size.value is None):
                    bad.append(f"{where}: lru_cache without a maxsize")
            elif kind == "bare":
                bad.append(f"{where}: lru_cache without a maxsize")
            else:
                bad.append(f"{where}: functools.cache has no bound")
    return calls, bad


def test_every_lru_cache_has_a_maxsize():
    calls, bad = _violations()
    assert calls >= 2  # the partition enumeration and the engine layout
    assert not bad


def test_checker_flags_unbounded_caches():
    sources = {
        "import functools\n@functools.lru_cache\ndef f(): pass\n": "bare",
        "import functools\n@functools.lru_cache(maxsize=None)\ndef f(): pass\n": "call",
        "from functools import lru_cache as lc\n@lc(None)\ndef f(): pass\n": "call",
        "import functools as ft\n@ft.cache\ndef f(): pass\n": "cache",
        "from functools import cache\nf = cache(len)\n": "cache",
    }
    for source, kind in sources.items():
        refs = list(_cache_refs(ast.parse(source)))
        assert [k for k, _ in refs] == [kind], source
        if kind == "call":
            size = _maxsize(refs[0][1])
            assert size is None or size.value is None
