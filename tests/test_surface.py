"""The surface of ``src/occkit`` is what runs: every function, method and
class it defines is referenced from ``src/occkit`` or ``perfbench/``, and
every import in ``src/occkit`` is used and made at module level.

References are found by name, as an ``ast.Name``, an attribute or an
imported name, so a definition is kept alive by any use of its name,
including one of an unrelated variable that happens to share it.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = sorted((ROOT / "src" / "occkit").glob("*.py"))
USERS = SRC + sorted((ROOT / "perfbench").glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _names(node) -> Counter:
    """How often each name is referenced inside ``node``."""
    out = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out[n.id] += 1
        elif isinstance(n, ast.Attribute):
            out[n.attr] += 1
        elif isinstance(n, ast.ImportFrom):
            out.update(alias.name for alias in n.names)
    return out


def _definitions():
    """(module, definition node) of every function, method and class in src/,
    dunder methods excepted: Python calls those."""
    for path in SRC:
        for node in ast.walk(_tree(path)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    yield path.stem, node


def test_every_definition_is_referenced():
    refs = Counter()
    for path in USERS:
        refs.update(_names(_tree(path)))
    # A definition's references inside its own body (recursion) keep it no more alive.
    unused = sorted(
        f"{module}.{node.name}"
        for module, node in _definitions()
        if refs[node.name] - _names(node)[node.name] == 0
    )
    assert unused == []


def _imported(tree):
    """(bound name, line) of every import in a module, ``__future__`` excepted."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


@pytest.mark.parametrize("path", SRC, ids=[p.name for p in SRC])
def test_every_import_is_used(path):
    tree = _tree(path)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    assert [f"{name} (line {line})" for name, line in _imported(tree) if name not in used] == []


@pytest.mark.parametrize("path", SRC, ids=[p.name for p in SRC])
def test_imports_are_at_module_level(path):
    inside = [
        f"{fn.name} (line {node.lineno})"
        for fn in ast.walk(_tree(path))
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert inside == []
