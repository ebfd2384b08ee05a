"""The surface of ``src/occkit`` is what runs: every function, method and
class it defines is referenced from ``src/occkit`` or ``perfbench/``, every
import in ``src/occkit`` and ``tests/`` is used, every one in ``src/occkit``
is made at module level, every option a subcommand parses is read by its
handler, and every name perfbench's tracer binds exists in ``occkit``.

References are found by name, as an ``ast.Name``, an attribute or an
imported name, so a definition is kept alive by any use of its name,
including one of an unrelated variable that happens to share it.
"""

import argparse
import ast
import importlib.util
import inspect
import sys
from collections import Counter
from pathlib import Path

import pytest

from occkit.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]
SRC = sorted((ROOT / "src" / "occkit").glob("*.py"))
USERS = SRC + sorted((ROOT / "perfbench").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))


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


@pytest.mark.parametrize(
    "path", SRC + TESTS, ids=[p.name for p in SRC] + [f"tests/{p.name}" for p in TESTS]
)
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


def _reads(fn, name, functions, followed) -> set:
    """What ``fn`` reads of the namespace its variable ``name`` holds: each
    ``name.<attr>``, and each string passed in a call beside ``name`` (as
    ``getattr`` and ``_given`` take them). Calls that pass ``name`` to one of
    the module's ``functions`` are followed, each function once."""
    out = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == name:
            out.add(node.attr)
        if not isinstance(node, ast.Call):
            continue
        at = [i for i, arg in enumerate(node.args) if getattr(arg, "id", None) == name]
        if not at:
            continue
        out.update(arg.value for arg in node.args
                   if isinstance(arg, ast.Constant) and isinstance(arg.value, str))
        callee = functions.get(getattr(node.func, "id", None))
        if callee is not None and callee.name not in followed:
            followed.add(callee.name)
            out |= _reads(callee, callee.args.args[at[0]].arg, functions, followed)
    return out


def test_every_cli_option_is_read():
    functions = {
        node.name: node for node in _tree(ROOT / "src" / "occkit" / "cli.py").body
        if isinstance(node, ast.FunctionDef)
    }
    subparsers = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    unread = []
    for command, parser in subparsers.choices.items():
        handler = functions[parser.get_default("func").__name__]
        reads = _reads(handler, handler.args.args[0].arg, functions, {handler.name})
        unread += [f"{command} {action.option_strings[0]}" for action in parser._actions
                   if action.dest != "help" and action.dest not in reads]
    assert unread == []


def test_perfbench_tracer_binds_occkit_names(monkeypatch):
    # The tracer wraps each ``TARGETS`` function by name, and a count hook
    # reads the wrapped call's arguments by parameter name (``a["bins"]``),
    # so a renamed function or parameter breaks the benchmark's traced runs.
    path = ROOT / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # dataclasses look their module up
    spec.loader.exec_module(spans)
    hooks = {node.name: node for node in _tree(path).body if isinstance(node, ast.FunctionDef)}
    missing, reads = [], 0
    for module, func, _, hook in spans.TARGETS:
        fn = getattr(importlib.import_module(f"occkit.{module}"), func, None)
        if fn is None:
            missing.append(f"occkit.{module}.{func}")
        if fn is None or hook is None:
            continue
        node = hooks[hook.__name__]
        names = {n.slice.value for n in ast.walk(node) if isinstance(n, ast.Subscript)
                 and getattr(n.value, "id", None) == node.args.args[0].arg}
        params = inspect.signature(fn).parameters
        missing += [f"occkit.{module}.{func}({name})" for name in names if name not in params]
        reads += len(names)
    assert missing == [] and reads > 0
