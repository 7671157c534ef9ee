"""Every public name a modestop module exports must exist, no module in the
package or the tests imports a name it never uses, every top-level name the
package defines is read somewhere in the package, the tests or perfbench,
and each input rule the drivers share is stated once."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import modestop

MODULES = ["modestop"] + [
    f"modestop.{info.name}" for info in pkgutil.iter_modules(modestop.__path__)
]


def test_all_modules_listed():
    assert {"modestop.stopping", "modestop.instances", "modestop.__main__"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


@pytest.mark.parametrize("name", MODULES)
def test_star_import(name):
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    for attr in getattr(importlib.import_module(name), "__all__", ()):
        assert attr in namespace


SOURCES = sorted(Path(modestop.__file__).parent.glob("*.py")) + sorted(
    Path(__file__).parent.glob("*.py")
)


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads, skipping ``from __future__``
    and lines marked ``# noqa: F401``; a name in ``__all__`` counts as read."""
    lines = source.splitlines()
    imported, read = {}, set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "__all__":
            read.update(ast.literal_eval(node.value))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            noqa = "# noqa: F401" in lines[node.lineno - 1]
            if noqa or getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    return [f"{name} (line {line})" for name, line in imported.items() if name not in read]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: f"{path.parent.name}/{path.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_check_sees_an_unused_import():
    source = "import math\nimport os  # noqa: F401\nfrom json import dumps, loads\nloads('1')\n"
    assert unused_imports(source) == ["math (line 1)", "dumps (line 3)"]


READERS = SOURCES + sorted((Path(__file__).parent.parent / "perfbench").glob("*.py"))


def top_level_definitions(source: str) -> dict[str, int]:
    """The line of every top-level def, class and assigned name, dunders
    such as ``__all__`` skipped."""
    defined = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        dunder = [name for name in names if name.startswith("__") and name.endswith("__")]
        defined.update((name, node.lineno) for name in names if name not in dunder)
    return defined


def read_names(sources) -> set[str]:
    """Every name loaded, and every attribute read, in the sources; neither
    a listing in ``__all__`` nor an import counts as a read."""
    read = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return read


def test_no_unused_exports():
    read = read_names(path.read_text(encoding="utf-8") for path in READERS)
    unused = [
        f"{path.name}: {name} (line {line})"
        for path in SOURCES
        if path.parent.name == "modestop"
        for name, line in top_level_definitions(path.read_text(encoding="utf-8")).items()
        if name not in read
    ]
    assert unused == []


def test_unused_export_check_sees_an_unused_definition():
    source = "A, B = 1, 2\n__all__ = ['f']\ndef f():\n    return A\nclass C:\n    pass\n"
    defined = top_level_definitions(source)
    assert defined == {"A": 1, "B": 1, "f": 3, "C": 5}
    assert sorted(set(defined) - read_names([source])) == ["B", "C", "f"]


PACKAGE = [path for path in SOURCES if path.parent.name == "modestop"]


def statements_stating(phrase: str, sources: dict[str, str]) -> list[str]:
    """Every simple statement (no compound one, whose body holds others)
    with a string literal or f-string part that holds phrase, as name:line."""
    found = []
    for name, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.stmt) and not hasattr(node, "body"):
                texts = [
                    n.value for n in ast.walk(node)
                    if isinstance(n, ast.Constant) and isinstance(n.value, str)
                ]
                if any(phrase in text for text in texts):
                    found.append(f"{name}:{node.lineno}")
    return found


@pytest.mark.parametrize("phrase", ["must lie in (0, 1)", "is listed twice", "expected one of"])
def test_each_input_rule_is_stated_once(phrase):
    # the probability, repeat and choice rules live in instances, beside the
    # count rule
    sources = {path.name: path.read_text(encoding="utf-8") for path in PACKAGE}
    found = statements_stating(phrase, sources)
    assert len(found) == 1 and found[0].startswith("instances.py:"), found


def test_old_input_checks_stay_gone():
    defined = set()
    for path in PACKAGE:
        defined.update(top_level_definitions(path.read_text(encoding="utf-8")))
    old = {"_check_limits", "_check_at_least", "_check_delta", "_check_k", "_validate",
           "_check_policy"}
    assert defined & old == set()


def test_statement_check_sees_every_statement():
    source = (
        'def f(x):\n    """x must lie in (0, 1)"""\n    if x:\n'
        '        raise ValueError(f"{x} must lie in (0, 1), got {x}")\n'
        'MESSAGE = "p must lie in (0, 1)"\n'
    )
    assert sorted(statements_stating("must lie in (0, 1)", {"m": source})) == ["m:2", "m:4", "m:5"]
