"""Every public name a modestop module exports must exist, and no module
in the package or the tests imports a name it never uses."""

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
