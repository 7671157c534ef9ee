"""Every public name a modestop module exports must exist."""

import importlib
import pkgutil

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
