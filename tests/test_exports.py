"""Every name a module lists in __all__ resolves on that module."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import liftcomp

MODULES = ["liftcomp"] + [
    f"liftcomp.{m.name}" for m in pkgutil.iter_modules(liftcomp.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), f"{name}.__all__ repeats a name"
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ lists undefined names {missing}"
