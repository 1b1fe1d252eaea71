"""Every name a module lists in __all__ resolves on that module, and every import is used."""

from __future__ import annotations

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import liftcomp

MODULES = ["liftcomp"] + [
    f"liftcomp.{m.name}" for m in pkgutil.iter_modules(liftcomp.__path__)
]
SOURCES = sorted(Path(liftcomp.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), f"{name}.__all__ repeats a name"
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ lists undefined names {missing}"


def _imports(tree: ast.Module) -> dict[str, int]:
    """Each name the module imports, with the line it is imported on."""
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = alias.lineno
    return imported


def noqa_imports(source: str) -> list[str]:
    """Imported names whose line is marked noqa: F401."""
    lines = source.splitlines()
    return [
        name for name, line in _imports(ast.parse(source)).items()
        if "# noqa: F401" in lines[line - 1]
    ]


def unused_imports(source: str) -> list[str]:
    """Imported names neither referenced, listed in __all__, nor marked noqa: F401."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = _imports(tree)
    used = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [
        name for name, line in imported.items()
        if name not in used and "# noqa: F401" not in lines[line - 1]
    ]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    unused = unused_imports(path.read_text())
    assert not unused, f"{path.name} imports {unused} and never uses them"


def test_unused_import_check_catches_one():
    source = "import os\nfrom typing import Any, Mapping\n\nx: Mapping = {}\n"
    assert unused_imports(source) == ["os", "Any"]
    assert unused_imports("import os  # noqa: F401\n") == []
    assert unused_imports('import os\n__all__ = ["os"]\n') == []


def test_noqa_imports_are_the_perfbench_rebinds():
    # perfbench/run.py counts calls by rebinding these module attributes;
    # any other import kept only by its noqa mark is a hidden re-export
    found = {f"{p.stem}.{name}" for p in SOURCES for name in noqa_imports(p.read_text())}
    assert found == {
        "grouping.eps_equiv_arrays", "eacp.eps_equiv_arrays", "acp.eps_equiv_factors",
    }


def test_noqa_import_check_catches_one():
    source = "import os  # noqa: F401\nfrom typing import Any, Mapping  # noqa: F401\n"
    assert noqa_imports(source) == ["os", "Any", "Mapping"]
    assert noqa_imports("import os\n") == []
