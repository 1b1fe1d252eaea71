"""Every name a module lists in __all__ resolves on that module, and every import is used."""

from __future__ import annotations

import ast
import importlib
import pkgutil
from pathlib import Path
from typing import Callable

import pytest

import liftcomp

MODULES = ["liftcomp"] + [
    f"liftcomp.{m.name}" for m in pkgutil.iter_modules(liftcomp.__path__)
]
SOURCES = sorted(Path(liftcomp.__file__).parent.glob("*.py"))
TESTS = sorted(Path(__file__).parent.glob("*.py"))


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
        "bounds.joint_table", "inference.joint_table",
    }


def sites(source: str, match: Callable[[ast.AST], bool]) -> list[str]:
    """Where each node `match` accepts sits: its enclosing class and function names.

    Names are joined by "::" in the manner of pytest ids; "<module>" for
    a node outside any function or class.
    """
    found: list[str] = []

    def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            if match(child):
                found.append("::".join(scope) or "<module>")
            named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            visit(child, scope + (child.name,) if named else scope)

    visit(ast.parse(source), ())
    return found


def _names(node: ast.AST | None, name: str) -> bool:
    return name in (getattr(node, "id", None), getattr(node, "attr", None))


def calls_to(name: str) -> Callable[[ast.AST], bool]:
    return lambda node: isinstance(node, ast.Call) and _names(node.func, name)


def raises_of(name: str) -> Callable[[ast.AST], bool]:
    # `raise E(...)` names E in its call, `raise E` directly
    return lambda node: isinstance(node, ast.Raise) and _names(
        getattr(node.exc, "func", node.exc), name
    )


def raises_text(fragment: str) -> Callable[[ast.AST], bool]:
    # a raise whose message, plain or formatted, holds the fragment
    return lambda node: isinstance(node, ast.Raise) and any(
        isinstance(part, ast.Constant) and fragment in str(part.value)
        for part in ast.walk(node)
    )


def package_sites(
    match: Callable[[ast.AST], bool], texts: dict[str, str] | None = None
) -> list[str]:
    """sites over the package's modules, each as module.site; texts maps module to source."""
    if texts is None:
        texts = {p.stem: p.read_text() for p in SOURCES}
    return [f"{stem}.{site}" for stem, text in texts.items() for site in sites(text, match)]


def test_run_acp_is_called_only_from_outside_the_package():
    # run_eacp(fg, 0.0) is the library's one spelling of the ACP baseline;
    # run_acp stays for perfbench, and two tests pin it against that spelling
    defined = [
        p.stem for p in SOURCES for node in ast.walk(ast.parse(p.read_text()))
        if isinstance(node, ast.FunctionDef) and node.name == "run_acp"
    ]
    assert defined == ["eacp"]
    called = [
        f"{p.name}::{site}" for p in SOURCES + TESTS
        for site in sites(p.read_text(), calls_to("run_acp"))
    ]
    assert called == [
        "test_acceptance.py::test_06_zero_tolerance_reduces_to_exact_pipeline",
        "test_eacp.py::TestBaselineAgreement::test_eps_zero_matches_exact_baseline",
    ]
    exporting = [
        name for name in MODULES
        if "run_acp" in getattr(importlib.import_module(name), "__all__", [])
    ]
    assert exporting == []


def test_one_arity_cap_check():
    # both seedings search permutations through one enumerator, and the
    # cap is enforced there only
    assert package_sites(raises_of("ArityCapError")) == ["equivalence._permutations"]


# one site per rule: put_row is where a stack of rows grows its buffer,
# _check_target is where every evaluator checks its query's target,
# check_evidence is where Query and both pipeline stages check evidence's
# type, and joint_slabs is where both enumeration oracles get their joint,
# one bounded slab at a time
ONE_SITE = [
    (calls_to("empty_like"), "equivalence.put_row"),
    (raises_text("unknown query target"), "inference._check_target"),
    (raises_text("must be an Evidence"), "model.check_evidence"),
    (calls_to("joint_table"), "model.joint_slabs"),
]


@pytest.mark.parametrize(
    "match, site", ONE_SITE, ids=["row-buffer", "query-target", "evidence-type", "joint-slabs"]
)
def test_one_site_per_rule(match, site):
    assert package_sites(match) == [site]


def test_one_site_check_catches_a_second_copy():
    # each rule's old second copy, put back into a copy of its module
    texts = {p.stem: p.read_text() for p in SOURCES}
    texts["grouping"] += (
        "class _Group:\n"
        "    def add(self, member, table):\n"
        "        self._stacked = np.concatenate([self._stacked, np.empty_like(self._stacked)])\n"
    )
    texts["inference"] += (
        "def query_lifted_star(pfg, hub, q):\n"
        "    raise InvariantError(f'unknown query target {hub!r}')\n"
        "def query_enumerate(fg, q):\n"
        "    joint = joint_table(fg)\n"
    )
    texts["eacp"] += (
        "def run_eacp(fg, eps, evidence):\n"
        "    if not isinstance(evidence, Evidence):\n"
        "        raise InvariantError(f'evidence must be an Evidence, got {evidence!r}')\n"
    )
    (empty_like, _), (unknown_target, _), (evidence_type, _), (joint, _) = ONE_SITE
    assert package_sites(empty_like, texts) == ["equivalence.put_row", "grouping._Group::add"]
    assert package_sites(unknown_target, texts) == [
        "inference._check_target", "inference.query_lifted_star",
    ]
    assert package_sites(evidence_type, texts) == ["eacp.run_eacp", "model.check_evidence"]
    assert package_sites(joint, texts) == ["inference.query_enumerate", "model.joint_slabs"]


def test_site_check_catches_them():
    source = (
        "def f():\n"
        "    raise ArityCapError('cap')\n"
        "class C:\n"
        "    def g(self):\n"
        "        run_acp(fg)\n"
        "        raise errors.ArityCapError\n"
        "eacp.run_acp(fg)\n"
        "raise InvariantError('cap')\n"
    )
    assert sites(source, raises_of("ArityCapError")) == ["f", "C::g"]
    assert sites(source, calls_to("run_acp")) == ["C::g", "<module>"]


def test_noqa_import_check_catches_one():
    source = "import os  # noqa: F401\nfrom typing import Any, Mapping  # noqa: F401\n"
    assert noqa_imports(source) == ["os", "Any", "Mapping"]
    assert noqa_imports("import os\n") == []


def assert_lines(source: str) -> list[int]:
    """Lines holding an assert statement."""
    return [node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assert)]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    # python -O strips asserts; an invariant raises a typed error instead
    assert assert_lines(path.read_text()) == [], f"{path.name} checks with assert"


def test_assert_check_catches_one():
    assert assert_lines("x = 1\nassert x, 'x'\nif x:\n    assert x > 0\n") == [2, 4]
    assert assert_lines("assertion = 'assert x'\n") == []


def test_one_min_degree_walk():
    # variable elimination orders and plans in one walk over the model's
    # index: one heap loop in inference.py, and no separate order pass
    calls = {
        p.stem: sum(
            isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "heappop"
            for node in ast.walk(ast.parse(p.read_text()))
        )
        for p in SOURCES
    }
    assert {name: n for name, n in calls.items() if n} == {"inference": 1}
    assert not [p.name for p in SOURCES if "_min_degree_order" in p.read_text()]


_INDEX_LISTS = {"neighbours", "holders"}


def index_copies(source: str) -> list[int]:
    """Lines that copy an index's neighbours or holders into a list or set.

    A copy is list(...) or set(...) of `<x>.neighbours` or `<x>.holders`,
    of one of its entries, or of a name bound to either; map(list, ...)
    or map(set, ...) over one; or a comprehension over one.
    """
    tree = ast.parse(source)
    aliases = {
        target.id for node in ast.walk(tree) if isinstance(node, ast.Assign)
        and isinstance(node.value, ast.Attribute) and node.value.attr in _INDEX_LISTS
        for target in node.targets if isinstance(target, ast.Name)
    }

    def is_index_list(node: ast.AST) -> bool:
        if isinstance(node, ast.Subscript):
            node = node.value
        return (isinstance(node, ast.Attribute) and node.attr in _INDEX_LISTS) or (
            isinstance(node, ast.Name) and node.id in aliases
        )

    lines = []
    for node in ast.walk(tree):
        operands = []
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id in ("list", "set"):
                operands = node.args
            elif node.func.id == "map" and any(
                isinstance(a, ast.Name) and a.id in ("list", "set") for a in node.args[:1]
            ):
                operands = node.args[1:]
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            operands = [g.iter for g in node.generators]
        if any(map(is_index_list, operands)):
            lines.append(node.lineno)
    return sorted(lines)


def test_queries_copy_no_index_lists():
    # variable elimination reads the model's neighbours and holders and
    # keeps only what its walk changes: fill-in edges and messages
    source = (Path(liftcomp.__file__).parent / "inference.py").read_text()
    assert index_copies(source) == []


def test_index_copy_check_catches_them():
    source = (
        "holders = list(map(list, index.holders))\n"
        "adjacency = list(map(set, index.neighbours))\n"
        "nb = index.neighbours\n"
        "around = set(nb[v])\n"
        "held = [list(h) for h in fg._index.holders]\n"
        "ok = list(filter(live.__getitem__, index.holders[v])), map(len, nb)\n"
    )
    assert index_copies(source) == [1, 2, 4, 5]


@pytest.mark.parametrize("name", MODULES)
def test_index_is_not_exported(name):
    exported = getattr(importlib.import_module(name), "__all__", [])
    assert not {"_Index", "_index_scopes"}.intersection(exported)


def test_lifted_query_eliminates_once():
    # the lifted hub query finds its classes in one walk and eliminates
    # every class representative in one _eliminate call, outside any loop
    assert not [p.name for p in SOURCES if "_components" in p.read_text()]
    tree = ast.parse((Path(liftcomp.__file__).parent / "inference.py").read_text())
    (func,) = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "query_lifted_star"
    ]
    loops = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    eliminations = [
        node for node in ast.walk(func)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "_eliminate"
    ]
    assert len(eliminations) == 1
    assert not [
        loop for loop in ast.walk(func)
        if isinstance(loop, loops) and eliminations[0] in ast.walk(loop)
    ]
