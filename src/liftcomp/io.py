"""JSON serialization for models and parfactor graphs, and parsing of evidence files.

Model files look like

    {"rvs": [{"name": "Rev", "range": ["high", "low"]}, ...],
     "factors": [{"name": "f1", "args": ["SalA", "Rev"],
                  "table": [0.75, 0.33, 0.48, 0.22]}, ...]}

with tables listed flat in row-major order, last argument fastest.
Evidence files are {"evidence": [{"rv": "Rev", "value": "high"}, ...]}.

Parfactor-graph files list tables the same way. member_args carries each
member's arguments in its group's frame, the order that reads the
parfactor's table, so a ground model with the same potential can be
rebuilt from the file alone (acp.ground); crv is null for a parfactor
without counted positions.

Floats are emitted via Python's shortest round-trip repr, so
load(save(fg)) reproduces every table bit-exactly.

Malformed input raises ModelFormatError with a JSON-path-style pointer
to the offending field. The loaders check JSON syntax, shape and types,
and load_fg what it needs to build each table: one declaration per RV
name (a repeat is reported at $ before any table is sized), declared
arguments, table length, numbers within float64. Model validity (range
sizes, distinct labels, at least one and distinct arguments, unique
factor names, positive finite entries) is the model constructors' rule;
_build reports their InvariantError at rvs[i] or factors[i], or at $
for rules spanning entries.
"""

from __future__ import annotations

import json
import math
from typing import Any, Callable, TypeVar

import numpy as np

from .acp import ParfactorGraph
from .errors import InvariantError, ModelFormatError
from .model import Evidence, Factor, FactorGraph, RandomVariable

__all__ = ["load_fg", "save_fg", "load_evidence", "pfg_to_json", "save_pfg"]

T = TypeVar("T")


def _fail(path: str, message: str) -> None:
    raise ModelFormatError(f"{path}: {message}")


def _expect(value: Any, kind: type, path: str, what: str) -> Any:
    if not isinstance(value, kind) or isinstance(value, bool):
        _fail(path, f"expected {what}, got {type(value).__name__}")
    return value


def _expect_str(value: Any, path: str) -> str:
    s = _expect(value, str, path, "a string")
    if not s:
        _fail(path, "must be non-empty")
    return s


def _parse_json(data: bytes | str, what: str) -> Any:
    if not isinstance(data, (str, bytes, bytearray)):
        raise ModelFormatError(f"{what}: expected text or bytes, got {type(data).__name__}")
    if isinstance(data, (bytes, bytearray)):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ModelFormatError(f"{what}: not valid UTF-8 ({exc})") from None
    try:
        return json.loads(data)
    except RecursionError:
        raise ModelFormatError(f"{what}: invalid JSON (nested too deeply)") from None
    except ValueError as exc:
        # JSONDecodeError, and integer literals past Python's digit limit
        raise ModelFormatError(f"{what}: invalid JSON ({exc})") from None


def _build(path: str, make: Callable[..., T], *args: Any, at: int | None = None) -> T:
    """make(*args), with the model's InvariantError reported at `path`, or path[at]."""
    try:
        return make(*args)
    except InvariantError as exc:
        where = path if at is None else f"{path}[{at}]"
        raise ModelFormatError(f"{where}: {exc}") from None


def _fail_table_entry(table_raw: list, path: str) -> None:
    """Fail at the first entry that is not a number or leaves float64."""
    for j, v in enumerate(table_raw):
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            _fail(f"{path}[{j}]", "expected a number")
        try:
            float(v)
        except OverflowError:
            _fail(f"{path}[{j}]", "number outside the float64 range")


def load_fg(data: bytes | str) -> FactorGraph:
    """Parse a model file; raises ModelFormatError with a field path on errors."""
    doc = _parse_json(data, "model")
    _expect(doc, dict, "$", "an object")
    for key in ("rvs", "factors"):
        if key not in doc:
            _fail("$", f"missing key {key!r}")
    rvs_raw = _expect(doc["rvs"], list, "rvs", "an array")
    factors_raw = _expect(doc["factors"], list, "factors", "an array")

    # fields are checked inline; a path is formatted only for a failing one
    rvs: list[RandomVariable] = []
    sizes: dict[str, int] = {}
    for i, entry in enumerate(rvs_raw):
        if type(entry) is not dict:
            _expect(entry, dict, f"rvs[{i}]", "an object")
        name = entry.get("name")
        if type(name) is not str or not name:
            _expect_str(name, f"rvs[{i}].name")
        labels = entry.get("range")
        if type(labels) is not list:
            _expect(labels, list, f"rvs[{i}].range", "an array")
        if not {str}.issuperset(map(type, labels)) or "" in labels:
            for j, label in enumerate(labels):
                _expect_str(label, f"rvs[{i}].range[{j}]")
        rv = _build("rvs", RandomVariable, name, tuple(labels), at=i)
        if name in sizes:
            _fail("$", f"duplicate rv name {name!r}")
        sizes[name] = rv.size
        rvs.append(rv)

    factors: list[Factor] = []
    for i, entry in enumerate(factors_raw):
        if type(entry) is not dict:
            _expect(entry, dict, f"factors[{i}]", "an object")
        name = entry.get("name")
        if type(name) is not str or not name:
            _expect_str(name, f"factors[{i}].name")
        args = entry.get("args")
        if type(args) is not list:
            _expect(args, list, f"factors[{i}].args", "an array")
        try:
            shape = [sizes[a] for a in args]
        except (KeyError, TypeError):
            shape = None
        if shape is None:
            # every argument is a string before any is looked up
            for j, a in enumerate(args):
                _expect_str(a, f"factors[{i}].args[{j}]")
            j = next(j for j, a in enumerate(args) if a not in sizes)
            _fail(f"factors[{i}].args[{j}]", f"undeclared rv {args[j]!r}")
        table_raw = entry.get("table")
        if type(table_raw) is not list:
            _expect(table_raw, list, f"factors[{i}].table", "an array")
        expected_len = math.prod(shape)
        if len(table_raw) != expected_len:
            _fail(
                f"factors[{i}].table",
                f"length {len(table_raw)} != expected {expected_len} "
                f"(product of argument range sizes)",
            )
        # numpy would convert a bool, a numeric string or None too, so it
        # converts only tables of numbers; an int past float64 overflows.
        # Either way some entry is bad, and the check names the first one.
        try:
            if not {int, float}.issuperset(map(type, table_raw)):
                raise TypeError("a table entry is not a number")
            table = np.array(table_raw, dtype=np.float64)
        except (TypeError, OverflowError):
            _fail_table_entry(table_raw, f"factors[{i}].table")
        # shaped in place, the array still owns its data: once frozen,
        # Factor keeps it without a second copy
        table.shape = shape
        table.flags.writeable = False
        factors.append(_build("factors", Factor, name, args, table, at=i))

    return _build("$", FactorGraph, tuple(rvs), tuple(factors))


def _table_json(table: np.ndarray) -> list[float]:
    """A table as listed in files: flat, row-major, last axis fastest."""
    return table.reshape(-1).tolist()


def _dump(doc: dict) -> bytes:
    return (json.dumps(doc, indent=2) + "\n").encode("utf-8")


def save_fg(fg: FactorGraph) -> bytes:
    """Serialize a model; floats as shortest round-trip decimal strings."""
    doc = {
        "rvs": [{"name": rv.name, "range": list(rv.range)} for rv in fg.rvs],
        "factors": [
            {"name": f.name, "args": list(f.args), "table": _table_json(f.table)}
            for f in fg.factors
        ],
    }
    return _dump(doc)


def pfg_to_json(pfg: ParfactorGraph) -> dict:
    """The parfactor-graph file's document, before encoding."""
    parfactors = []
    for group, table, crv in zip(pfg.groups(), pfg.tables, pfg.crvs):
        rep = group.start
        parfactors.append({
            "representative": {
                "name": pfg.members[rep],
                "args": list(pfg.member_args[rep]),
                "table": _table_json(table),
            },
            "count": len(group),
            "members": list(pfg.members[group.start : group.stop]),
            "member_args": [list(pfg.member_args[i]) for i in group],
            "crv": None if crv is None else {
                "positions": list(crv.positions),
                "histograms": [list(cell) for cell in crv.histograms],
            },
        })
    return {
        "rv_classes": [
            {
                "representative": {"name": rvs[0].name, "range": list(rvs[0].range)},
                "members": [rv.name for rv in rvs],
            }
            for rvs in pfg.classes()
        ],
        "parfactors": parfactors,
    }


def save_pfg(pfg: ParfactorGraph) -> bytes:
    """Serialize a parfactor graph; floats as in save_fg."""
    return _dump(pfg_to_json(pfg))


def load_evidence(data: bytes | str) -> Evidence:
    """Parse an evidence file; labels are checked against a model at use time."""
    doc = _parse_json(data, "evidence")
    _expect(doc, dict, "$", "an object")
    if "evidence" not in doc:
        _fail("$", "missing key 'evidence'")
    entries = _expect(doc["evidence"], list, "evidence", "an array")
    pairs = []
    for i, entry in enumerate(entries):
        path = f"evidence[{i}]"
        _expect(entry, dict, path, "an object")
        rv = _expect_str(entry.get("rv"), f"{path}.rv")
        value = _expect_str(entry.get("value"), f"{path}.value")
        pairs.append((rv, value))
    return _build("evidence", Evidence, tuple(pairs))
