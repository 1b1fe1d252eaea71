"""JSON serialization for models and parfactor graphs, and parsing of evidence files.

Model files look like

    {"rvs": [{"name": "Rev", "range": ["high", "low"]}, ...],
     "factors": [{"name": "f1", "args": ["SalA", "Rev"],
                  "table": [0.75, 0.33, 0.48, 0.22]}, ...]}

with tables listed flat in row-major order, last argument fastest.
Evidence files are {"evidence": [{"rv": "Rev", "value": "high"}, ...]}.

Parfactor-graph files list tables the same way. member_args carries each
member's own argument tuple, so the ground model can be rebuilt from the
file alone; crv is null for a parfactor without counted positions.

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

from .acp import Parfactor, ParfactorGraph
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
    if isinstance(data, bytes):
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


def _build(path: str, make: Callable[..., T], *args: Any) -> T:
    """make(*args), with the model's InvariantError reported at `path`."""
    try:
        return make(*args)
    except InvariantError as exc:
        raise ModelFormatError(f"{path}: {exc}") from None


def load_fg(data: bytes | str) -> FactorGraph:
    """Parse a model file; raises ModelFormatError with a field path on errors."""
    doc = _parse_json(data, "model")
    _expect(doc, dict, "$", "an object")
    for key in ("rvs", "factors"):
        if key not in doc:
            _fail("$", f"missing key {key!r}")
    rvs_raw = _expect(doc["rvs"], list, "rvs", "an array")
    factors_raw = _expect(doc["factors"], list, "factors", "an array")

    rvs: list[RandomVariable] = []
    sizes: dict[str, int] = {}
    for i, entry in enumerate(rvs_raw):
        path = f"rvs[{i}]"
        _expect(entry, dict, path, "an object")
        name = _expect_str(entry.get("name"), f"{path}.name")
        range_raw = _expect(entry.get("range"), list, f"{path}.range", "an array")
        labels = tuple(_expect_str(lbl, f"{path}.range[{j}]") for j, lbl in enumerate(range_raw))
        rv = _build(path, RandomVariable, name, labels)
        if name in sizes:
            _fail("$", f"duplicate rv name {name!r}")
        sizes[name] = rv.size
        rvs.append(rv)

    factors: list[Factor] = []
    for i, entry in enumerate(factors_raw):
        path = f"factors[{i}]"
        _expect(entry, dict, path, "an object")
        name = _expect_str(entry.get("name"), f"{path}.name")
        args_raw = _expect(entry.get("args"), list, f"{path}.args", "an array")
        args = tuple(_expect_str(a, f"{path}.args[{j}]") for j, a in enumerate(args_raw))
        shape = []
        for j, a in enumerate(args):
            if a not in sizes:
                _fail(f"{path}.args[{j}]", f"undeclared rv {a!r}")
            shape.append(sizes[a])
        table_raw = _expect(entry.get("table"), list, f"{path}.table", "an array")
        expected_len = math.prod(shape)
        if len(table_raw) != expected_len:
            _fail(
                f"{path}.table",
                f"length {len(table_raw)} != expected {expected_len} "
                f"(product of argument range sizes)",
            )
        values = []
        for j, v in enumerate(table_raw):
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                _fail(f"{path}.table[{j}]", "expected a number")
            try:
                values.append(float(v))
            except OverflowError:
                _fail(f"{path}.table[{j}]", "number outside the float64 range")
        table = np.asarray(values, dtype=np.float64).reshape(shape)
        factors.append(_build(path, Factor, name, args, table))

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


def _parfactor_to_json(pf: Parfactor) -> dict:
    crv = None
    if pf.crv is not None:
        crv = {
            "positions": list(pf.crv.positions),
            "histograms": [list(cell) for cell in pf.crv.histograms],
        }
    return {
        "representative": {
            "name": pf.name,
            "args": list(pf.args),
            "table": _table_json(pf.table),
        },
        "count": pf.count,
        "members": list(pf.members),
        "member_args": [list(args) for args in pf.member_args],
        "crv": crv,
    }


def pfg_to_json(pfg: ParfactorGraph) -> dict:
    """The parfactor-graph file's document, before encoding."""
    return {
        "rv_classes": [
            {
                "representative": {
                    "name": cls.representative.name,
                    "range": list(cls.representative.range),
                },
                "members": list(cls.members),
            }
            for cls in pfg.rv_classes
        ],
        "parfactors": [_parfactor_to_json(pf) for pf in pfg.parfactors],
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
