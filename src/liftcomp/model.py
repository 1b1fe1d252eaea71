"""Factor-graph data model and exact joint-potential arithmetic.

A factor graph here is a bipartite structure of named random variables
(each with an ordered range of value labels) and named factors (each a
non-empty ordered argument list plus a dense table of strictly positive
reals). The joint potential of a full assignment is the product of the
factor entries it selects; normalizing by the partition function turns
that into a probability distribution.

Tables are stored as read-only float64 arrays shaped by the argument
range sizes, C-order, so flat row-major listings have the last argument
varying fastest. The constructors of RandomVariable, Factor and
FactorGraph are the one definition of a valid model; io.load_fg relies
on them. Every enumeration-based operation goes through joint_table,
which refuses to run once the joint state count exceeds the cap
(LIFTCOMP_ENUM_CAP, default 2**24 states) because it materializes one
float per state.

Instances are immutable after construction and safe to share between
threads; every operation in this module is a pure function.
"""

from __future__ import annotations

import copy
import itertools
import math
import os
import warnings
from dataclasses import dataclass, replace
from typing import Mapping

import numpy as np

from .errors import EnumerationCapError, InvariantError

__all__ = [
    "DEFAULT_ENUM_CAP",
    "ENUM_CAP_ENV_VAR",
    "RandomVariable",
    "Factor",
    "FactorGraph",
    "Evidence",
    "resolve_cap",
    "joint_table",
    "fg_equal",
    "replace_tables",
]

DEFAULT_ENUM_CAP = 2**24
ENUM_CAP_ENV_VAR = "LIFTCOMP_ENUM_CAP"


def resolve_cap() -> int:
    """Effective enumeration cap: the environment variable, else the default."""
    env = os.environ.get(ENUM_CAP_ENV_VAR)
    if env is None:
        return DEFAULT_ENUM_CAP
    try:
        value = int(env)
    except ValueError:
        value = 0
    if value < 1:
        raise InvariantError(f"{ENUM_CAP_ENV_VAR} must be a positive integer, got {env!r}")
    return value


@dataclass(frozen=True)
class RandomVariable:
    """Named variable with an ordered range of at least two distinct labels.

    Range order is part of model identity: table indexing depends on it.
    """

    name: str
    range: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "range", tuple(self.range))
        if not self.name:
            raise InvariantError("random variable name must be non-empty")
        if len(self.range) < 2:
            raise InvariantError(
                f"rv {self.name!r}: range needs at least 2 labels, got {len(self.range)}"
            )
        if len(set(self.range)) != len(self.range):
            raise InvariantError(f"rv {self.name!r}: range labels are not distinct")

    @property
    def size(self) -> int:
        return len(self.range)

    def index_of(self, label: str) -> int:
        try:
            return self.range.index(label)
        except ValueError:
            raise InvariantError(
                f"label {label!r} not in range of rv {self.name!r}"
            ) from None


@dataclass(frozen=True, eq=False)
class Factor:
    """Named factor: one or more distinct argument RVs plus a dense positive table.

    The table must arrive shaped (one axis per argument, last axis fastest
    in the flat row-major reading). Entries are strictly positive finite
    float64; the factor holds a read-only copy of them.
    """

    name: str
    args: tuple[str, ...]
    table: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "args", tuple(self.args))
        if not self.name:
            raise InvariantError("factor name must be non-empty")
        if not self.args:
            raise InvariantError(f"factor {self.name!r}: needs at least one argument")
        if len(set(self.args)) != len(self.args):
            raise InvariantError(f"factor {self.name!r}: argument RVs are not distinct")
        # a copy: the caller's array stays writeable, and writing to it
        # cannot change the table validated here
        table = np.array(self.table, dtype=np.float64, order="C")
        if table.ndim != len(self.args):
            raise InvariantError(
                f"factor {self.name!r}: table has {table.ndim} axes "
                f"for {len(self.args)} arguments"
            )
        if not np.all(np.isfinite(table)) or not np.all(table > 0.0):
            raise InvariantError(
                f"factor {self.name!r}: table entries must be strictly positive and finite"
            )
        table.flags.writeable = False
        object.__setattr__(self, "table", table)

    @property
    def arity(self) -> int:
        return len(self.args)


@dataclass(frozen=True, eq=False)
class FactorGraph:
    """Immutable factor graph; edges are implicit in factor argument lists."""

    rvs: tuple[RandomVariable, ...]
    factors: tuple[Factor, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "rvs", tuple(self.rvs))
        object.__setattr__(self, "factors", tuple(self.factors))
        rv_index: dict[str, RandomVariable] = {}
        for rv in self.rvs:
            if rv.name in rv_index:
                raise InvariantError(f"duplicate rv name {rv.name!r}")
            rv_index[rv.name] = rv
        factor_index: dict[str, Factor] = {}
        touched: set[str] = set()
        for f in self.factors:
            if f.name in factor_index:
                raise InvariantError(f"duplicate factor name {f.name!r}")
            expected = []
            for arg in f.args:
                if arg not in rv_index:
                    raise InvariantError(
                        f"factor {f.name!r} references undeclared rv {arg!r}"
                    )
                expected.append(rv_index[arg].size)
            if f.table.shape != tuple(expected):
                raise InvariantError(
                    f"factor {f.name!r}: table shape {f.table.shape} does not match "
                    f"argument range sizes {tuple(expected)}"
                )
            factor_index[f.name] = f
            touched.update(f.args)
        isolated = [rv.name for rv in self.rvs if rv.name not in touched]
        if isolated:
            warnings.warn(
                f"isolated rvs (uniform marginal): {', '.join(isolated)}",
                stacklevel=2,
            )
        object.__setattr__(self, "_rv_index", rv_index)
        object.__setattr__(self, "_factor_index", factor_index)
        object.__setattr__(
            self, "_rv_pos", {rv.name: i for i, rv in enumerate(self.rvs)}
        )

    def rv(self, name: str) -> RandomVariable:
        try:
            return self._rv_index[name]  # type: ignore[attr-defined]
        except KeyError:
            raise InvariantError(f"unknown rv {name!r}") from None

    def factor(self, name: str) -> Factor:
        try:
            return self._factor_index[name]  # type: ignore[attr-defined]
        except KeyError:
            raise InvariantError(f"unknown factor {name!r}") from None

    def has_rv(self, name: str) -> bool:
        return name in self._rv_index  # type: ignore[attr-defined]

    def rv_position(self, name: str) -> int:
        self.rv(name)
        return self._rv_pos[name]  # type: ignore[attr-defined]

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(rv.size for rv in self.rvs)

    def state_count(self) -> int:
        return math.prod(rv.size for rv in self.rvs)


@dataclass(frozen=True)
class Evidence:
    """Observed (rv, label) pairs; an RV may appear at most once."""

    items: tuple[tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        items = tuple((str(rv), str(val)) for rv, val in self.items)
        object.__setattr__(self, "items", items)
        names = [rv for rv, _ in items]
        if len(set(names)) != len(names):
            raise InvariantError("evidence assigns some rv twice")

    def as_dict(self) -> dict[str, str]:
        return dict(self.items)

    def __bool__(self) -> bool:
        return bool(self.items)

    def validate_against(self, fg: FactorGraph) -> None:
        """Check every observed rv exists and every label is in range."""
        for rv_name, label in self.items:
            fg.rv(rv_name).index_of(label)


def joint_table(fg: FactorGraph) -> np.ndarray:
    """Dense joint-potential array, one axis per RV in declaration order.

    Built as a prefix product: the product of the factors seen so far,
    over only the RVs they touch (axes in declaration order), times the
    next factor in declaration order; RVs no factor touches are broadcast
    in at the end. Every cell gets the same multiplications in the same
    order as multiplying each factor into the full joint shape, so the
    array is bit-identical to that. A factor over RVs already seen
    multiplies into the prefix in place; any other adds at least one RV
    of two or more labels, so those steps write at most twice the
    output's states in all, and peak memory, the output plus the previous
    prefix, is at most 1.5x the output (8 bytes per state). Refuses to
    allocate anything past the enumeration cap (resolve_cap), and is the
    only place that cap is checked.
    """
    n_states = fg.state_count()
    limit = resolve_cap()
    if n_states > limit:
        raise EnumerationCapError(
            f"joint state count {n_states} exceeds enumeration cap {limit}"
        )
    sizes = fg.shape
    scope: list[int] = []   # declaration positions of the prefix's axes
    prefix = np.ones((), dtype=np.float64)
    for f in fg.factors:
        axes = [fg.rv_position(arg) for arg in f.args]
        order = sorted(range(len(axes)), key=axes.__getitem__)
        new_scope = sorted(set(scope).union(axes))
        out = prefix if len(new_scope) == len(scope) else np.empty([sizes[a] for a in new_scope])
        _multiply_factor(
            out,
            prefix,
            [a in scope for a in new_scope],
            f.table.transpose(order),
            [a in axes for a in new_scope],
        )
        prefix, scope = out, new_scope
    if len(scope) == len(sizes):
        return prefix
    joint = np.empty(sizes, dtype=np.float64)
    joint[...] = prefix.reshape([n if a in scope else 1 for a, n in enumerate(sizes)])
    return joint


def _multiply_factor(
    out: np.ndarray,
    prefix: np.ndarray,
    in_prefix: list[bool],
    table: np.ndarray,
    in_table: list[bool],
) -> None:
    """out = prefix * table, each broadcast over the out axes it lacks.

    in_prefix/in_table flag which out axes each operand has, in out's
    order. One broadcast multiply runs its innermost loop over the
    trailing out axes the table covers; when they hold fewer float64 than
    one 64-byte cache line that loop is too short, and one multiply per
    table entry (the matching prefix slice times the entry) runs long
    loops instead. Every cell gets the same single product either way.
    """
    block = 1
    for n, covered in zip(reversed(out.shape), reversed(in_table)):
        if not covered:
            break
        block *= n
    if block >= 8:
        np.multiply(
            prefix.reshape([n if p else 1 for n, p in zip(out.shape, in_prefix)]),
            table.reshape([n if t else 1 for n, t in zip(out.shape, in_table)]),
            out=out,
        )
        return
    # one view of each operand with the table's axes first; the prefix
    # view leads with those of them it already has
    table_axes = [i for i, t in enumerate(in_table) if t]
    rest = [i for i, t in enumerate(in_table) if not t]
    prefix_axis = {i: j for j, i in enumerate(i for i, p in enumerate(in_prefix) if p)}
    src = prefix.transpose(
        [prefix_axis[i] for i in table_axes if in_prefix[i]] + [prefix_axis[i] for i in rest]
    )
    dst = out.transpose(table_axes + rest)
    seen = [j for j, i in enumerate(table_axes) if in_prefix[i]]
    for idx in itertools.product(*map(range, table.shape)):
        src_idx = tuple(idx[j] for j in seen)
        np.multiply(src[src_idx + (...,)], table[idx], out=dst[idx + (...,)])


def fg_equal(a: FactorGraph, b: FactorGraph) -> bool:
    """Structural equality: same RVs, ranges, factors, argument order, bit-equal tables."""
    if [(rv.name, rv.range) for rv in a.rvs] != [(rv.name, rv.range) for rv in b.rvs]:
        return False
    if len(a.factors) != len(b.factors):
        return False
    for fa, fb in zip(a.factors, b.factors):
        if fa.name != fb.name or fa.args != fb.args:
            return False
        if not np.array_equal(fa.table, fb.table):
            return False
    return True


def replace_tables(fg: FactorGraph, tables: Mapping[str, np.ndarray]) -> FactorGraph:
    """Copy of fg with some factor tables swapped; structure untouched."""
    known = {f.name for f in fg.factors}
    unknown = set(tables) - known
    if unknown:
        raise InvariantError(f"no such factors: {sorted(unknown)}")
    factors = tuple(
        replace(f, table=tables[f.name]) if f.name in tables else f
        for f in fg.factors
    )
    for old, new in zip(fg.factors, factors):
        if new.table.shape != old.table.shape:
            raise InvariantError(
                f"factor {old.name!r}: table shape {new.table.shape} does not match "
                f"{old.table.shape}"
            )
    # same RVs and arguments: the copy shares fg's RV indexes, which keeps
    # every compression result from holding its own
    out = copy.copy(fg)
    object.__setattr__(out, "factors", factors)
    object.__setattr__(out, "_factor_index", {f.name: f for f in factors})
    return out
