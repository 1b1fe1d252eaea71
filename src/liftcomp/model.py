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
on them. Every enumeration-based operation walks the joint through
joint_slabs, in slabs of at most SLAB_STATES states that joint_table
builds; joint_table refuses to run once the full joint's state count
exceeds the cap (LIFTCOMP_ENUM_CAP, default 2**24 states), so a model
too large to enumerate fails before anything is allocated.

Instances are immutable after construction and safe to share between
threads; every operation in this module is a pure function.
"""

from __future__ import annotations

import copy
import heapq
import itertools
import math
import os
import warnings
from dataclasses import dataclass, replace
from numbers import Integral
from typing import Iterable, Iterator, Mapping, NamedTuple

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
    "clamp",
    "joint_table",
    "joint_slabs",
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


@dataclass(frozen=True, eq=False, slots=True)
class Factor:
    """Named factor: one or more distinct argument RVs plus a dense positive table.

    The table must arrive shaped (one axis per argument, last axis fastest
    in the flat row-major reading). Entries are strictly positive finite
    float64, held read-only. The factor shares the caller's array when it
    is already frozen: a read-only, C-contiguous float64 ndarray that owns
    its data, which whoever froze it hands over without keeping a
    writeable view. Any other input (writeable, a view, another dtype or
    layout, a list) is copied, and later writes to the caller's array do
    not reach the factor.
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
        table = self.table
        if not _frozen(table):
            # a copy: the caller's array stays writeable, and writing to it
            # cannot change the table validated here
            table = np.array(table, dtype=np.float64, order="C")
            table.flags.writeable = False
        if table.ndim != len(self.args):
            raise InvariantError(
                f"factor {self.name!r}: table has {table.ndim} axes "
                f"for {len(self.args)} arguments"
            )
        # min and max carry NaN through, so NaN fails the comparisons too
        if table.size and not (table.min() > 0.0 and table.max() < math.inf):
            raise InvariantError(
                f"factor {self.name!r}: table entries must be strictly positive and finite"
            )
        object.__setattr__(self, "table", table)

    @property
    def arity(self) -> int:
        return len(self.args)


def _frozen(table: object) -> bool:
    """A read-only, C-contiguous float64 ndarray that owns its data."""
    if type(table) is not np.ndarray or table.dtype != np.float64:
        return False
    flags = table.flags
    return flags.owndata and flags.c_contiguous and not flags.writeable


@dataclass(frozen=True, eq=False)
class FactorGraph:
    """Immutable factor graph; edges are implicit in factor argument lists.

    RVs and factors are indexed by name -> position, and the structure by an
    _Index built here once: each RV's number (its rank by name), each
    factor's argument numbers, each RV's holders (factor numbers in
    declaration order), neighbours and starting degrees, and a heap of
    (degree, number) keys, all in tuples. On stars of chains it takes
    about 300 bytes per RV, 50 of them for the degrees and the heap
    (tracemalloc, 128 chains of 3 RVs). Each factor table also has a
    kind, which numbers its layout (shape and strides) in _layouts. A
    graph made by replace_tables shares the index and the kinds with its
    input, and queries only read them.
    """

    rvs: tuple[RandomVariable, ...]
    factors: tuple[Factor, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "rvs", tuple(self.rvs))
        object.__setattr__(self, "factors", tuple(self.factors))
        rv_pos: dict[str, int] = {}
        for rv in self.rvs:
            if rv.name in rv_pos:
                raise InvariantError(f"duplicate rv name {rv.name!r}")
            rv_pos[rv.name] = len(rv_pos)
        factor_pos: dict[str, int] = {}
        for f in self.factors:
            if f.name in factor_pos:
                raise InvariantError(f"duplicate factor name {f.name!r}")
            expected = []
            for arg in f.args:
                if arg not in rv_pos:
                    raise InvariantError(
                        f"factor {f.name!r} references undeclared rv {arg!r}"
                    )
                expected.append(self.rvs[rv_pos[arg]].size)
            if f.table.shape != tuple(expected):
                raise InvariantError(
                    f"factor {f.name!r}: table shape {f.table.shape} does not match "
                    f"argument range sizes {tuple(expected)}"
                )
            factor_pos[f.name] = len(factor_pos)
        index = _index_scopes(rv_pos, [f.args for f in self.factors])
        isolated = [rv.name for rv in self.rvs if not index.holders[index.number[rv.name]]]
        if isolated:
            warnings.warn(
                f"isolated rvs (uniform marginal): {', '.join(isolated)}",
                stacklevel=2,
            )
        object.__setattr__(self, "_rv_pos", rv_pos)
        object.__setattr__(self, "_factor_pos", factor_pos)
        object.__setattr__(self, "_index", index)
        layouts: dict[tuple, int] = {}
        object.__setattr__(self, "_kinds", tuple(_kinds([f.table for f in self.factors], layouts)))
        object.__setattr__(self, "_layouts", layouts)

    def rv(self, name: str) -> RandomVariable:
        return self.rvs[self.rv_position(name)]

    def factor(self, name: str) -> Factor:
        try:
            return self.factors[self._factor_pos[name]]  # type: ignore[attr-defined]
        except KeyError:
            raise InvariantError(f"unknown factor {name!r}") from None

    def has_rv(self, name: str) -> bool:
        return name in self._rv_pos  # type: ignore[attr-defined]

    def rv_position(self, name: str) -> int:
        try:
            return self._rv_pos[name]  # type: ignore[attr-defined]
        except KeyError:
            raise InvariantError(f"unknown rv {name!r}") from None

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(rv.size for rv in self.rvs)

    def state_count(self) -> int:
        return math.prod(rv.size for rv in self.rvs)


class _Index(NamedTuple):
    """The structure of a list of scopes over named RVs, by RV number.

    RVs are numbered by name in sorted order, so ordering RVs by number
    orders them by name. args holds each scope's argument numbers,
    holders each RV's scope numbers in scope order, neighbours the other
    RVs that share a scope with it, and degree their count. seed is a
    heap (heapq) of every RV's key degree * n + number, n RVs in all,
    which orders keys by (degree, name): the starting heap of variable
    elimination, which copies it and degree and reads the rest.
    """

    number: dict[str, int]
    args: tuple[tuple[int, ...], ...]
    holders: tuple[tuple[int, ...], ...]
    neighbours: tuple[tuple[int, ...], ...]
    degree: tuple[int, ...]
    seed: tuple[int, ...]


def _index_scopes(names: Iterable[str], scopes: list[tuple[str, ...]]) -> _Index:
    """The _Index of scopes over the RVs `names`, which hold every argument."""
    ordered = sorted(names)
    number = dict(zip(ordered, range(len(ordered))))
    args = tuple([tuple(map(number.__getitem__, scope)) for scope in scopes])
    holders: list = [[] for _ in ordered]
    for i, scope in enumerate(args):
        for v in scope:
            holders[v].append(i)
    # one list or set at a time becomes a tuple: peak memory stays near the
    # index's own size on large models
    for v, held in enumerate(holders):
        holders[v] = tuple(held)
    neighbours = tuple([
        tuple({u for i in held for u in args[i] if u != v}) for v, held in enumerate(holders)
    ])
    degree = tuple(map(len, neighbours))
    n = len(ordered)
    seed = [d * n + v for v, d in enumerate(degree)]
    heapq.heapify(seed)
    return _Index(number, args, tuple(holders), neighbours, degree, tuple(seed))


def _kinds(tables: Iterable[np.ndarray], layouts: dict[tuple, int]) -> list[int]:
    """Each table's kind: the number of its (shape, strides) in layouts.

    A layout not yet in layouts is added with the next number, so tables
    share a kind exactly when they share a layout.
    """
    return [layouts.setdefault((t.shape, t.strides), len(layouts)) for t in tables]


@dataclass(frozen=True)
class Evidence:
    """Observed (rv, label) pairs; an RV may appear at most once."""

    items: tuple[tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.items, (tuple, list)) or not all(
            isinstance(p, (tuple, list)) and len(p) == 2 for p in self.items
        ):
            raise InvariantError(f"evidence must be (rv, label) pairs, got {self.items!r}")
        items = tuple((str(rv), str(val)) for rv, val in self.items)
        object.__setattr__(self, "items", items)
        names = [rv for rv, _ in items]
        if len(set(names)) != len(names):
            raise InvariantError("evidence assigns some rv twice")

    def as_dict(self) -> dict[str, str]:
        return dict(self.items)

    def __bool__(self) -> bool:
        return bool(self.items)

    def validate_against(self, fg: FactorGraph) -> dict[str, int]:
        """Check every observed rv and its label; returns each one's label index."""
        return {rv_name: fg.rv(rv_name).index_of(label) for rv_name, label in self.items}


def check_evidence(evidence: object) -> Evidence:
    """evidence itself, once it is an Evidence."""
    if not isinstance(evidence, Evidence):
        raise InvariantError(f"evidence must be an Evidence, got {evidence!r}")
    return evidence


def clamp(
    args: tuple[str, ...], table: np.ndarray, held: Mapping[str, int]
) -> tuple[tuple[str, ...], np.ndarray]:
    """The arguments not in held, and a view of table with the held ones fixed.

    held maps RV names to label indices; the view is 0-d when every
    argument is held. With none held, args and table themselves return.
    """
    if held.keys().isdisjoint(args):
        return args, table
    free = tuple(a for a in args if a not in held)
    # the trailing Ellipsis keeps a view when every argument is held
    return free, table[tuple(held.get(a, slice(None)) for a in args) + (...,)]


def joint_table(fg: FactorGraph, held: Mapping[str, int] | None = None) -> np.ndarray:
    """Dense joint-potential array, one axis per RV not held, in declaration order.

    Built as a prefix product: the product of the factors seen so far,
    over only the RVs they touch (axes in declaration order), times the
    next factor in declaration order; RVs no factor touches are broadcast
    in at the end. Every cell gets the same multiplications in the same
    order as multiplying each factor into the full joint shape, so the
    array is bit-identical to that. A factor over RVs already seen
    multiplies into the prefix in place; any other adds at least one RV
    of two or more labels, so those steps write at most twice the
    output's states in all, and peak memory, the output plus the previous
    prefix, is at most 1.5x the output (8 bytes per state).

    held maps RV names to label indices and returns one slab of the
    joint: the RVs it names are fixed there and dropped from the axes.
    Each factor table is fixed at its held arguments by clamp before it
    multiplies in, and a factor whose arguments are all held multiplies
    in as a 0-d scalar at its place in the order, so the slab is
    bit-identical to the matching slice of the full joint and the
    peak-memory claim holds per slab. joint_slabs is its one caller in
    the package and never asks for more than SLAB_STATES states. Refuses
    to allocate anything when the full joint's state count exceeds the
    enumeration cap (resolve_cap), held or not, and is the only place
    that cap is checked.
    """
    n_states = fg.state_count()
    limit = resolve_cap()
    if n_states > limit:
        raise EnumerationCapError(
            f"joint state count {n_states} exceeds enumeration cap {limit}"
        )
    held = held or {}
    for name, k in held.items():
        size = fg.rv(name).size
        if isinstance(k, bool) or not isinstance(k, Integral) or not 0 <= k < size:
            raise InvariantError(f"held index {k!r} for rv {name!r} is not an int in [0, {size})")
    sizes = fg.shape
    free = [a for a, rv in enumerate(fg.rvs) if rv.name not in held]
    scope: list[int] = []   # declaration positions of the prefix's axes
    prefix = np.ones((), dtype=np.float64)
    # a product past the float64 range is left as inf for callers to report
    # as a typed error, with no numpy warning ahead of it
    with np.errstate(over="ignore", invalid="ignore"):
        for f in fg.factors:
            args, table = clamp(f.args, f.table, held)
            axes = [fg.rv_position(arg) for arg in args]
            order = sorted(range(len(axes)), key=axes.__getitem__)
            new_scope = sorted(set(scope).union(axes))
            out = (
                prefix if len(new_scope) == len(scope)
                else np.empty([sizes[a] for a in new_scope])
            )
            _multiply_factor(
                out,
                prefix,
                [a in scope for a in new_scope],
                table.transpose(order),
                [a in axes for a in new_scope],
            )
            prefix, scope = out, new_scope
    if len(scope) == len(free):
        return prefix
    joint = np.empty([sizes[a] for a in free], dtype=np.float64)
    joint[...] = prefix.reshape([sizes[a] if a in scope else 1 for a in free])
    return joint


# states per slab of joint_slabs: 2 MiB of float64. Smaller slabs let
# per-slab Python work dominate; larger ones stop fitting in cache.
SLAB_STATES = 2**18


def joint_slabs(fg: FactorGraph, held: Mapping[str, int]) -> Iterator[tuple[dict, np.ndarray]]:
    """The joint with the RVs in held fixed, in slabs of at most SLAB_STATES states.

    The leading RVs not in held, in declaration order, are held too until
    a slab has at most SLAB_STATES states. Each assignment of them, in
    row-major order, comes as held extended by it, together with its slab
    joint_table(fg, that extended held): the slabs tile the slice of the
    full joint at held in row-major order, each bit-identical to its part.
    Each slab is built only when it is asked for, so a caller that drops
    each slab before the next holds one slab and one build at most.
    EnumerationCapError comes from the first joint_table call, before any
    slab is allocated.
    """
    rest = [rv for rv in fg.rvs if rv.name not in held]
    n_held = 0
    while math.prod(rv.size for rv in rest[n_held:]) > SLAB_STATES:
        n_held += 1
    for head in itertools.product(*(range(rv.size) for rv in rest[:n_held])):
        slab_held = {**held, **{rv.name: k for rv, k in zip(rest, head)}}
        yield slab_held, joint_table(fg, slab_held)


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
    unknown = set(tables).difference(fg._factor_pos)  # type: ignore[attr-defined]
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
    # same RVs and factor names in the same order: the copy shares fg's
    # indexes, which keeps every compression result from holding its own.
    # It shares fg's kinds too: a factor holds its table C-ordered, so a
    # new table of the old shape has the old layout.
    out = copy.copy(fg)
    object.__setattr__(out, "factors", factors)
    return out
