"""Ground and lifted query answering.

Three evaluators over the same Query contract: full enumeration (the
oracle), variable elimination with a min-degree order, and a lifted
evaluator for the hub marginal of a compressed model that computes one
message per class of isomorphic branches and raises it to the class
size instead of repeating identical eliminations.

Variable elimination's bookkeeping costs O(sum of d^2 + n log n) for n
eliminable RVs, each of degree d when eliminated: the order comes from a
heap refreshed only at the picked RV's neighbours, and each bucket from
an index of every RV's live factors. On models of bounded degree, such
as stars of chains, that is near-linear in n, and the fixed cost of each
numpy call, not the arithmetic on small tables, dominates.

Every product of two tables is one broadcast multiply, so each output
cell is a single multiply; an operand whose axes are out of order is
transposed as a view first. Observed RVs are fixed by model.clamp, as in
joint_table.

QueryResult.ops counts table entries written by products plus entries
read by marginalisations; it is a machine-independent proxy for work
used by the benchmark harness. For the lifted evaluator the count covers
only the numeric work, so it stays flat as the number of identical
branches grows, while ground VE grows linearly.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .acp import ParfactorGraph, expand_crv
from .errors import InvariantError, UnsupportedTopologyError
from .model import Evidence, FactorGraph, clamp, joint_table

__all__ = [
    "Query",
    "QueryResult",
    "query_enumerate",
    "query_ve",
    "query_lifted_star",
]


@dataclass(frozen=True)
class Query:
    """Marginal query P(target | evidence); value selects one label."""

    target: str
    evidence: Evidence = field(default_factory=Evidence)
    value: str | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.target, str) or not self.target:
            raise InvariantError("query target must be a non-empty rv name")
        if self.target in self.evidence.as_dict():
            raise InvariantError(f"query target {self.target!r} is observed")


@dataclass(frozen=True, eq=False)
class QueryResult:
    """A normalised marginal and the work spent on it.

    log_distribution holds log P per label. The evaluators take it from
    the unnormalised vector (log v_i - log sum v), so it stays finite
    and accurate where P itself rounds to 0 or 1. The invariant:
    distribution sums to 1, and the log-probabilities are finite with a
    log-sum-exp within 1e-12 of 0, which a zero entry or a lost unit of
    mass fails.
    """

    distribution: dict[str, float]
    method: str
    ops: int
    log_distribution: dict[str, float]

    def __post_init__(self) -> None:
        dist = self.distribution
        total = sum(dist.values())
        if abs(total - 1.0) > 1e-12:
            raise InvariantError(f"distribution sums to {total!r}, not 1")
        logs = self.log_distribution
        if logs.keys() != dist.keys():
            raise InvariantError("log_distribution and distribution label different values")
        # a nan or +inf entry makes lse nan, which fails the comparison
        top = max(logs.values())
        lse = top + math.log(sum([math.exp(lp - top) for lp in logs.values()]))
        if not (abs(lse) <= 1e-12 and math.isfinite(min(logs.values()))):
            raise InvariantError(
                f"log-probabilities {logs!r} must be finite with log-sum-exp 0, got {lse!r}"
            )

    def __getitem__(self, label: str) -> float:
        return self.distribution[label]


def _validate_query(fg: FactorGraph, q: Query) -> dict[str, int]:
    """Check q against fg; returns the label index of each observed RV."""
    if not fg.has_rv(q.target):
        raise InvariantError(f"unknown query target {q.target!r}")
    held = q.evidence.validate_against(fg)
    if q.value is not None and q.value not in fg.rv(q.target).range:
        raise InvariantError(f"value {q.value!r} is not a label of {q.target!r}")
    return held


def _normalise(vector: np.ndarray, labels: tuple[str, ...], method: str, ops: int) -> QueryResult:
    total = float(vector.sum())
    if not math.isfinite(total):
        raise InvariantError(
            f"query mass is {total!r}: a product of potentials left the float64 range"
        )
    if total <= 0.0:
        raise InvariantError("query mass vanished: a product of potentials underflowed float64")
    values = vector.tolist()
    dist = {label: v / total for label, v in zip(labels, values)}
    # renormalise in float so the stored values sum to 1 exactly enough
    correction = sum(dist.values())
    dist = {k: v / correction for k, v in dist.items()}
    log_total = math.log(total)
    logs = {
        label: math.log(v) - log_total if v > 0.0 else -math.inf
        for label, v in zip(labels, values)
    }
    return QueryResult(dist, method, ops, logs)


# A product or sum past the float64 range gives inf or nan, which fails
# _normalise's check with the typed error; each evaluator's arithmetic
# runs in an np.errstate block (the decorator form shares one saved state
# between calls and threads on numpy 1.x) so that numpy does not warn first.


def query_enumerate(fg: FactorGraph, q: Query) -> QueryResult:
    """Oracle evaluator: build the joint, clamp evidence, sum out the rest."""
    held = _validate_query(fg, q)
    with np.errstate(over="ignore", invalid="ignore"):
        joint = joint_table(fg)
        remaining, sliced = clamp(tuple(rv.name for rv in fg.rvs), joint, held)
        other_axes = tuple(i for i, name in enumerate(remaining) if name != q.target)
        vector = sliced.sum(axis=other_axes) if other_axes else sliced
        return _normalise(vector, fg.rv(q.target).range, "enumerate", joint.size)


# intermediate factors are plain (args, table) pairs; tables may be 0-d
Item = tuple[tuple[str, ...], np.ndarray]


def _multiply(a: Item, b: Item) -> tuple[Item, int]:
    """The product over a's arguments, then those of b's that a lacks.

    The tables multiply by broadcasting, so every output cell is a single
    multiply. When b's arguments are a's trailing ones, the common case,
    nothing is reshaped; otherwise a takes a size-1 axis for each new
    argument, and b's axes are transposed (as a view) into the result's
    order and given a size-1 axis wherever b lacks one of its arguments.
    """
    args_a, tab_a = a
    args_b, tab_b = b
    if args_b == args_a[len(args_a) - len(args_b) :]:
        result = tab_a * tab_b
        return (args_a, result), result.size
    args = args_a + tuple(v for v in args_b if v not in args_a)
    axes = [args.index(v) for v in args_b]
    if axes != sorted(axes):
        tab_b = tab_b.transpose(sorted(range(len(axes)), key=axes.__getitem__))
        axes.sort()
    shape = [1] * len(args)
    for axis, n in zip(axes, tab_b.shape):
        shape[axis] = n
    widened = tab_a.reshape(tab_a.shape + (1,) * (len(args) - len(args_a)))
    result = widened * tab_b.reshape(shape)
    return (args, result), result.size


def _sum_out(item: Item, name: str) -> tuple[Item, int]:
    args, table = item
    axis = args.index(name)
    return (args[:axis] + args[axis + 1 :], np.add.reduce(table, axis)), table.size


def _min_degree_order(
    scopes: list[tuple[str, ...]], eliminable: set[str]
) -> list[str]:
    """Greedy min-degree elimination order of `eliminable`, ties by name.

    Two RVs are neighbours when some scope holds both. An RV's degree is
    the number of its neighbours not yet eliminated, eliminable or not:
    the query target and the hub count too. Each step picks the RV left
    with the least (degree, name), adds a fill-in edge between every two
    of its neighbours that are eliminable and not yet eliminated, and
    eliminates it. Fill-in never joins an RV that is not eliminable, so
    no RV gains the target or the hub as a neighbour by fill-in.

    Only the picked RV's neighbours change degree, so a heap holds
    (degree, name) entries and each step pushes fresh entries for those
    neighbours alone; a popped entry whose RV is gone or whose degree is
    no longer current is stale and skipped. With d the largest degree, a
    step costs O(d^2 + d log n) instead of a sweep over all n RVs.
    """
    adjacency: dict[str, set[str]] = {v: set() for v in eliminable}
    for scope in scopes:
        for u, w in itertools.combinations(scope, 2):
            if u in adjacency:
                adjacency[u].add(w)
            if w in adjacency:
                adjacency[w].add(u)
    heap = [(len(neighbours), v) for v, neighbours in adjacency.items()]
    heapq.heapify(heap)
    order: list[str] = []
    remaining = set(eliminable)
    while remaining:
        degree, pick = heapq.heappop(heap)
        if pick not in remaining or degree != len(adjacency[pick]):
            continue
        order.append(pick)
        remaining.remove(pick)
        # adjacency is symmetric among eliminable RVs, so these are the
        # only sets left that hold pick
        neighbours = adjacency[pick] & remaining
        for u, w in itertools.combinations(neighbours, 2):
            adjacency[u].add(w)
            adjacency[w].add(u)
        for u in neighbours:
            adjacency[u].discard(pick)
            heapq.heappush(heap, (len(adjacency[u]), u))
    return order


def _eliminate(
    items: list[Item], order: list[str], target: str, n_labels: int
) -> tuple[np.ndarray, int]:
    """Bucket elimination of `order`, then the product of what is left.

    Returns the unnormalised vector over `target` and the ops spent; a
    0-d result (target in no remaining factor) becomes n_labels equal entries.

    Items are numbered in creation order (the inputs, then each message)
    and each RV keeps its live holders by number, so a bucket is its
    RV's holders in creation order and costs its own size to find. The
    products run in that order, bucket by bucket and over the live items
    at the end, so results and ops do not depend on the index.
    """
    live: dict[int, Item] = {}
    holders: dict[str, dict[int, None]] = {}
    numbers = itertools.count()

    def add(item: Item) -> None:
        key = next(numbers)
        live[key] = item
        for a in item[0]:
            holders.setdefault(a, {})[key] = None

    for item in items:
        add(item)
    ops = 0
    for name in order:
        bucket = []
        for key in holders.pop(name, ()):
            item = live.pop(key)
            for a in item[0]:
                if a != name:
                    del holders[a][key]
            bucket.append(item)
        if not bucket:
            # disconnected rv: its sum is a constant that normalisation removes
            continue
        prod = bucket[0]
        for other in bucket[1:]:
            prod, cost = _multiply(prod, other)
            ops += cost
        marg, cost = _sum_out(prod, name)
        ops += cost
        add(marg)
    result: Item = ((), np.ones((), dtype=np.float64))
    for item in live.values():
        result, cost = _multiply(result, item)
        ops += cost
    args, table = result
    if args == ():
        return np.full(n_labels, float(table)), ops
    assert args == (target,)
    return table, ops


def query_ve(fg: FactorGraph, q: Query) -> QueryResult:
    """Variable elimination in greedy min-degree order, ties by name."""
    held = _validate_query(fg, q)
    items = [clamp(f.args, f.table, held) for f in fg.factors]
    eliminable = {rv.name for rv in fg.rvs if rv.name != q.target and rv.name not in held}
    order = _min_degree_order([args for args, _ in items], eliminable)
    labels = fg.rv(q.target).range
    with np.errstate(over="ignore", invalid="ignore"):
        vector, ops = _eliminate(items, order, q.target, len(labels))
        return _normalise(vector, labels, "ve", ops)


def _components(members: list[tuple[int, tuple[str, ...]]], hub: str) -> list[list[int]]:
    """Group member factors by connectivity through non-hub arguments."""
    parent: dict[str, str] = {}

    def find(x: str) -> str:
        while parent.get(x, x) != x:
            parent[x] = parent.get(parent[x], parent[x])
            x = parent[x]
        return x

    def union(x: str, y: str) -> None:
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[rx] = ry

    for _, args in members:
        internal = [a for a in args if a != hub]
        for a in internal:
            parent.setdefault(a, a)
        for a, b in zip(internal, internal[1:]):
            union(a, b)
    buckets: dict[str, list[int]] = {}
    solo: list[list[int]] = []
    for idx, (_, args) in enumerate(members):
        internal = [a for a in args if a != hub]
        if not internal:
            solo.append([idx])
        else:
            buckets.setdefault(find(internal[0]), []).append(idx)
    return list(buckets.values()) + solo


def query_lifted_star(pfg: ParfactorGraph, hub: str, q: Query) -> QueryResult:
    """Belief at the hub, one message per class of isomorphic components.

    The member factors split into components connected through non-hub
    arguments, which share only the hub. A component's key is, in member
    order, each member's parfactor index and its arguments numbered by
    first occurrence, the hub as 0; components with equal keys are
    copies up to renaming, so the first one of each class is eliminated
    and its message raised to the class size, and every further copy
    costs O(1) numeric work (Taghipour et al. 2013, lifted variable
    elimination). Every component is eliminated exactly, so the answer
    is the hub marginal of any parfactor graph. A non-hub target and
    evidence raise UnsupportedTopologyError.
    """
    if q.target != hub:
        raise UnsupportedTopologyError(
            f"lifted evaluator answers only the hub {hub!r}, got target {q.target!r}"
        )
    if q.evidence:
        raise UnsupportedTopologyError("lifted evaluator does not accept evidence")
    hub_labels = next((rv.range for rv in pfg.rvs if rv.name == hub), None)
    if hub_labels is None:
        raise InvariantError(f"unknown query target {hub!r}")
    if q.value is not None and q.value not in hub_labels:
        raise InvariantError(f"value {q.value!r} is not a label of {hub!r}")

    tables = [expand_crv(table, crv) for table, crv in zip(pfg.tables, pfg.crvs)]
    members = [(gi, pfg.member_args[i]) for gi, group in enumerate(pfg.groups()) for i in group]
    classes: dict[tuple[tuple[int, tuple[int, ...]], ...], list[list[int]]] = {}
    for comp in _components(members, hub):
        number = {hub: 0}
        key = tuple(
            (members[i][0], tuple(number.setdefault(a, len(number)) for a in members[i][1]))
            for i in comp
        )
        classes.setdefault(key, []).append(comp)

    ops = 0
    belief = np.ones(len(hub_labels), dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        for group in classes.values():
            rep = group[0]
            sub_items = [(members[i][1], tables[members[i][0]]) for i in rep]
            internal = {a for args, _ in sub_items for a in args if a != hub}
            order = _min_degree_order([args for args, _ in sub_items], internal)
            vector, cost = _eliminate(sub_items, order, hub, len(hub_labels))
            ops += cost
            belief *= vector ** len(group)
            ops += len(hub_labels)
        return _normalise(belief, hub_labels, "lifted-star", ops)
