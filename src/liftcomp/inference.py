"""Ground and lifted query answering.

Three evaluators over the same Query contract: enumeration (the
oracle, which sums the joint slab by slab and never holds it whole),
variable elimination with a min-degree order, and a lifted
evaluator for the hub marginal of a compressed model that computes one
message per class of isomorphic branches and raises it to the class
size instead of repeating identical eliminations: one pass over the
members, then one batched elimination over one branch per class.

Variable elimination works on the RV numbers of the model's _Index,
built once with the FactorGraph together with each RV's starting degree,
the heap of their keys and each table's kind (its layout, numbered). A
query copies the argument numbers, tables, degrees, heap and kinds, each
as one flat list with no Python work per entry, and numbers anew only
the tables that evidence clamps; the rest of its bookkeeping is what its
elimination changes: fill-in edges, the messages each RV holds, and
degree counters. The walk costs O(sum of d^2 + n log n) for n
eliminable RVs of degree d when eliminated: it pops the RV of least
degree from the heap and forms that RV's bucket on the spot. On stars of
chains that is near-linear in n, and the fixed cost of each numpy call,
not arithmetic, dominates.

So the walk plans: it sorts buckets into batches of like buckets (the
same table shapes and argument wiring, up to renaming; _eliminate gives
the batch keys), and each batch then runs as stacked arrays, one row per
bucket. Alike branches of a star share their numpy calls, so the number
of calls stays flat as branches are added, and every output cell gets
the same multiplies and sums in the same order: results and ops are
bit-identical to one bucket at a time. Eliminations too short to share
much run each bucket as it forms, as a batch of one through the same
executor (_Store.run), which also makes the product of the items left
over the target, so every product and sum of an elimination is made in
one place. Observed RVs are fixed by model.clamp, as in joint_table.

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
import operator
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Collection

import numpy as np

from .acp import ParfactorGraph, expand_crv
from .errors import InvariantError, UnsupportedTopologyError
from .model import (
    Evidence, FactorGraph, _Index, _index_scopes, _kinds, check_evidence, clamp, joint_slabs,
)
from .model import joint_table  # noqa: F401  perfbench/run.py looks this name up

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
        if self.target in check_evidence(self.evidence).as_dict():
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


def _check_target(labels: tuple[str, ...] | None, q: Query) -> tuple[str, ...]:
    """`labels`, those of q's target or None where the model lacks it, once q.value is one."""
    if labels is None:
        raise InvariantError(f"unknown query target {q.target!r}")
    if q.value is not None and q.value not in labels:
        raise InvariantError(f"value {q.value!r} is not a label of {q.target!r}")
    return labels


def _validate_query(fg: FactorGraph, q: Query) -> dict[str, int]:
    """Check q against fg; returns the label index of each observed RV."""
    _check_target(fg.rv(q.target).range if fg.has_rv(q.target) else None, q)
    return q.evidence.validate_against(fg)


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
    """Oracle evaluator: sum the evidence's slice of the joint onto the target.

    The slice is walked in joint_slabs' slabs and each slab is dropped
    before the next is built, so no more than one slab and one build are
    held however large the joint. A slab that holds the target adds its
    sum at the target's label; any other adds its sums over every axis but
    the target's. The sums are added in another order than one reduction
    over the whole slice would use, so results can differ from that in
    the last bits. ops counts the full joint's states.
    """
    held = _validate_query(fg, q)
    vector = np.zeros(fg.rv(q.target).size)
    with np.errstate(over="ignore", invalid="ignore"):
        for slab_held, slab in joint_slabs(fg, held):
            free = [rv.name for rv in fg.rvs if rv.name not in slab_held]
            others = tuple(i for i, name in enumerate(free) if name != q.target)
            # a slab that holds the target sums whole onto its label
            vector[slab_held.get(q.target, slice(None))] += slab.sum(axis=others)
            del slab
        return _normalise(vector, fg.rv(q.target).range, "enumerate", fg.state_count())


# intermediate factors are plain (args, table) pairs, args as RV numbers
# of an _Index; tables may be 0-d.
# _eliminate stacks a batch of buckets along one leading axis beyond the
# arguments: row b belongs to the batch's b-th bucket.
Item = tuple[tuple[int, ...], np.ndarray]


def _multiply(a: Item, b: Item, lead: int = 0) -> tuple[Item, int]:
    """The product over a's arguments, then those of b's that a lacks.

    The tables multiply by broadcasting, so every output cell is a single
    multiply. When b's arguments are a's trailing ones, the common case,
    only size-1 axes are inserted; otherwise a takes a size-1 axis for
    each new argument, and b is _spread over the result's arguments.
    Both tables may carry `lead` leading batch axes beyond their
    arguments, which pair up row by row.
    """
    args_a, tab_a = a
    args_b, tab_b = b
    gap = len(args_a) - len(args_b)
    if args_b == args_a[gap:]:
        # no index bookkeeping: without this path certify ground queries ran 25% slower
        if lead and gap:
            tab_b = tab_b.reshape(tab_b.shape[:lead] + (1,) * gap + tab_b.shape[lead:])
        result = tab_a * tab_b
        return (args_a, result), result.size
    args = args_a + tuple(v for v in args_b if v not in args_a)
    widened = tab_a.reshape(tab_a.shape + (1,) * (len(args) - len(args_a)))
    result = widened * _spread(tab_b, args_b, args, tab_b.shape[:lead])
    return (args, result), result.size


def _spread(
    table: np.ndarray, args: tuple[int, ...], scope: tuple[int, ...], lead: tuple[int, ...]
) -> np.ndarray:
    """A view of table, over args after its leading axes, over the wider scope.

    Its argument axes are transposed into scope order and take a size-1
    axis wherever they lack one of scope's arguments; its leading axes
    are reshaped to `lead`.
    """
    n_lead = table.ndim - len(args)
    axes = [scope.index(v) for v in args]
    if axes != sorted(axes):
        order = sorted(range(len(axes)), key=axes.__getitem__)
        table = table.transpose([*range(n_lead), *(n_lead + i for i in order)])
        axes.sort()
    shape = [*lead, *[1] * len(scope)]
    for axis, n in zip(axes, table.shape[n_lead:]):
        shape[len(lead) + axis] = n
    return table.reshape(shape)


def _fold(args: tuple[int, ...], stack: np.ndarray) -> tuple[Item, int]:
    """The rows of stack along the axis before args, multiplied in turn.

    One np.multiply.reduce: a strict left fold, so each cell gets the
    multiplies that _multiply would make one row at a time.
    """
    result = np.multiply.reduce(stack, axis=stack.ndim - len(args) - 1)
    return (args, result), stack.size - result.size


def _sum_out(item: Item, name: int, lead: int) -> tuple[Item, int]:
    args, table = item
    axis = args.index(name)
    return (args[:axis] + args[axis + 1 :], np.add.reduce(table, lead + axis)), table.size


def _stack(tables: list[np.ndarray]) -> np.ndarray:
    """Tables of one shape and strides along a new leading axis.

    The stack keeps the tables' memory order of axes, so numpy lays out
    every product and sum of it as it would those of each table alone.
    """
    first = tables[0]
    if len(tables) == 1:
        return first[None]
    strides = first.strides
    if first.flags.c_contiguous or list(strides) == sorted(strides, reverse=True):
        return np.array(tables)
    order = sorted(range(first.ndim), key=lambda a: -strides[a])
    stack = np.array([t.transpose(order) for t in tables])
    return stack.transpose([0, *(1 + order.index(a) for a in range(first.ndim))])


def _c_ordered(table: np.ndarray) -> bool:
    """Axes longer than 1 lie in memory in their logical order."""
    strides = [s for s, n in zip(table.strides, table.shape) if n > 1]
    return all(s >= t for s, t in zip(strides, strides[1:]))


# a run of fewer like items costs fewer numpy calls as single multiplies
_MIN_RUN = 8
# an elimination of fewer RVs runs each bucket as it forms: planning costs
# about a microsecond a bucket, more than batching saves when few buckets
# can share a batch (the certify models eliminate 1-20 RVs, and the
# benchmark's stars 47 or more). Planning every elimination made the median
# certify VE call 7-8% slower and the 90th-percentile one 4% slower, and won
# 3 of 30 alternating in-process pairs, so the switch stays.
_MIN_PLAN = 32
_FIRST = operator.itemgetter(0)
_TABLE = operator.attrgetter("table")


class _Store:
    """Every item of one elimination, and each executed batch's messages.

    Items are numbered in creation order, inputs first. An input's source
    is its table and its kind the number of its layout (shape and
    strides, model._kinds); a message's source is its row in its batch's
    stack and its kind ~b for batch b, so it never equals an input's.
    Items of one kind stack into arrays of one layout; a batch of one
    bucket stacks its message as one row. A message made as its bucket
    formed has its table as source and no kind.

    run makes every product of an elimination: each message, planned
    batches and buckets run as they form alike, and result's product of
    the items left. Every _multiply and _sum_out call is in run, and the
    one _fold call in _run.
    """

    __slots__ = ("args", "source", "kind", "stacks")

    def __init__(self, args: list, source: list, kind: list) -> None:
        self.args = args
        self.source = source
        self.kind = kind
        self.stacks: list = []

    def table(self, number: int) -> np.ndarray:
        """One item's table, unstacked."""
        source = self.source[number]
        if type(source) is int:
            return self.stacks[~self.kind[number]][source]
        return source

    def gather(self, numbers: list[int]) -> np.ndarray:
        """Items of one kind, stacked along a new leading axis."""
        rows = list(map(self.source.__getitem__, numbers))
        if type(rows[0]) is not int:
            return _stack(rows)
        stack = self.stacks[~self.kind[numbers[0]]]
        if len(rows) == len(stack) and rows == list(range(len(stack))):
            return stack
        # fancy indexing keeps the stack's memory order of axes
        return stack[rows]

    def result(self, rest: list[int], n_labels: int) -> tuple[np.ndarray, int]:
        """The product of items of at most one axis, over n_labels entries, and its ops."""
        if not rest:
            return np.ones(n_labels), 0
        (args, table), cost = self.run([rest])
        if len(args) > 1:
            raise InvariantError(f"items left after elimination span {len(args)} RVs")
        return (table if args else np.full(n_labels, float(table))), cost + self.table(rest[0]).size

    def run(self, members: list[list[int]], name: int | None = None) -> tuple[Item, int]:
        """Each alike bucket's product, with name summed out if one is given.

        Buckets are alike, so the first one names every position's
        arguments. The first items are taken as they are; with one bucket,
        tables stay unstacked, and with more, the product, each operand
        and the result hold one row per bucket. A bucket of at most
        _MIN_RUN items multiplies them in turn. Otherwise a run of _MIN_RUN
        or more positions that add no argument to a C-ordered product is
        one _fold of it and those items broadcast to its shape, gathered
        once per kind; every other position is one _multiply. This is the
        one place an elimination multiplies and marginalises.
        """
        rep = members[0]
        args_of = self.args
        lead = 0 if len(members) == 1 else 1
        first = self.gather(list(map(_FIRST, members))) if lead else self.table(rep[0])
        acc, ops = (args_of[rep[0]], first), 0
        if not lead and len(rep) <= _MIN_RUN:
            for i in rep[1:]:
                acc, cost = _multiply(acc, (args_of[i], self.table(i)))
                ops += cost
        else:
            j = 1
            while j < len(rep):
                end = j
                if len(rep) - j >= _MIN_RUN and _c_ordered(acc[1]):
                    scope = set(acc[0])
                    while end < len(rep) and scope.issuperset(args_of[rep[end]]):
                        end += 1
                if end - j >= _MIN_RUN:
                    acc, cost = self._run(acc, members, j, end)
                    j = end
                else:
                    if lead:
                        operand = self.gather(list(map(operator.itemgetter(j), members)))
                    else:
                        operand = self.table(rep[j])
                    acc, cost = _multiply(acc, (args_of[rep[j]], operand), lead)
                    j += 1
                ops += cost
        if name is None:
            return acc, ops
        message, cost = _sum_out(acc, name, lead)
        return message, ops + cost

    def _run(self, acc: Item, members: list[list[int]], start: int, end: int) -> tuple[Item, int]:
        """acc times positions start..end-1, which add no argument to it."""
        args, table = acc
        lead = table.ndim - len(args)
        rows = (slice(None),) * lead
        stack = np.empty(table.shape[:lead] + (1 + end - start,) + table.shape[lead:])
        stack[rows + (0,)] = table
        rep = members[0]
        groups: dict[tuple, list[int]] = {}
        for j in range(start, end):
            groups.setdefault((self.kind[rep[j]], self.args[rep[j]]), []).append(j)
        for (_, item_args), columns in groups.items():
            block = self.gather([bucket[j] for bucket in members for j in columns])
            block = _spread(block, item_args, args, (*table.shape[:lead], len(columns)))
            if len(columns) == columns[-1] - columns[0] + 1:
                where = slice(1 + columns[0] - start, 2 + columns[-1] - start)
            else:
                where = [1 + j - start for j in columns]
            stack[rows + (where,)] = block
        return _fold(args, stack)


def _eliminate(
    args_of: list[tuple[int, ...]],
    source: list[np.ndarray],
    index: _Index,
    target: int,
    held: Collection[int],
    kinds: list[int],
) -> tuple[_Store, list[int], int, list[int]]:
    """Bucket elimination in greedy min-degree order.

    Item i is index's scope i with the held RVs fixed: argument numbers
    args_of[i] and table source[i], whose layout kinds[i] numbers as
    model._kinds does. The walk appends each message to the three lists,
    which the store then holds. Every RV but the target and the held ones
    is eliminated. Returns the store, the numbers of the items left (each
    over the target or 0-d, in creation order), the ops spent and the
    order; the store's result() is their product.

    Order: two RVs are neighbours when some scope holds both; an RV's
    degree counts its neighbours not yet eliminated, the target included.
    Each step pops the RV of least (degree, number), which ties by name,
    joins every two of its neighbours left to eliminate by a fill-in edge
    (never the target) and eliminates it. The walk reads the index's
    neighbours and holders and copies only its degrees and heap: a
    degree is a counter, lowered for each held neighbour, raised by each
    fill-in edge and lowered when a neighbour is eliminated, and fill-in
    edges go into a set only for an RV that gets one. Only the picked
    RV's neighbours change degree, so only they get fresh heap entries; a
    popped entry whose RV is gone or whose degree is stale is skipped. A
    step costs O(d^2 + d log n) for degree d.

    Plan, in the same walk: items are numbered in creation order (the
    inputs, then each message), so the picked RV's bucket is its live
    input holders, then its live messages, in order. A bucket's signature
    is its length, each item's kind (an input's layout number, or the
    batch that made a message) and its items' arguments numbered by first
    occurrence from the eliminated RV; buckets of one signature form one
    batch. A kind fixes its item's arity (a layout its shape, a batch its
    message's scope), so two forms take a shorter key with no numbering:
    one item by (kind, axis), the eliminated RV's axis in it, and a chain
    step, an item and then one over the eliminated RV alone, by (kind,
    kind, axis). Each short key stands for one signature, and the lengths
    (2, 3, and at least 7 for a signature, whose second item holds another
    RV when there are two) keep the forms apart, so the batches are those
    of the signatures. A batch's key names the batches it reads, so
    running batches in the order they formed respects every dependency.

    Execute: _Store.run stacks each bucket position's items along a new
    leading axis, makes one broadcast multiply per position (one fold per
    run of positions that add no argument) and one np.add.reduce. The
    stacks keep each operand's memory order of axes, so numpy picks the
    layout and the summation (pairwise along an innermost axis of 8 or
    more labels) it would pick for each bucket alone: vectors and ops are
    bit-identical to one bucket at a time.

    An elimination of fewer than _MIN_PLAN RVs skips the plan: each bucket
    runs as it forms, as a batch of one through the same _Store.run, and
    its message is kept as a plain table with no kind. Both regimes then
    register a message alike.
    """
    neighbours, holders = index.neighbours, index.holders
    degree = list(index.degree)
    heap = list(index.seed)
    # (degree, number) as one int, degree * n + number, which orders alike
    n = len(degree)
    # open: left to eliminate
    open_ = [True] * n
    is_open = open_.__getitem__
    open_[target] = False
    for v in held:
        open_[v] = False
        for u in neighbours[v]:
            degree[u] -= 1
            heapq.heappush(heap, degree[u] * n + u)
    left = open_.count(True)
    # fill-in neighbours, and messages by the RVs they hold
    fill: dict[int, set[int]] = {}
    messages: defaultdict[int, list[int]] = defaultdict(list)
    # every bucket makes one message
    live = [True] * (len(source) + left)
    is_live = live.__getitem__
    store = _Store(args_of, source, kinds)
    ops = 0
    eager = left < _MIN_PLAN
    batch_of: dict[tuple, int] = {}
    batches: list[list[list[int]]] = []
    names: list[int] = []
    order: list[int] = []
    while left:
        key = heapq.heappop(heap)
        name = key % n
        if not open_[name] or key != degree[name] * n + name:
            continue
        open_[name] = False
        left -= 1
        order.append(name)
        # the picked RV's neighbours left to eliminate
        around = list(filter(is_open, neighbours[name]))
        if name in fill:
            around += filter(is_open, fill.pop(name))
        if len(around) == 1:
            # one neighbour left: no pair to join
            u = around[0]
            degree[u] -= 1
            heapq.heappush(heap, degree[u] * n + u)
        else:
            for u, w in itertools.combinations(around, 2):
                # adjacent already: in a scope, or by an earlier fill-in edge
                if w in neighbours[u] or w in fill.get(u, ()):
                    continue
                fill.setdefault(u, set()).add(w)
                fill.setdefault(w, set()).add(u)
                degree[u] += 1
                degree[w] += 1
            for u in around:
                degree[u] -= 1
                heapq.heappush(heap, degree[u] * n + u)
        bucket = list(filter(is_live, holders[name]))
        if name in messages:
            bucket += filter(is_live, messages.pop(name))
        if not bucket:
            # disconnected rv: its sum is a constant that normalisation removes
            continue
        if eager:
            for i in bucket:
                live[i] = False
            # a batch of one, run now; its message is a plain table
            (message, made), cost = store.run([bucket], name)
            ops += cost
            kind = None
        else:
            if len(bucket) == 1:
                i = bucket[0]
                live[i] = False
                args = args_of[i]
                axis = args.index(name)
                # distinct arguments: the kind's rank and the axis fix the wiring
                signature: tuple = (kinds[i], axis)
                message = args[:axis] + args[axis + 1 :]
            elif len(bucket) == 2 and len(args_of[bucket[1]]) == 1:
                # a chain step: an item, then one over the eliminated rv alone
                i, j = bucket
                live[i] = live[j] = False
                args = args_of[i]
                axis = args.index(name)
                signature = (kinds[i], kinds[j], axis)
                message = args[:axis] + args[axis + 1 :]
            else:
                flat = (name,)
                for i in bucket:
                    live[i] = False
                    flat += args_of[i]
                # arguments numbered by first occurrence, the eliminated rv as 0
                signature = (len(bucket), *map(kinds.__getitem__, bucket), *map(flat.index, flat))
                # the arguments less the eliminated rv (the first), in order of first occurrence
                message = tuple(dict.fromkeys(flat))[1:]
            number = batch_of.get(signature)
            if number is None:
                number = batch_of[signature] = len(batches)
                batches.append([])
                names.append(name)
            members = batches[number]
            made, kind = len(members), ~number
            members.append(bucket)
        for a in message:
            messages[a].append(len(args_of))
        args_of.append(message)
        source.append(made)
        kinds.append(kind)

    for members, name in zip(batches, names):
        (_, made), cost = store.run(members, name)
        store.stacks.append(made if len(members) > 1 else made[None])
        ops += cost
    return store, list(itertools.compress(range(len(args_of)), live)), ops, order


def query_ve(fg: FactorGraph, q: Query) -> QueryResult:
    """Variable elimination in greedy min-degree order, ties by name.

    The items are the model's tables over its index's argument numbers,
    with the model's kinds; only the factors that hold an observed RV are
    clamped, and only their kinds are numbered anew.
    """
    held = _validate_query(fg, q)
    index = fg._index  # type: ignore[attr-defined]
    number = index.number
    args_of = list(index.args)
    source = list(map(_TABLE, fg.factors))
    kinds = list(fg._kinds)  # type: ignore[attr-defined]
    if held:
        held = {number[name]: k for name, k in held.items()}
        # a clamped table is a view of its own layout
        layouts = dict(fg._layouts)  # type: ignore[attr-defined]
        for i in set(itertools.chain.from_iterable(map(index.holders.__getitem__, held))):
            args_of[i], source[i] = clamp(args_of[i], source[i], held)
            (kinds[i],) = _kinds([source[i]], layouts)
    labels = fg.rv(q.target).range
    with np.errstate(over="ignore", invalid="ignore"):
        store, rest, ops, _ = _eliminate(args_of, source, index, number[q.target], held, kinds)
        vector, cost = store.result(rest, len(labels))
        return _normalise(vector, labels, "ve", ops + cost)


def query_lifted_star(pfg: ParfactorGraph, hub: str, q: Query) -> QueryResult:
    """Belief at the hub, one message per class of isomorphic components.

    One walk over the members splits them into components connected
    through non-hub arguments, which share only the hub (members sorted,
    components by first member, hub-only members last). A component's key
    is its members' parfactor indices and their arguments numbered by
    first occurrence, the hub as 0; components with equal keys are copies
    up to renaming. One batched _eliminate call towards the hub runs over
    the first component of every class: each gets the order, buckets and
    messages it would get alone and ends in one message, over the hub or
    0-d, raised to the class size (Taghipour et al. 2013, lifted variable
    elimination). The answer is the exact hub marginal of any parfactor
    graph; a non-hub target and evidence raise UnsupportedTopologyError.
    """
    if q.target != hub:
        raise UnsupportedTopologyError(
            f"lifted evaluator answers only the hub {hub!r}, got target {q.target!r}"
        )
    if q.evidence:
        raise UnsupportedTopologyError("lifted evaluator does not accept evidence")
    hub_labels = _check_target(next((rv.range for rv in pfg.rvs if rv.name == hub), None), q)

    args_of = pfg.member_args
    group_of = [g for g, span in enumerate(pfg.groups()) for _ in span]
    held_by: dict[str, list[int]] = {}
    for i, args in enumerate(args_of):
        for a in args:
            held_by.setdefault(a, []).append(i)
    held_by.pop(hub, None)
    components: list[list[int]] = []
    solo: list[list[int]] = []
    placed = [False] * len(args_of)
    for i, args in enumerate(args_of):
        if placed[i]:
            continue
        # the RVs reached and not yet walked; each RV's members are taken once
        stack, component = list(args), []
        while stack:
            for j in held_by.pop(stack.pop(), ()):
                if not placed[j]:
                    placed[j] = True
                    component.append(j)
                    stack += args_of[j]
        if component:
            components.append(sorted(component))
        else:
            solo.append([i])
    classes: dict[tuple, list[list[int]]] = {}
    for component in components + solo:
        number = defaultdict(itertools.count(1).__next__, {hub: 0})
        flat = itertools.chain.from_iterable(map(args_of.__getitem__, component))
        key = (tuple(map(group_of.__getitem__, component)), tuple(map(number.__getitem__, flat)))
        classes.setdefault(key, []).append(component)

    reps = [group[0] for group in classes.values()]
    groups = [group_of[i] for rep in reps for i in rep]
    tables = {g: expand_crv(pfg.tables[g], pfg.crvs[g]) for g in set(groups)}
    source = list(map(tables.__getitem__, groups))
    scopes = [args_of[i] for rep in reps for i in rep]
    index = _index_scopes({hub}.union(*scopes), scopes)
    belief = np.ones(len(hub_labels), dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        store, rest, ops, order = _eliminate(
            list(index.args), source, index, index.number[hub], (), _kinds(source, {})
        )
        # each item's class; each eliminated RV had a live holder, so the j-th
        # one made item len(groups) + j, of its first holder's class
        owner = [c for c, rep in enumerate(reps) for _ in rep]
        owner += [owner[index.holders[v][0]] for v in order]
        last = dict(zip(map(owner.__getitem__, rest), rest))
        for c, group in enumerate(classes.values()):
            vector, cost = store.result([last[c]], len(hub_labels))
            belief *= vector ** len(group)
            ops += cost + len(hub_labels)
        return _normalise(belief, hub_labels, "lifted-star", ops)
