"""Ground and lifted query answering.

Three evaluators over the same Query contract: full enumeration (the
oracle), variable elimination with a min-degree order, and a lifted
evaluator for star-shaped compressed models that computes one message
per branch class and raises it to the class size instead of repeating
identical eliminations.

QueryResult.ops counts table entries written by products plus entries
read by marginalisations; it is a machine-independent proxy for work
used by the benchmark harness. For the lifted evaluator the count covers
only the numeric work, so it stays flat as the number of identical
branches grows, while ground VE grows linearly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .acp import ParfactorGraph, expand_crv
from .errors import InvariantError, UnsupportedTopologyError
from .model import Evidence, FactorGraph, joint_table

__all__ = [
    "Query",
    "QueryResult",
    "query_enumerate",
    "query_ve",
    "query_lifted_star",
    "quotient",
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
    distribution: dict[str, float]
    method: str
    ops: int = 0

    def __post_init__(self) -> None:
        total = sum(self.distribution.values())
        if abs(total - 1.0) > 1e-12:
            raise InvariantError(f"distribution sums to {total!r}, not 1")
        for label, p in self.distribution.items():
            if not 0.0 < p < 1.0:
                raise InvariantError(f"P({label})={p!r} outside (0, 1)")

    def __getitem__(self, label: str) -> float:
        return self.distribution[label]


def _validate_query(fg: FactorGraph, q: Query) -> None:
    if not fg.has_rv(q.target):
        raise InvariantError(f"unknown query target {q.target!r}")
    q.evidence.validate_against(fg)
    if q.value is not None and q.value not in fg.rv(q.target).range:
        raise InvariantError(
            f"value {q.value!r} is not a label of {q.target!r}"
        )


def _normalise(vector: np.ndarray, labels: tuple[str, ...], method: str, ops: int) -> QueryResult:
    total = float(vector.sum())
    if total <= 0.0 or not np.isfinite(total):
        raise InvariantError("query mass vanished; potentials must be positive")
    dist = {label: float(v / total) for label, v in zip(labels, vector)}
    # renormalise in float so the stored values sum to 1 exactly enough
    correction = sum(dist.values())
    dist = {k: v / correction for k, v in dist.items()}
    return QueryResult(dist, method, ops)


def query_enumerate(fg: FactorGraph, q: Query, cap: int | None = None) -> QueryResult:
    """Oracle evaluator: build the joint, slice evidence, sum out the rest."""
    _validate_query(fg, q)
    joint = joint_table(fg, cap)
    ops = joint.size
    index: list[object] = [slice(None)] * len(fg.rvs)
    for rv_name, label in q.evidence.as_dict().items():
        pos = fg.rv_position(rv_name)
        index[pos] = fg.rv(rv_name).index_of(label)
    sliced = joint[tuple(index)]
    remaining = [rv.name for rv in fg.rvs if rv.name not in q.evidence.as_dict()]
    target_axis = remaining.index(q.target)
    other_axes = tuple(i for i in range(sliced.ndim) if i != target_axis)
    vector = sliced.sum(axis=other_axes) if other_axes else sliced
    return _normalise(vector, fg.rv(q.target).range, "enumerate", ops)


# intermediate factors are plain (args, table) pairs; tables may be 0-d


def _reduce_evidence(
    fg: FactorGraph, evidence: Evidence
) -> list[tuple[tuple[str, ...], np.ndarray]]:
    observed = evidence.as_dict()
    out: list[tuple[tuple[str, ...], np.ndarray]] = []
    for f in fg.factors:
        args = f.args
        table = f.table
        for name, label in observed.items():
            if name in args:
                axis = args.index(name)
                table = np.take(table, fg.rv(name).index_of(label), axis=axis)
                args = args[:axis] + args[axis + 1 :]
        out.append((args, np.asarray(table, dtype=np.float64)))
    return out


def _multiply(
    a: tuple[tuple[str, ...], np.ndarray],
    b: tuple[tuple[str, ...], np.ndarray],
    sizes: dict[str, int],
) -> tuple[tuple[tuple[str, ...], np.ndarray], int]:
    args_a, tab_a = a
    args_b, tab_b = b
    args = args_a + tuple(v for v in args_b if v not in args_a)
    shape = tuple(sizes[v] for v in args)
    ta = tab_a.reshape(tab_a.shape + (1,) * (len(args) - len(args_a)))
    order_b = tuple(args_b.index(v) for v in args if v in args_b)
    tb_t = np.transpose(tab_b, order_b) if args_b else tab_b
    expand_b = tuple(sizes[v] if v in args_b else 1 for v in args)
    tb = tb_t.reshape(expand_b)
    result = ta * tb
    assert result.shape == shape
    return (args, result), result.size


def _sum_out(
    item: tuple[tuple[str, ...], np.ndarray], name: str
) -> tuple[tuple[tuple[str, ...], np.ndarray], int]:
    args, table = item
    axis = args.index(name)
    return (args[:axis] + args[axis + 1 :], table.sum(axis=axis)), table.size


def _min_degree_order(
    scopes: list[tuple[str, ...]], eliminable: set[str]
) -> list[str]:
    adjacency: dict[str, set[str]] = {v: set() for v in eliminable}
    for scope in scopes:
        for u, w in itertools.combinations(scope, 2):
            if u in adjacency:
                adjacency[u].add(w)
            if w in adjacency:
                adjacency[w].add(u)
    order: list[str] = []
    remaining = set(eliminable)
    while remaining:
        # degree counts all neighbours, eliminable or not
        pick = min(remaining, key=lambda v: (len(adjacency[v]), v))
        order.append(pick)
        neighbours = adjacency[pick] & remaining
        for u, w in itertools.combinations(sorted(neighbours), 2):
            adjacency[u].add(w)
            adjacency[w].add(u)
        for v in remaining:
            adjacency[v].discard(pick)
        remaining.remove(pick)
    return order


def _eliminate(
    items: list[tuple[tuple[str, ...], np.ndarray]],
    order: list[str],
    sizes: dict[str, int],
    target: str,
) -> tuple[np.ndarray, int]:
    """Bucket elimination of `order`, then the product of what is left.

    Returns the unnormalised vector over `target` and the ops spent. A
    0-d result (target in no remaining factor) becomes a constant vector.
    """
    ops = 0
    for name in order:
        bucket = [it for it in items if name in it[0]]
        items = [it for it in items if name not in it[0]]
        if not bucket:
            # disconnected rv: its sum is a constant that normalisation removes
            continue
        prod = bucket[0]
        for other in bucket[1:]:
            prod, cost = _multiply(prod, other, sizes)
            ops += cost
        marg, cost = _sum_out(prod, name)
        ops += cost
        items.append(marg)
    result: tuple[tuple[str, ...], np.ndarray] = ((), np.ones((), dtype=np.float64))
    for item in items:
        result, cost = _multiply(result, item, sizes)
        ops += cost
    args, table = result
    if args == ():
        return np.full(sizes[target], float(table)), ops
    assert args == (target,)
    return table, ops


def query_ve(
    fg: FactorGraph, q: Query, order: list[str] | None = None
) -> QueryResult:
    """Variable elimination; default order is greedy min-degree, ties by name."""
    _validate_query(fg, q)
    observed = q.evidence.as_dict()
    sizes = {rv.name: rv.size for rv in fg.rvs}
    items = _reduce_evidence(fg, q.evidence)
    eliminable = {
        rv.name for rv in fg.rvs if rv.name != q.target and rv.name not in observed
    }
    if order is None:
        order = _min_degree_order([args for args, _ in items], eliminable)
    else:
        if sorted(order) != sorted(eliminable):
            raise InvariantError(
                "elimination order must cover exactly the unobserved non-target rvs"
            )
    vector, ops = _eliminate(items, order, sizes, q.target)
    return _normalise(vector, fg.rv(q.target).range, "ve", ops)


def _components(
    members: list[tuple[int, str, tuple[str, ...]]], hub: str
) -> list[list[int]]:
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

    for _, _, args in members:
        internal = [a for a in args if a != hub]
        for a in internal:
            parent.setdefault(a, a)
        for a, b in zip(internal, internal[1:]):
            union(a, b)
    buckets: dict[str, list[int]] = {}
    solo: list[list[int]] = []
    for idx, (_, _, args) in enumerate(members):
        internal = [a for a in args if a != hub]
        if not internal:
            solo.append([idx])
        else:
            buckets.setdefault(find(internal[0]), []).append(idx)
    return list(buckets.values()) + solo


def query_lifted_star(pfg: ParfactorGraph, hub: str, q: Query) -> QueryResult:
    """Belief at the hub of a star of structurally identical branches.

    Branches sharing a parfactor signature contribute one message raised
    to the branch count; every further branch in a class costs O(1)
    numeric work. Evidence and non-hub targets are out of scope here and
    raise UnsupportedTopologyError, as do branches that cannot be mapped
    onto their class representative position by position.
    """
    if q.target != hub:
        raise UnsupportedTopologyError(
            f"lifted evaluator answers only the hub {hub!r}, got target {q.target!r}"
        )
    if q.evidence:
        raise UnsupportedTopologyError("lifted evaluator does not accept evidence")
    ranges: dict[str, tuple[str, ...]] = {}
    for cls in pfg.rv_classes:
        for name in cls.members:
            ranges[name] = cls.representative.range
    if hub not in ranges:
        raise InvariantError(f"unknown query target {hub!r}")
    hub_labels = ranges[hub]
    if q.value is not None and q.value not in hub_labels:
        raise InvariantError(f"value {q.value!r} is not a label of {hub!r}")

    members: list[tuple[int, str, tuple[str, ...]]] = []
    tables: dict[int, np.ndarray] = {}
    for pi, pf in enumerate(pfg.parfactors):
        tables[pi] = expand_crv(pf)
        for mname, margs in zip(pf.members, pf.member_args):
            members.append((pi, mname, margs))

    comps = _components(members, hub)
    ops = 0
    keyed: dict[tuple[int, ...], list[list[int]]] = {}
    for comp in comps:
        ids = sorted(members[i][0] for i in comp)
        if len(set(ids)) != len(ids):
            raise UnsupportedTopologyError(
                "a branch holds two members of one parfactor; branches must be copies"
            )
        keyed.setdefault(tuple(ids), []).append(comp)

    belief = np.ones(len(hub_labels), dtype=np.float64)
    for key, group in keyed.items():
        rep = group[0]
        rep_by_pf = {members[i][0]: members[i][2] for i in rep}
        for other in group[1:]:
            mapping: dict[str, str] = {hub: hub}
            reverse: dict[str, str] = {hub: hub}
            for i in other:
                pf_id, _, args = members[i]
                for a, b in zip(rep_by_pf[pf_id], args):
                    if mapping.setdefault(a, b) != b or reverse.setdefault(b, a) != a:
                        raise UnsupportedTopologyError(
                            "branches with equal parfactor signatures are not"
                            " structurally identical"
                        )
        # one message per signature, via elimination on the representative branch
        sub_items = [(members[i][2], tables[members[i][0]]) for i in rep]
        sizes = {hub: len(hub_labels)}
        for i in rep:
            for a in members[i][2]:
                sizes[a] = len(ranges[a])
        internal = sorted({a for i in rep for a in members[i][2] if a != hub})
        order = _min_degree_order([args for args, _ in sub_items], set(internal))
        vector, cost = _eliminate(sub_items, order, sizes, hub)
        ops += cost
        belief *= vector ** len(group)
        ops += len(hub_labels)
    return _normalise(belief, hub_labels, "lifted-star", ops)


def quotient(q: Query, m: FactorGraph, m_prime: FactorGraph) -> float:
    """P'(target=value | evidence) / P(target=value | evidence), both via VE."""
    if q.value is None:
        raise InvariantError("quotient needs a concrete query value")
    p = query_ve(m, q).distribution[q.value]
    p_prime = query_ve(m_prime, q).distribution[q.value]
    return p_prime / p
