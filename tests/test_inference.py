"""Query evaluators: enumeration oracle, variable elimination, lifted star."""

from __future__ import annotations

import itertools
import math
import pickle
import tracemalloc
import warnings
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liftcomp import (
    EnumerationCapError,
    Evidence,
    Factor,
    FactorGraph,
    GenConfig,
    InvariantError,
    LiftcompError,
    ParfactorGraph,
    Query,
    QueryResult,
    RandomVariable,
    UnsupportedTopologyError,
    generate_fg,
    ground,
    joint_table,
    perturb,
    query_enumerate,
    query_lifted_star,
    query_ve,
    run_eacp,
)
from liftcomp import inference, model
from liftcomp.acp import expand_crv
from liftcomp.model import _index_scopes, _kinds, clamp

from conftest import (
    binary_chain, counted_star, mixed_range_model, random_model, record_slabs, star_model,
)

TF = ("t", "f")


def dist_close(a: QueryResult, b: QueryResult, tol: float = 1e-10) -> bool:
    assert a.distribution.keys() == b.distribution.keys()
    return all(abs(a[k] - b[k]) <= tol for k in a.distribution)


class TestQueryContract:
    def test_rejects_observed_target(self):
        with pytest.raises(InvariantError):
            Query("A", Evidence((("A", "t"),)))

    def test_rejects_empty_target(self):
        with pytest.raises(InvariantError):
            Query("")

    def test_unknown_target(self, sales):
        with pytest.raises(InvariantError):
            query_ve(sales, Query("Nope"))

    def test_unknown_value_label(self, sales):
        with pytest.raises(InvariantError):
            query_ve(sales, Query("SalA", value="medium"))

    def test_result_must_sum_to_one(self):
        with pytest.raises(InvariantError):
            QueryResult({"t": 0.4, "f": 0.4}, "test", 0, {"t": np.log(0.4), "f": np.log(0.4)})

    def test_result_rejects_degenerate_mass(self):
        with pytest.raises(InvariantError):
            QueryResult({"t": 1.0, "f": 0.0}, "test", 0, {"t": 0.0, "f": -np.inf})

    def test_result_rejects_inconsistent_logs(self):
        for logs in ({"t": 0.0, "f": -np.inf}, {"t": np.nan, "f": 0.0}, {"t": np.inf, "f": 0.0},
                     {"t": -0.1, "f": -0.1}):
            with pytest.raises(InvariantError, match="must be finite with log-sum-exp 0"):
                QueryResult({"t": 0.5, "f": 0.5}, "test", 0, logs)
        with pytest.raises(InvariantError, match="label different values"):
            QueryResult({"t": 0.5, "f": 0.5}, "test", 0, {"t": -0.69})

    def test_result_accepts_saturated_vector(self):
        # P(t) = 1 / (1 + 1.3e16) is 7.7e-17, so P(f) rounds to 1.0; the
        # log-probabilities taken from the unnormalised vector stay finite
        fg = FactorGraph((RandomVariable("A", TF),), (Factor("u", ("A",), [1.0, 1.3e16]),))
        res = query_ve(fg, Query("A"))
        assert res["f"] == 1.0 and 0.0 < res["t"] < 1e-16
        assert res.log_distribution["t"] == pytest.approx(-np.log(1.3e16), rel=1e-14)
        assert res.log_distribution["f"] == pytest.approx(0.0, abs=1e-15)

    def test_result_rejects_a_zero_entry(self):
        # each unary factor is positive, their product underflows to 0 at "t"
        fg = FactorGraph(
            (RandomVariable("A", TF),),
            (Factor("u1", ("A",), [1e-200, 1.0]), Factor("u2", ("A",), [1e-200, 1.0])),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvariantError, match=r"'t': -inf.* must be finite"):
                query_ve(fg, Query("A"))

    def test_getitem(self, sales):
        res = query_ve(sales, Query("SalA"))
        assert res["high"] == res.distribution["high"]

    @pytest.mark.parametrize("evaluate", [query_ve, query_enumerate])
    @pytest.mark.parametrize("n, table, message", [
        (4, [1e200, 2e200], "left the float64 range"),
        (4, [1e-200, 2e-200], "underflowed float64"),
        (2, [1e154, 1e154], "left the float64 range"),   # finite joint, its sums overflow
        (1, [1e308, 1e308], "left the float64 range"),   # the total mass overflows
    ])
    def test_mass_outside_float64_is_a_typed_error(self, evaluate, n, table, message):
        # strictly positive unary potentials whose products or sums leave
        # float64, with no numpy warning ahead of the error
        rvs = tuple(RandomVariable(f"V{i}", TF) for i in range(n))
        fg = FactorGraph(rvs, tuple(Factor(f"f{i}", (f"V{i}",), table) for i in range(n)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvariantError, match=message):
                evaluate(fg, Query("V0"))


class TestEnumerate:
    def test_sales_conditional(self, sales):
        res = query_enumerate(sales, Query("SalA", Evidence((("Rev", "high"),))))
        assert res["high"] == pytest.approx(0.6097560975609756, abs=1e-15)
        assert res.method == "enumerate"

    def test_cap_respected(self, sales, monkeypatch):
        monkeypatch.setenv("LIFTCOMP_ENUM_CAP", "4")
        with pytest.raises(EnumerationCapError):
            query_enumerate(sales, Query("SalA"))


def whole_joint_enumerate(fg, q):
    """Reference: query_enumerate as it was before slabs, over the full joint."""
    held = q.evidence.validate_against(fg)
    joint = joint_table(fg)
    remaining, sliced = clamp(tuple(rv.name for rv in fg.rvs), joint, held)
    other_axes = tuple(i for i, name in enumerate(remaining) if name != q.target)
    vector = sliced.sum(axis=other_axes) if other_axes else sliced
    return inference._normalise(vector, fg.rv(q.target).range, "enumerate", joint.size)


def random_query(rng, fg):
    """A random target, each other RV observed at a random label with probability 0.3."""
    target = fg.rvs[int(rng.integers(len(fg.rvs)))].name
    observed = tuple(
        (rv.name, rv.range[int(rng.integers(rv.size))])
        for rv in fg.rvs if rv.name != target and rng.random() < 0.3
    )
    return Query(target, Evidence(observed))


class TestEnumerateSlabs:
    def test_matches_whole_joint_reference(self, monkeypatch):
        rng = np.random.default_rng(6)
        calls = record_slabs(monkeypatch)
        multi_slab = walked = free = all_held_factor = zero_d = 0
        for i in range(300):
            fg = mixed_range_model(rng) if i % 2 else random_model(rng)
            q = random_query(rng, fg)
            observed = math.prod(fg.rv(name).size for name, _ in q.evidence.items)
            # small slab bounds make the evidence slice span many slabs
            bound = max(1, fg.state_count() // observed >> int(rng.integers(0, 7)))
            monkeypatch.setattr(model, "SLAB_STATES", bound)
            calls.clear()
            res = query_enumerate(fg, q)
            slabs = list(calls)
            ref = whole_joint_enumerate(fg, q)
            assert res.ops == ref.ops == fg.state_count()
            for label, p in ref.distribution.items():
                assert res[label] == pytest.approx(p, rel=1e-12, abs=0.0)
            assert dist_close(res, query_ve(fg, q))
            held = slabs[0][0]
            assert sum(size for _, size in slabs) * observed == fg.state_count()
            assert max(size for _, size in slabs) <= bound
            multi_slab += len(slabs) > 1
            walked += q.target in held
            free += q.target not in held
            all_held_factor += any(set(f.args) <= held.keys() for f in fg.factors)
            zero_d += len(held) == len(fg.rvs)
        assert multi_slab > 200 and walked > 150 and free > 70
        assert all_held_factor > 180 and zero_d > 100

    def test_memory_stays_within_two_slabs(self):
        # 2^22 states: the full joint would take 32 MiB
        fg = binary_chain(22, np.random.default_rng(3))
        queries = (
            Query("V21"),
            Query("V0", Evidence((("V21", "b"),))),
            Query("V10", Evidence((("V3", "a"),))),
        )
        for q in queries:
            tracemalloc.start()
            try:
                res = query_enumerate(fg, q)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            # two slabs of float64, then the output and the walk's bookkeeping
            assert peak < 2 * 8 * model.SLAB_STATES + 2**16
            assert res.ops == fg.state_count()

    def test_cap_checked_on_the_full_joint_before_any_allocation(self, monkeypatch):
        fg = binary_chain(22, np.random.default_rng(4))
        monkeypatch.setenv("LIFTCOMP_ENUM_CAP", str(2**20))
        # the evidence slice has 2^19 states, under the cap; the joint is over it
        q = Query("V21", Evidence(tuple((f"V{i}", "a") for i in range(3))))
        tracemalloc.start()
        try:
            with pytest.raises(EnumerationCapError):
                query_enumerate(fg, q)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**16


class TestVariableElimination:
    def test_matches_enumeration_randomised(self):
        rng = np.random.default_rng(21)
        for _ in range(60):
            fg = random_model(rng)
            names = [rv.name for rv in fg.rvs]
            target = names[int(rng.integers(len(names)))]
            ev = Evidence()
            if len(names) > 1 and rng.random() < 0.5:
                other = [n for n in names if n != target]
                picked = other[int(rng.integers(len(other)))]
                ev = Evidence(((picked, TF[int(rng.integers(2))]),))
            q = Query(target, ev)
            assert dist_close(query_ve(fg, q), query_enumerate(fg, q))

    def test_all_others_observed(self, sales):
        ev = Evidence((("SalB", "low"), ("Rev", "high")))
        q = Query("SalA", ev)
        assert dist_close(query_ve(sales, q), query_enumerate(sales, q))

    def test_disconnected_target_uniform(self):
        rvs = (
            RandomVariable("A", TF),
            RandomVariable("B", TF),
            RandomVariable("C", ("x", "y", "z")),
        )
        f = Factor("f0", ("A", "B"), np.array([[1.0, 2.0], [3.0, 4.0]]))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            fg = FactorGraph(rvs, (f,))
        res = query_ve(fg, Query("C"))
        assert all(p == pytest.approx(1 / 3, abs=1e-15) for p in res.distribution.values())
        assert dist_close(res, query_enumerate(fg, Query("C")))

    def test_model_without_factors_uniform(self):
        with pytest.warns(UserWarning, match="isolated rvs"):
            fg = FactorGraph((RandomVariable("C", ("x", "y", "z")),), ())
        res = query_ve(fg, Query("C"))
        assert res.distribution == {label: 1 / 3 for label in ("x", "y", "z")}
        assert res.ops == 0

    def test_deterministic(self, sales_three):
        q = Query("Rev", Evidence((("SalA", "high"),)))
        a = query_ve(sales_three, q)
        b = query_ve(sales_three, q)
        assert a.distribution == b.distribution and a.ops == b.ops


class TestModelIndex:
    def test_queries_leave_the_index_unchanged(self):
        # the index is shared by every graph replace_tables makes, so a
        # query must not change it
        fg = star_model(16, 3)
        before = pickle.dumps(fg._index)
        query_ve(fg, Query("Hub", Evidence((("B2_2", "t"),))))
        query_ve(fg, Query("B3_2", Evidence((("B1_1", "f"), ("Hub", "t")))))
        assert pickle.dumps(fg._index) == before

    @pytest.mark.parametrize("observed", [(), ("B2_2",), ("Hub", "B1_1")])
    def test_clamps_only_factors_that_hold_evidence(self, observed, monkeypatch):
        calls = []

        def counted(args, table, held):
            calls.append(args)
            return clamp(args, table, held)

        monkeypatch.setattr(inference, "clamp", counted)
        fg = star_model(4, 3)
        query_ve(fg, Query("B3_3", Evidence(tuple((v, "t") for v in observed))))
        holding = [f for f in fg.factors if set(observed).intersection(f.args)]
        assert len(calls) == len(holding)
        assert sorted(calls) == sorted(fg._index.args[fg._factor_pos[f.name]] for f in holding)


# -- reference: the elimination loops that scan every RV and item per step,
# the product by reshape and transpose, and evidence fixed by np.take --


def reference_reduce_evidence(fg, evidence):
    observed = evidence.as_dict()
    out = []
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


def reference_multiply(a, b, sizes):
    args_a, tab_a = a
    args_b, tab_b = b
    args = args_a + tuple(v for v in args_b if v not in args_a)
    ta = tab_a.reshape(tab_a.shape + (1,) * (len(args) - len(args_a)))
    order_b = tuple(args_b.index(v) for v in args if v in args_b)
    tb_t = np.transpose(tab_b, order_b) if args_b else tab_b
    tb = tb_t.reshape(tuple(sizes[v] if v in args_b else 1 for v in args))
    result = ta * tb
    assert result.shape == tuple(sizes[v] for v in args)
    return (args, result), result.size


def reference_min_degree_order(scopes, eliminable):
    adjacency = {v: set() for v in eliminable}
    for scope in scopes:
        for u, w in itertools.combinations(scope, 2):
            if u in adjacency:
                adjacency[u].add(w)
            if w in adjacency:
                adjacency[w].add(u)
    order = []
    remaining = set(eliminable)
    while remaining:
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


def reference_plan(scopes, tables, eliminable):
    """Each message's (batch, scope) when the reference order's buckets batch by signature.

    Items are numbered in creation order, inputs first, and a bucket is
    its RV's live items in that order. An input's kind numbers its
    layout (shape and strides), a message's is its batch. A bucket's
    signature is its length, its items' kinds and their arguments
    numbered by first occurrence from the eliminated RV; buckets of one
    signature share a batch, numbered as batches first appear. A
    message's scope is its bucket's arguments less the eliminated RV, in
    order of first occurrence.
    """
    layouts: dict = {}
    kinds = [("input", layouts.setdefault((t.shape, t.strides), len(layouts))) for t in tables]
    items = list(scopes)
    live = [True] * len(items)
    batches: dict = {}
    plan = []
    for name in reference_min_degree_order(scopes, eliminable):
        bucket = [i for i, args in enumerate(items) if live[i] and name in args]
        if not bucket:
            continue
        flat = [name] + [a for i in bucket for a in items[i]]
        first = list(dict.fromkeys(flat))
        signature = (len(bucket), *(kinds[i] for i in bucket), *map(first.index, flat))
        batch = batches.setdefault(signature, len(batches))
        plan.append((batch, tuple(first[1:])))
        for i in bucket:
            live[i] = False
        items.append(tuple(first[1:]))
        kinds.append(("message", batch))
        live.append(True)
    return plan


def reference_eliminate(items, order, sizes, target):
    ops = 0
    for name in order:
        bucket = [it for it in items if name in it[0]]
        items = [it for it in items if name not in it[0]]
        if not bucket:
            continue
        prod = bucket[0]
        for other in bucket[1:]:
            prod, cost = reference_multiply(prod, other, sizes)
            ops += cost
        marg, cost = inference._sum_out(prod, name)
        ops += cost
        items.append(marg)
    result = ((), np.ones((), dtype=np.float64))
    for item in items:
        result, cost = reference_multiply(result, item, sizes)
        ops += cost
    args, table = result
    if args == ():
        return np.full(sizes[target], float(table)), ops
    return table, ops


@st.composite
def ve_cases(draw, star=False):
    """A model on up to 14 RVs, a target and at most one evidence atom.

    Scopes of 1-4 RVs over few names tie on degree often, hold the target
    next to eliminable RVs, leave some RVs in no scope, and make fill-in
    raise a degree, which leaves a stale heap entry below the current one.
    At most one RV has 8 labels: numpy sums an axis of 8 or more pairwise
    when it is the innermost in memory, so only such sums show a product
    laid out in memory unlike the reference's.

    With star=True the model is a star (star_ve_case), whose alike
    branches make VE batch many buckets.
    """
    if star:
        return draw(star_ve_case())
    n = draw(st.integers(2, 14))
    wide = draw(st.integers(-1, n - 1))
    rvs = tuple(
        RandomVariable(
            f"V{i}", tuple("abcdefgh")[: 8 if i == wide else draw(st.integers(2, 3))]
        )
        for i in range(n)
    )
    names = [rv.name for rv in rvs]
    scopes = [
        tuple(draw(st.permutations(names))[: draw(st.integers(1, 4))])
        for _ in range(draw(st.integers(1, 16)))
    ]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sizes = {rv.name: rv.size for rv in rvs}
    factors = tuple(
        Factor(f"f{i}", scope, rng.uniform(0.1, 2.0, [sizes[a] for a in scope]))
        for i, scope in enumerate(scopes)
    )
    target = draw(st.sampled_from(names))
    evidence = Evidence()
    if draw(st.booleans()):
        observed = draw(st.sampled_from([v for v in names if v != target]))
        evidence = Evidence(((observed, "b"),))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")   # RVs in no scope are part of the sample
        fg = FactorGraph(rvs, factors)
    return fg, Query(target, evidence)


@st.composite
def star_ve_case(draw):
    """A hub with 2-24 chains drawn from 1-3 templates, a target, evidence.

    Chains of one template have the same depth, label counts and argument
    orders, and often the very same tables, so their buckets batch; with
    the hub or a leaf as the target, the hub's bucket or the final product
    holds one message per chain, a run of like items longer than a fold
    needs. A template may put 9 unary factors on its leaf, a run inside
    every one of its chains' leaf buckets, and may give one RV 8 labels,
    which numpy sums pairwise. Evidence holds up to two RVs; holding both
    ends of a link clamps that factor to a 0-d table.
    """
    hub_size = draw(st.integers(2, 3))
    templates = []
    for _ in range(draw(st.integers(1, 3))):
        depth = draw(st.integers(1, 3))
        sizes = [draw(st.sampled_from([2, 2, 3, 8])) for _ in range(depth)]
        flips = [draw(st.booleans()) for _ in range(depth)]
        unary = draw(st.sampled_from([0, 1, 9]))
        templates.append((depth, sizes, flips, unary))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shared = [
        [rng.uniform(0.5, 1.5, (hub_size if d == 0 else sizes[d - 1], sizes[d]))
         for d in range(depth)]
        for depth, sizes, _, _ in templates
    ]
    rvs = [RandomVariable("H", tuple("abcdefgh")[:hub_size])]
    factors = []
    for c in range(draw(st.integers(2, 24))):
        t = draw(st.integers(0, len(templates) - 1))
        depth, sizes, flips, unary = templates[t]
        own = draw(st.booleans())
        chain = ["H"] + [f"B{c}_{d}" for d in range(depth)]
        rvs += [RandomVariable(name, tuple("abcdefgh")[:n]) for name, n in zip(chain[1:], sizes)]
        for d in range(depth):
            table = shared[t][d] * (rng.uniform(0.9, 1.1, shared[t][d].shape) if own else 1.0)
            args = (chain[d], chain[d + 1])
            if flips[d]:
                args, table = args[::-1], table.T
            factors.append(Factor(f"f{c}_{d}", args, table))
        for u in range(unary):
            factors.append(Factor(f"u{c}_{u}", (chain[-1],), rng.uniform(0.5, 1.5, sizes[-1])))
    names = [rv.name for rv in rvs]
    target = draw(st.sampled_from(["H", names[-1], draw(st.sampled_from(names))]))
    others = [v for v in names if v != target]
    held = draw(st.lists(st.sampled_from(others), max_size=2, unique=True))
    if len(held) == 2 and draw(st.booleans()):
        # both ends of one link, so that factor clamps to a 0-d table
        link = [f for f in factors if len(f.args) == 2 and target not in f.args]
        held = list(draw(st.sampled_from(link)).args) if link else held
    fg = FactorGraph(tuple(rvs), tuple(factors))
    return fg, Query(target, Evidence(tuple((v, "b") for v in held)))


def walk(items, sizes, target, held=()):
    """VE's walk over items whose arguments are names: order, vector and ops.

    The index is built over the items' scopes as query_lifted_star builds
    it, the RVs being those of sizes; every RV but the target and the held
    ones is eliminated, and the order must be the reference loop's.
    """
    scopes = [args for args, _ in items]
    index = _index_scopes(sizes, scopes)
    number = index.number
    tables = [table for _, table in items]
    store, rest, ops, order = inference._eliminate(
        list(index.args),
        tables,
        index,
        number[target],
        [number[v] for v in held],
        _kinds(tables, {}),
    )
    vector, cost = store.result(rest, sizes[target])
    ops += cost
    names = sorted(sizes)
    order = [names[v] for v in order]
    eliminable = set(sizes) - {target} - set(held)
    assert order == reference_min_degree_order(scopes, eliminable)
    return order, vector, ops


def check_against_reference(fg, q):
    """VE's clamped items, order, vector and ops equal the reference loops'."""
    held = {name: fg.rv(name).index_of(label) for name, label in q.evidence.items}
    items = [clamp(f.args, f.table, held) for f in fg.factors]
    ref_items = reference_reduce_evidence(fg, q.evidence)
    assert [args for args, _ in items] == [args for args, _ in ref_items]
    assert [t.tobytes() for _, t in items] == [t.tobytes() for _, t in ref_items]
    sizes = {rv.name: rv.size for rv in fg.rvs}
    order, vector, ops = walk(items, sizes, q.target, held)
    ref_vector, ref_ops = reference_eliminate(ref_items, order, sizes, q.target)
    assert vector.tobytes() == ref_vector.tobytes()
    assert ops == ref_ops
    res = query_ve(fg, q)
    ref = inference._normalise(ref_vector, fg.rv(q.target).range, "ve", ref_ops)
    assert (res.distribution, res.log_distribution, res.ops) == (
        ref.distribution, ref.log_distribution, ref.ops,
    )
    return items


@contextmanager
def regime(planned):
    """VE plans every elimination in batches, or runs every bucket as it forms."""
    with mock.patch.object(inference, "_MIN_PLAN", 0 if planned else 10**9):
        yield


def check_plan(store, index, items, target, held=()):
    """A planned _eliminate's messages have the reference plan's batches and scopes.

    items are the inputs as (argument numbers, table) pairs, the held
    RVs clamped out; store is what _eliminate returned for them.
    """
    scopes = [args for args, _ in items]
    eliminable = set(index.number.values()) - {target} - set(held)
    expected = reference_plan(scopes, [table for _, table in items], eliminable)
    made = range(len(items), len(store.args))
    assert [(~store.kind[m], store.args[m]) for m in made] == expected


def check_model_plan(fg, q):
    """check_plan on the _eliminate call query_ve makes, the model's kinds included."""
    stores = []

    def recorded(*args, _call=inference._eliminate):
        result = _call(*args)
        stores.append(result[0])
        return result

    index = fg._index
    held = {index.number[v]: fg.rv(v).index_of(label) for v, label in q.evidence.items}
    items = [clamp(args, f.table, held) for args, f in zip(index.args, fg.factors)]
    with regime(planned=True), mock.patch.object(inference, "_eliminate", recorded):
        query_ve(fg, q)
    check_plan(stores[0], index, items, index.number[q.target], held)


def hand_built_buckets(case, rng):
    """Items over chains hung on the hub H whose buckets take one shape, in two wirings.

    Every RV has two labels, so a wiring's items share their kinds and
    only the argument order tells its buckets apart.
    """
    items = []
    for c in range(8):
        a, b = f"A{c}", f"B{c}"
        flip = c % 2

        def table(*args):
            return args, rng.uniform(0.5, 1.5, (2,) * len(args))

        if case == "link then unary":
            # a chain step: B's bucket is its link, then its unary input
            items += [table(*(("H", b), (b, "H"))[flip]), table(b)]
        elif case == "unary then wide":
            items += [table(b), table(*(("H", b), (b, "H"))[flip])]
        elif case == "wide message, unary input":
            # A goes first; B's bucket is its unary input, then the message over B and H
            items += [table(b), table(*((a, b, "H"), (a, "H", b))[flip])]
        elif case == "two unary":
            # the leaf A goes first; B's bucket is its unary input, then the
            # message over B, or two unary inputs
            items += [table(b), table(b, a) if flip else table(b)]
        elif case == "second shares another rv":
            items += [table(a, b), table(*((a, b), (b, a))[flip]), table(b, "H")]
        else:
            raise ValueError(case)
    sizes = dict.fromkeys({v for args, _ in items for v in args} | {"H"}, 2)
    return items, sizes


BUCKET_SHAPES = [
    "link then unary", "unary then wide", "wide message, unary input", "two unary",
    "second shares another rv",
]


class TestIndexedElimination:
    @settings(max_examples=300, deadline=None)
    @given(case=ve_cases())
    def test_matches_reference_loops(self, case):
        for planned in (False, True):
            with regime(planned):
                check_against_reference(*case)
        check_model_plan(*case)

    @settings(max_examples=300, deadline=None)
    @given(case=ve_cases(star=True))
    def test_stars_match_reference_loops(self, case):
        for planned in (False, True):
            with regime(planned):
                check_against_reference(*case)
        check_model_plan(*case)

    def test_result_over_two_rvs_is_a_typed_error(self):
        # every item left over after elimination spans the target or nothing
        store = inference._Store([(0,), (0, 1)], [np.ones(2), np.ones((2, 3))], [0, 1])
        with pytest.raises(InvariantError, match="span 2 RVs"):
            store.result([0, 1], 2)

    @pytest.mark.parametrize("case", BUCKET_SHAPES)
    @pytest.mark.parametrize("target", ["H", "B0"])
    def test_plan_on_hand_built_buckets(self, case, target):
        items, sizes = hand_built_buckets(case, np.random.default_rng(0))
        index = _index_scopes(sizes, [args for args, _ in items])
        tables = [table for _, table in items]
        with regime(planned=True):
            store, _, _, _ = inference._eliminate(
                list(index.args), tables, index, index.number[target], (), _kinds(tables, {})
            )
            order, vector, ops = walk(items, sizes, target)
        check_plan(store, index, list(zip(index.args, (t for _, t in items))), index.number[target])
        ref_vector, ref_ops = reference_eliminate(items, order, sizes, target)
        assert (vector.tobytes(), ops) == (ref_vector.tobytes(), ref_ops)

    @pytest.mark.parametrize("seed", range(6))
    def test_transposed_inputs_keep_their_layout(self, seed):
        # the lifted evaluator passes tables that are transposed views; a
        # batch stacks them in their own memory order, so every sum is the
        # one the reference loops make, 8-label axes included
        rng = np.random.default_rng(seed)
        sizes = {"H": 3}
        items = []
        for c in range(12):
            a, b = f"A{c}", f"B{c}"
            sizes[a], sizes[b] = 8, 3
            for x, y in (("H", a), (a, b)):
                table = rng.uniform(0.5, 1.5, (sizes[y], sizes[x]))
                items.append(((x, y), table.T) if c % 3 else ((y, x), table))
            items.append(((b,), rng.uniform(0.5, 1.5, (3,))))
        for target in ("H", "B0"):
            with regime(planned=True):
                order, vector, ops = walk(items, sizes, target)
            ref_vector, ref_ops = reference_eliminate(items, order, sizes, target)
            assert (vector.tobytes(), ops) == (ref_vector.tobytes(), ref_ops)

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("orient", [0, 1])
    def test_gathered_messages_keep_their_layout(self, seed, orient):
        # each A<c> bucket sums a transposed 3-d view, leaving a (P, Q)
        # message laid out Q-major; P<c>'s hub factors alternate argument
        # order, so each P batch gathers every other message, and summing
        # an 8-label P shows any change to the gathered layout
        rng = np.random.default_rng(seed)
        sizes = {"H": 2}
        items = []
        for c in range(16):
            a, p, q = f"A{c}", f"P{c}", f"Q{c}"
            sizes[a], sizes[p], sizes[q] = 2, 8, 8
            items.append(((a, p, q), rng.uniform(0.5, 1.5, (8, 8, 2)).T))
            if c % 2 == orient:
                items.append(((p, "H"), rng.uniform(0.5, 1.5, (8, 2))))
            else:
                items.append((("H", p), rng.uniform(0.5, 1.5, (2, 8))))
            items.append(((q, "H"), rng.uniform(0.5, 1.5, (8, 2))))
        with regime(planned=True):
            order, vector, ops = walk(items, sizes, "H")
        ref_vector, ref_ops = reference_eliminate(items, order, sizes, "H")
        assert (vector.tobytes(), ops) == (ref_vector.tobytes(), ref_ops)

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("transposed", [False, True])
    def test_run_after_a_transposed_factor(self, seed, transposed):
        # each X<c> bucket is a hub factor then 9 unary factors, a run; when
        # the hub factor is a transposed view, one multiply at a time keeps
        # its X-minor layout, so the run must not become one fold
        rng = np.random.default_rng(seed)
        sizes = {"H": 3}
        items = []
        for c in range(4):
            x = f"X{c}"
            sizes[x] = 8
            table = rng.uniform(0.5, 1.5, (3, 8))
            items.append(((x, "H"), table.T) if transposed else (("H", x), table))
            items += [((x,), rng.uniform(0.5, 1.5, 8)) for _ in range(9)]
        with regime(planned=True):
            order, vector, ops = walk(items, sizes, "H")
        ref_vector, ref_ops = reference_eliminate(items, order, sizes, "H")
        assert (vector.tobytes(), ops) == (ref_vector.tobytes(), ref_ops)

    def test_fully_held_factor(self):
        # evidence holds both arguments of f1, which clamps to a 0-d table
        rvs = tuple(RandomVariable(f"V{i}", ("a", "b", "c")[: 2 + i % 2]) for i in range(4))
        rng = np.random.default_rng(5)
        factors = tuple(
            Factor(f"f{i}", scope, rng.uniform(0.1, 2.0, [rvs[int(a[1])].size for a in scope]))
            for i, scope in enumerate([("V0", "V1"), ("V2", "V1"), ("V1", "V3"), ("V2",)])
        )
        fg = FactorGraph(rvs, factors)
        q = Query("V0", Evidence((("V1", "c"), ("V2", "b"))))
        with regime(planned=True):
            check_against_reference(fg, q)
        items = check_against_reference(fg, q)
        assert items[1][0] == () and items[1][1].ndim == 0

    def test_fill_in_after_evidence(self):
        # the cycle A-B-...-G with the chord A-D; evidence on G lowers the
        # degree of A, which goes first and joins B and D by a fill-in edge,
        # and then B's neighbours C and D are already adjacent
        names = "ABCDEFG"
        scopes = [*zip(names, names[1:] + names[0]), ("A", "D")]
        rvs = tuple(RandomVariable(v, ("a", "b", "c")[: 2 + i % 2]) for i, v in enumerate(names))
        sizes = {rv.name: rv.size for rv in rvs}
        rng = np.random.default_rng(3)
        fg = FactorGraph(rvs, tuple(
            Factor(f"f{i}", scope, rng.uniform(0.1, 2.0, [sizes[a] for a in scope]))
            for i, scope in enumerate(scopes)
        ))
        q = Query("F", Evidence((("G", "b"),)))
        # the model's index, which holds the evidence, as query_ve passes it
        index = fg._index
        held = {index.number["G"]: 1}
        items = [clamp(args, f.table, held) for args, f in zip(index.args, fg.factors)]
        ref_items = reference_reduce_evidence(fg, q.evidence)
        eliminable = set(names) - {"F", "G"}
        for planned in (False, True):
            with regime(planned):
                tables = [table for _, table in items]
                store, rest, ops, order = inference._eliminate(
                    [args for args, _ in items], tables,
                    index, index.number["F"], held, _kinds(tables, {}),
                )
                vector, cost = store.result(rest, sizes["F"])
                check_against_reference(fg, q)
            order = [names[v] for v in order]
            expected = reference_min_degree_order([args for args, _ in ref_items], eliminable)
            assert order == expected == list("ABCDE")
            ref_vector, ref_ops = reference_eliminate(ref_items, order, sizes, "F")
            assert (vector.tobytes(), ops + cost) == (ref_vector.tobytes(), ref_ops)

    def test_order_on_a_star(self):
        # every leaf has degree 1 and ties by name; the hub, not eliminable,
        # counts as a neighbour, so the centre waits until its leaves are gone
        scopes = [("Hub", "C"), ("C", "L2"), ("C", "L1"), ("C", "L3")]
        items = [(scope, np.ones((2, 2))) for scope in scopes]
        sizes = dict.fromkeys(["Hub", "C", "L1", "L2", "L3"], 2)
        for planned in (False, True):
            with regime(planned):
                order, _, _ = walk(items, sizes, "Hub")
            assert order == ["L1", "L2", "L3", "C"]


class TestBatchedElimination:
    QUERIES = [
        Query("Hub"),
        Query("B1_3"),
        Query("B1_1"),
        Query("Hub", Evidence((("B2_2", "t"),))),
        Query("B3_2", Evidence((("B1_1", "f"),))),
    ]

    @pytest.mark.parametrize("q", QUERIES, ids=lambda q: f"{q.target}|{q.evidence.items}")
    def test_numpy_calls_flat_in_branch_count(self, q, monkeypatch):
        # every product goes through _multiply or _fold and every sum
        # through _sum_out; alike branches share those calls, so their
        # number does not grow from 16 branches to 128
        counts = {}
        for name in ("_multiply", "_fold", "_sum_out"):
            def counted(*args, _call=getattr(inference, name), _name=name):
                counts[_name] = counts.get(_name, 0) + 1
                return _call(*args)

            monkeypatch.setattr(inference, name, counted)
        calls = []
        for k in (16, 128):
            counts.clear()
            query_ve(star_model(k, 3), q)
            calls.append(dict(counts))
        assert calls[0] == calls[1]
        assert calls[0]["_fold"] == 1   # the one message per branch is a run


    def test_short_eliminations_run_bucket_by_bucket(self, monkeypatch):
        # below _MIN_PLAN eliminated RVs every bucket is summed as it forms;
        # from there on alike buckets share their calls
        sums = []

        def counted(*args, _call=inference._sum_out):
            sums.append(args[1])
            return _call(*args)

        monkeypatch.setattr(inference, "_sum_out", counted)
        for k, expected in ((2, 6), (16, 3)):
            sums.clear()
            query_ve(star_model(k, 3), Query("Hub"))
            assert len(sums) == expected
        assert 6 < inference._MIN_PLAN <= 48


class TestCountedStar:
    @pytest.mark.parametrize("eps", [0.0, 0.1])
    def test_branch_pair_is_counted(self, eps):
        res = run_eacp(counted_star(8), eps)
        assert [crv.positions for crv in res.pfg.crvs if crv is not None] == [(0, 1)]

    @pytest.mark.parametrize("noise, eps", [(0.0, 0.0), (0.0, 0.1), (0.03, 0.1)],
                             ids=["exact-eps0", "exact", "perturbed"])
    @pytest.mark.parametrize("k", [2, 16, 128])
    def test_lifted_hub_matches_ve(self, k, noise, eps):
        fg = counted_star(k, noise, seed=k)
        res = run_eacp(fg, eps)
        assert any(crv is not None for crv in res.pfg.crvs)
        lifted = query_lifted_star(res.pfg, "Hub", Query("Hub"))
        reference = query_ve(res.m_prime, Query("Hub"))
        assert dist_close(lifted, reference)
        for label, lp in reference.log_distribution.items():
            assert lifted.log_distribution[label] == pytest.approx(lp, abs=1e-10)


# (a's arguments, b's arguments) for each relation of b's scope to a's
SCOPE_RELATIONS = {
    "equal": (("A", "B", "C"), ("A", "B", "C")),
    "suffix": (("A", "B", "C"), ("B", "C")),
    "ordered subsequence": (("A", "B", "C"), ("A", "C")),
    "out-of-order subset": (("A", "B", "C"), ("C", "A")),
    "widening": (("A", "B"), ("B", "C")),
    "widening out of order": (("B", "C"), ("A", "B")),
    "0-d left": ((), ("A", "B")),
    "0-d right": (("A", "B"), ()),
}


def operand(args, sizes, rng, clamped):
    """A table over args; clamped, a view with an extra held axis at the end."""
    shape = [sizes[a] for a in args]
    if not clamped:
        return args, rng.uniform(0.1, 2.0, shape)
    return clamp(args + ("H",), rng.uniform(0.1, 2.0, shape + [3]), {"H": 1})


class TestMultiply:
    @pytest.mark.parametrize("wide", [None, "A", "B", "C"])
    @pytest.mark.parametrize("clamped", [False, True], ids=["contiguous", "clamped"])
    @pytest.mark.parametrize("relation", list(SCOPE_RELATIONS))
    def test_matches_reference(self, relation, clamped, wide):
        # an 8-label axis is summed pairwise where it is innermost in memory,
        # so every sum of the product also checks its layout
        sizes = {"A": 2, "B": 3, "C": 2}
        if wide:
            sizes[wide] = 8
        rng = np.random.default_rng(0)
        args_a, args_b = SCOPE_RELATIONS[relation]
        a = operand(args_a, sizes, rng, clamped)
        b = operand(args_b, sizes, rng, clamped)
        (args, table), ops = inference._multiply(a, b)
        (ref_args, ref_table), ref_ops = reference_multiply(a, b, sizes)
        assert (args, ops) == (ref_args, ref_ops)
        assert table.tobytes() == ref_table.tobytes()
        for name in args:
            (_, summed), _ = inference._sum_out((args, table), name)
            (_, ref_summed), _ = inference._sum_out((ref_args, ref_table), name)
            assert summed.tobytes() == ref_summed.tobytes()


def reference_components(members, hub):
    """Group member factors by connectivity through non-hub arguments (union-find)."""
    parent = {}

    def find(x):
        while parent.get(x, x) != x:
            parent[x] = parent.get(parent[x], parent[x])
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[rx] = ry

    for _, args in members:
        internal = [a for a in args if a != hub]
        for a in internal:
            parent.setdefault(a, a)
        for a, b in zip(internal, internal[1:]):
            union(a, b)
    buckets = {}
    solo = []
    for idx, (_, args) in enumerate(members):
        internal = [a for a in args if a != hub]
        if not internal:
            solo.append([idx])
        else:
            buckets.setdefault(find(internal[0]), []).append(idx)
    return list(buckets.values()) + solo


def reference_lifted_star(pfg, hub, q):
    """The lifted hub query class by class: one index and one elimination per class."""
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
    classes = {}
    for comp in reference_components(members, hub):
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
            scopes = [members[i][1] for i in rep]
            index = _index_scopes({hub}.union(*scopes), scopes)
            source = [tables[members[i][0]] for i in rep]
            store, rest, cost, _ = inference._eliminate(
                list(index.args), source, index, index.number[hub], (), _kinds(source, {})
            )
            vector, cost_rest = store.result(rest, len(hub_labels))
            ops += cost + cost_rest
            belief *= vector ** len(group)
            ops += len(hub_labels)
        return inference._normalise(belief, hub_labels, "lifted-star", ops)


def answer(evaluator, *args):
    """Everything an evaluator reports: the answer, or its error's type and text."""
    try:
        res = evaluator(*args)
    except LiftcompError as exc:
        return type(exc), str(exc)
    return res.method, res.distribution, res.log_distribution, res.ops


def any_rv_corpus():
    """Compressed random models, at eps 0 and 0.1, whose groups hold permuted copies."""
    rng = np.random.default_rng(71)
    models = [random_model(rng, copy_prob=0.8, copy_noise=0.0) for _ in range(60)]
    models += [random_model(rng, copy_prob=0.8, copy_noise=0.05) for _ in range(60)]
    models += [mixed_range_model(rng) for _ in range(30)]
    return [run_eacp(fg, eps).pfg for fg in models for eps in (0.0, 0.1)]


def hand_pfg(names, member_args, group_ends, tables):
    """A ParfactorGraph over Boolean RVs, every RV its own class, no counting."""
    return ParfactorGraph(
        rvs=tuple(RandomVariable(n, TF) for n in names),
        class_ends=range(1, len(names) + 1),
        members=tuple(f"f{i}" for i in range(len(member_args))),
        member_args=member_args,
        group_ends=group_ends,
        tables=tables,
        crvs=(None,) * len(tables),
    )


ATT = np.array([[0.6, 0.4], [0.3, 0.7]])
LINK = np.array([[0.2, 0.8], [0.9, 0.1]])
HAND_BUILT = {
    # one branch holds both members of g: Hub - X1 - X2
    "repeated parfactor in one branch": lambda: hand_pfg(
        ("Hub", "X1", "X2"), (("Hub", "X1"), ("X1", "X2")), [2], (ATT,),
    ),
    # equal parfactor sets, link members in opposite orientations: the
    # two branches are not isomorphic and form two classes
    "cross-wired branches": lambda: hand_pfg(
        ("Hub", "X1", "X2", "Y1", "Y2"),
        (("Hub", "X1"), ("Hub", "Y1"), ("X1", "X2"), ("Y2", "Y1")),
        [2, 4], (ATT, LINK),
    ),
    # Z1 - Z2 and W1 - W2 never reach the hub: two 0-d messages of one class
    "hub-free component": lambda: hand_pfg(
        ("Hub", "X1", "Z1", "Z2", "W1", "W2"),
        (("Hub", "X1"), ("Z1", "Z2"), ("W2", "W1")),
        [1, 3], (ATT, LINK),
    ),
    # unary hub members before and after the branches: each is a component
    # of its own, and they come after the branches
    "hub-only member": lambda: hand_pfg(
        ("Hub", "X1", "Y1"),
        (("Hub",), ("Hub", "X1"), ("Hub", "Y1"), ("Hub",)),
        [1, 3, 4], (np.array([0.3, 0.9]), ATT, np.array([0.8, 0.5])),
    ),
    # one class of two branches whose leaves tie on degree, broken by name:
    # the first branch, its representative, eliminates the g1 leaf first,
    # the second one the g2 leaf, which rounds the hub marginal differently
    "representative sets the tie order": lambda: hand_pfg(
        ("Hub", "X", "Y1", "Y2", "P", "Q1", "Q2"),
        (("Hub", "X"), ("Hub", "P"), ("X", "Y1"), ("P", "Q2"), ("X", "Y2"), ("P", "Q1")),
        [2, 4, 6],
        (ATT, np.array([[0.18, 0.31], [0.82, 0.62]]), np.array([[0.18, 0.49], [0.53, 0.24]])),
    ),
    # each branch sends [2e200, 2e200]; its square leaves float64
    "class message overflow": lambda: hand_pfg(
        ("Hub", "B1", "B2"), (("Hub", "B1"), ("Hub", "B2")), [2], (np.full((2, 2), 1e200),),
    ),
}


def ungrouped(fg):
    """fg as a ParfactorGraph with every factor its own group."""
    return ParfactorGraph(
        rvs=fg.rvs,
        class_ends=[len(fg.rvs)],
        members=tuple(f.name for f in fg.factors),
        member_args=tuple(f.args for f in fg.factors),
        group_ends=range(1, len(fg.factors) + 1),
        tables=tuple(f.table for f in fg.factors),
        crvs=(None,) * len(fg.factors),
    )


class TestLiftedStar:
    def pfg_for(self, k: int, depth: int, seed: int = 0):
        fg = star_model(k, depth, seed)
        return fg, run_eacp(fg, 0.0).pfg

    def test_matches_ground_ve(self):
        for k, depth in ((2, 2), (4, 3), (8, 2)):
            fg, pfg = self.pfg_for(k, depth, seed=k)
            lifted = query_lifted_star(pfg, "Hub", Query("Hub"))
            ground_res = query_ve(ground(pfg), Query("Hub"))
            direct = query_ve(fg, Query("Hub"))
            assert dist_close(lifted, ground_res)
            assert dist_close(lifted, direct)
            assert lifted.method == "lifted-star"

    def test_ops_flat_in_branch_count(self):
        lifted_ops = []
        ve_ops = []
        for k in (2, 4, 8, 16):
            fg, pfg = self.pfg_for(k, 3)
            lifted_ops.append(query_lifted_star(pfg, "Hub", Query("Hub")).ops)
            ve_ops.append(query_ve(fg, Query("Hub")).ops)
        assert len(set(lifted_ops)) == 1
        assert all(a < b for a, b in zip(ve_ops, ve_ops[1:]))

    def test_class_message_overflow_is_a_typed_error(self):
        # each branch sends [2e200, 2e200]; its square, for two branches,
        # leaves float64, with no numpy warning ahead of the error
        rvs = tuple(RandomVariable(n, TF) for n in ("Hub", "B1", "B2"))
        table = np.full((2, 2), 1e200)
        fg = FactorGraph(rvs, (Factor("a1", ("Hub", "B1"), table),
                               Factor("a2", ("Hub", "B2"), table)))
        pfg = run_eacp(fg, 0.0).pfg
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvariantError, match="left the float64 range"):
                query_lifted_star(pfg, "Hub", Query("Hub"))

    def test_rejects_non_hub_target(self):
        _, pfg = self.pfg_for(3, 2)
        with pytest.raises(UnsupportedTopologyError):
            query_lifted_star(pfg, "Hub", Query("B1_1"))

    def test_rejects_evidence(self):
        _, pfg = self.pfg_for(3, 2)
        with pytest.raises(UnsupportedTopologyError):
            query_lifted_star(pfg, "Hub", Query("Hub", Evidence((("B1_1", "t"),))))

    def test_answers_repeated_parfactor_in_branch(self):
        pfg = HAND_BUILT["repeated parfactor in one branch"]()
        lifted = query_lifted_star(pfg, "Hub", Query("Hub"))
        assert dist_close(lifted, query_ve(ground(pfg), Query("Hub")))

    def test_answers_cross_wired_branches(self):
        pfg = HAND_BUILT["cross-wired branches"]()
        lifted = query_lifted_star(pfg, "Hub", Query("Hub"))
        assert dist_close(lifted, query_ve(ground(pfg), Query("Hub")))

    def test_answers_any_rv_of_any_model(self):
        # the hub marginal of every RV, on general graphs whose groups hold
        # argument-permuted (for 2-ary tables: transposed) copies
        for pfg in any_rv_corpus():
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")   # isolated RVs stay in the sample
                grounded = ground(pfg)
            for rv in grounded.rvs:
                q = Query(rv.name)
                lifted = query_lifted_star(pfg, rv.name, q)
                assert dist_close(lifted, query_ve(grounded, q))

    def test_equals_reference_on_any_rv_corpus(self):
        for pfg in any_rv_corpus():
            for rv in pfg.rvs:
                q = Query(rv.name)
                expected = answer(reference_lifted_star, pfg, rv.name, q)
                assert answer(query_lifted_star, pfg, rv.name, q) == expected

    @pytest.mark.parametrize("k", [2, 16, 128])
    def test_equals_reference_on_counted_star(self, k):
        for noise, eps in ((0.0, 0.0), (0.0, 0.1), (0.03, 0.1)):
            pfg = run_eacp(counted_star(k, noise, seed=k), eps).pfg
            for q in (Query("Hub"), Query("A1"), Query("Hub", Evidence((("A1", "t"),)))):
                expected = answer(reference_lifted_star, pfg, "Hub", q)
                assert answer(query_lifted_star, pfg, "Hub", q) == expected

    @pytest.mark.parametrize("name", list(HAND_BUILT))
    def test_equals_reference_on_hand_built(self, name):
        pfg = HAND_BUILT[name]()
        queries = [Query("Hub"), Query("Hub", value="f"), Query("Hub", value="x"), Query("X1")]
        cases = [("Hub", q) for q in queries] + [("Nope", Query("Nope"))]
        for hub, q in cases:
            expected = answer(reference_lifted_star, pfg, hub, q)
            assert answer(query_lifted_star, pfg, hub, q) == expected
        lifted = answer(query_lifted_star, pfg, "Hub", Query("Hub"))
        assert (lifted[0] is InvariantError) == (name == "class message overflow")
        if lifted[0] == "lifted-star":
            reference = query_ve(ground(pfg), Query("Hub"))
            assert all(abs(lifted[1][k] - v) <= 1e-10 for k, v in reference.distribution.items())

    def test_one_batched_elimination(self, monkeypatch):
        # one index and one elimination over every class representative;
        # alike classes share their numpy calls, so their number does not
        # grow from 16 branches to 128, be they one class or 16 and 128
        counts = {}
        for name in ("_eliminate", "_index_scopes", "_multiply", "_fold", "_sum_out"):
            def counted(*args, _call=getattr(inference, name), _name=name):
                counts[_name] = counts.get(_name, 0) + 1
                return _call(*args)

            monkeypatch.setattr(inference, name, counted)
        for pfg_of in (lambda fg: run_eacp(fg, 0.0).pfg, ungrouped):
            calls = []
            for k in (16, 128):
                pfg = pfg_of(star_model(k, 3))
                counts.clear()
                query_lifted_star(pfg, "Hub", Query("Hub"))
                calls.append(dict(counts))
            assert calls[0] == calls[1]
            assert calls[0]["_eliminate"] == calls[0]["_index_scopes"] == 1

    def test_answers_mixed_orientation_links(self):
        # phase 1 puts a Boolean link table and its transpose in one group,
        # so one parfactor holds chain links in both orientations
        cfg = GenConfig(128, 0.1, 0.1, seed=120122616)
        comp = run_eacp(perturb(generate_fg(cfg), cfg), 0.1)
        # a link's frame arguments (B<i>_<j>, B<i>_<j+1>) sort ascending
        assert any(
            len({args[0] < args[1] for args in links if "Hub" not in args}) == 2
            for links in (comp.pfg.member_args[g.start : g.stop] for g in comp.pfg.groups())
        )
        lifted = query_lifted_star(comp.pfg, "Hub", Query("Hub"))
        reference = query_ve(comp.m_prime, Query("Hub"))
        assert dist_close(lifted, reference)
        for label, lp in reference.log_distribution.items():
            assert lifted.log_distribution[label] == pytest.approx(lp, rel=1e-12)
