"""Query evaluators: enumeration oracle, variable elimination, lifted star."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from liftcomp import (
    EnumerationCapError,
    Evidence,
    Factor,
    FactorGraph,
    InvariantError,
    Parfactor,
    ParfactorGraph,
    Query,
    QueryResult,
    RandomVariable,
    RvClass,
    UnsupportedTopologyError,
    ground,
    query_enumerate,
    query_lifted_star,
    query_ve,
    run_eacp,
)

from conftest import random_model, star_model

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
            QueryResult({"t": 0.4, "f": 0.4}, "test")

    def test_result_rejects_degenerate_mass(self):
        with pytest.raises(InvariantError):
            QueryResult({"t": 1.0, "f": 0.0}, "test")

    def test_getitem(self, sales):
        res = query_ve(sales, Query("SalA"))
        assert res["high"] == res.distribution["high"]


class TestEnumerate:
    def test_sales_conditional(self, sales):
        res = query_enumerate(sales, Query("SalA", Evidence((("Rev", "high"),))))
        assert res["high"] == pytest.approx(0.6097560975609756, abs=1e-15)
        assert res.method == "enumerate"

    def test_cap_respected(self, sales, monkeypatch):
        monkeypatch.setenv("LIFTCOMP_ENUM_CAP", "4")
        with pytest.raises(EnumerationCapError):
            query_enumerate(sales, Query("SalA"))


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

    def test_deterministic(self, sales_three):
        q = Query("Rev", Evidence((("SalA", "high"),)))
        a = query_ve(sales_three, q)
        b = query_ve(sales_three, q)
        assert a.distribution == b.distribution and a.ops == b.ops


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

    def test_rejects_non_hub_target(self):
        _, pfg = self.pfg_for(3, 2)
        with pytest.raises(UnsupportedTopologyError):
            query_lifted_star(pfg, "Hub", Query("B1_1"))

    def test_rejects_evidence(self):
        _, pfg = self.pfg_for(3, 2)
        with pytest.raises(UnsupportedTopologyError):
            query_lifted_star(pfg, "Hub", Query("Hub", Evidence((("B1_1", "t"),))))

    def test_rejects_repeated_parfactor_in_branch(self):
        table = np.array([[0.6, 0.4], [0.3, 0.7]])
        pf = Parfactor(
            name="g",
            args=("Hub", "X1"),
            table=table,
            members=("g1", "g2"),
            member_args=(("Hub", "X1"), ("X1", "X2")),
        )
        classes = (
            RvClass(RandomVariable("Hub", TF), ("Hub",)),
            RvClass(RandomVariable("X1", TF), ("X1", "X2")),
        )
        with pytest.raises(UnsupportedTopologyError, match="copies"):
            query_lifted_star(ParfactorGraph(classes, (pf,)), "Hub", Query("Hub"))

    def test_rejects_cross_wired_branches(self):
        att = np.array([[0.6, 0.4], [0.3, 0.7]])
        link = np.array([[0.2, 0.8], [0.9, 0.1]])
        p1 = Parfactor(
            name="p1", args=("Hub", "X1"), table=att,
            members=("a1", "a2"), member_args=(("Hub", "X1"), ("Hub", "Y1")),
        )
        p2 = Parfactor(
            name="p2", args=("X1", "X2"), table=link,
            members=("c1", "c2"), member_args=(("X1", "X2"), ("Y2", "Y1")),
        )
        classes = (
            RvClass(RandomVariable("Hub", TF), ("Hub",)),
            RvClass(RandomVariable("X1", TF), ("X1", "X2", "Y1", "Y2")),
        )
        with pytest.raises(UnsupportedTopologyError, match="structurally identical"):
            query_lifted_star(ParfactorGraph(classes, (p1, p2)), "Hub", Query("Hub"))
