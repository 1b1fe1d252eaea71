"""Greedy factor grouping and the mean update."""

from __future__ import annotations

import numpy as np
import pytest

from liftcomp import (
    Factor,
    GroupMember,
    InvariantError,
    aligned_table,
    mean_of_tables,
    phase1_group,
)

from conftest import phi3, sales_model, sales_model_three


def names(grouping):
    return [[m.factor for m in g] for g in grouping.groups]


class TestPhase1:
    def test_pair_groups(self, sales):
        g = phase1_group(sales.factors, 0.1)
        assert names(g) == [["phi1", "phi2"]]
        assert g.groups[0][0].align == (0, 1)
        assert g.groups[0][1].align == (0, 1)

    def test_third_factor_rejected_by_first_member(self, sales_three):
        # phi3 is within tolerance of phi2 but not of phi1, and a candidate
        # must match every member of a group
        g = phase1_group(sales_three.factors, 0.1)
        assert names(g) == [["phi1", "phi2"], ["phi3"]]

    def test_deviation_score_picks_group(self, sales_three):
        # with phi3 opening its own group first, phi2 joins the closer one
        f1, f2 = sales_three.factors[0], sales_three.factors[1]
        f3 = sales_three.factors[2]
        g = phase1_group((f1, f3, f2), 0.1)
        assert names(g) == [["phi1"], ["phi3", "phi2"]]

    def test_tie_breaks_to_lowest_group_index(self):
        fa = Factor("fa", ("X",), np.array([1.0, 1.0]))
        fb = Factor("fb", ("Y",), np.array([1.1, 1.1]))
        fc = Factor("fc", ("Z",), np.array([1.05, 1.05]))
        g = phase1_group((fa, fb, fc), 0.06)
        assert names(g) == [["fa", "fc"], ["fb"]]

    def test_eps_zero_requires_bit_equality(self, sales):
        g = phase1_group(sales.factors, 0.0)
        assert names(g) == [["phi1"], ["phi2"]]

    def test_exact_copies_group_at_eps_zero(self):
        t = np.array([[0.3, 0.4], [0.5, 0.6]])
        fa = Factor("fa", ("X", "Y"), t)
        fb = Factor("fb", ("P", "Q"), t)
        g = phase1_group((fa, fb), 0.0)
        assert names(g) == [["fa", "fb"]]

    def test_permuted_member_alignment(self):
        rng = np.random.default_rng(31)
        t = rng.uniform(0.1, 1.0, size=(2, 3))
        fa = Factor("fa", ("X", "Y"), t)
        fb = Factor("fb", ("Q", "P"), np.transpose(t, (1, 0)))
        g = phase1_group((fa, fb), 0.0)
        assert names(g) == [["fa", "fb"]]
        member = g.groups[0][1]
        assert member.align == (1, 0)
        assert np.array_equal(aligned_table(fb.table, member.align), t)

    def test_group_frame_is_first_member(self):
        # the group is keyed to its first member's axis order
        rng = np.random.default_rng(32)
        t = rng.uniform(0.1, 1.0, size=(2, 3))
        fb = Factor("fb", ("Q", "P"), np.transpose(t, (1, 0)))
        fa = Factor("fa", ("X", "Y"), t)
        g = phase1_group((fb, fa), 0.0)
        assert g.groups[0][0].align == (0, 1)
        assert g.groups[0][1].align == (1, 0)

    def test_accessors(self, sales_three):
        g = phase1_group(sales_three.factors, 0.1)
        colours, aligns = g.seeds()
        assert colours == {"phi1": 0, "phi2": 0, "phi3": 1}
        assert aligns == {"phi1": (0, 1), "phi2": (0, 1), "phi3": (0, 1)}
        assert tuple(len(group) for group in g.groups) == (2, 1)

    def test_empty_input(self):
        assert phase1_group((), 0.1).groups == ()

    def test_order_dependence_is_real(self, sales_three):
        # the same factor set can group differently under another order;
        # this pins the documented greedy behaviour rather than an ideal
        f1, f2, f3 = sales_three.factors
        assert names(phase1_group((f1, f2, f3), 0.1)) == [["phi1", "phi2"], ["phi3"]]
        assert names(phase1_group((f1, f3, f2), 0.1)) == [["phi1"], ["phi3", "phi2"]]


class TestMean:
    def test_mean_values(self, sales):
        t1 = sales.factor("phi1").table
        t2 = sales.factor("phi2").table
        mean = mean_of_tables(np.stack([t1, t2]))
        expected = np.array([[0.775, 0.315], [0.49, 0.21]])
        assert np.max(np.abs(mean - expected)) <= 4 * np.spacing(1.0)

    def test_mean_entrywise_between_extremes(self):
        rng = np.random.default_rng(33)
        for _ in range(50):
            k = int(rng.integers(2, 6))
            tables = [rng.uniform(0.5, 1.5, size=(2, 2)) for _ in range(k)]
            stack = np.stack(tables)
            mean = mean_of_tables(stack)
            assert np.all(mean >= stack.min(axis=0) - 1e-15)
            assert np.all(mean <= stack.max(axis=0) + 1e-15)

    def test_empty_group_rejected(self):
        with pytest.raises((InvariantError, IndexError, ValueError)):
            mean_of_tables(np.empty((0, 2)))


class TestGroupMember:
    def test_fields(self):
        m = GroupMember("f", (1, 0))
        assert m.factor == "f"
        assert m.align == (1, 0)
