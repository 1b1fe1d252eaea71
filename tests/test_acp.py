"""Colour passing, parfactor construction, counting compaction, grounding."""

from __future__ import annotations

import re

import numpy as np
import pytest

from liftcomp import (
    Evidence,
    Factor,
    FactorGraph,
    Grouping,
    GroupMember,
    InvariantError,
    ParfactorGraph,
    RandomVariable,
    colour_pass,
    construct_pfg,
    distance_exact,
    expand_crv,
    fg_equal,
    ground,
    pfg_equal,
    phase1_group,
    replace_tables,
    run_eacp,
)
from liftcomp.acp import (
    _histogram_index,
    exact_crv_positions,
    initial_factor_colours_exact,
    initial_rv_colours,
)
from liftcomp.io import pfg_to_json

from conftest import counting_model, random_model, sales_model


def group_names(grouping):
    return [[m.factor for m in g] for g in grouping.groups]


def reference_histogram_cells(size, n):
    """The np.ndindex enumeration that the cached histogram index replaced."""
    order, index, cell_of = [], {}, []
    for idx in np.ndindex(*([size] * n)):
        counts = [0] * size
        for v in idx:
            counts[v] += 1
        cell = tuple(counts)
        if cell not in index:
            index[cell] = len(order)
            order.append(cell)
        cell_of.append(index[cell])
    return tuple(order), cell_of


def three_label_counting_model(rng):
    """One factor symmetric in positions 0, 2 and 3 (3 labels); axis 1 is not counted."""
    labels = ("lo", "mid", "hi")
    rvs = (
        RandomVariable("A", labels),
        RandomVariable("X", ("high", "low")),
        RandomVariable("B", labels),
        RandomVariable("C", labels),
    )
    values = {}
    table = np.empty((3, 2, 3, 3))
    for a, x, b, c in np.ndindex(table.shape):
        key = (tuple(np.bincount([a, b, c], minlength=3)), x)
        table[a, x, b, c] = values.setdefault(key, float(rng.uniform(0.1, 1.0)))
    return FactorGraph(rvs, (Factor("phi", ("A", "X", "B", "C"), table),)), values


class TestInitialColours:
    def test_rv_colours_by_range_and_observation(self, sales):
        cols = initial_rv_colours(sales, Evidence())
        assert cols["SalA"] == cols["SalB"] == cols["Rev"]
        with_ev = initial_rv_colours(sales, Evidence((("Rev", "high"),)))
        assert with_ev["SalA"] == with_ev["SalB"] != with_ev["Rev"]

    def test_observed_value_matters(self, sales):
        high = initial_rv_colours(sales, Evidence((("SalA", "high"), ("SalB", "high"))))
        assert high["SalA"] == high["SalB"]
        mixed = initial_rv_colours(sales, Evidence((("SalA", "high"), ("SalB", "low"))))
        assert mixed["SalA"] != mixed["SalB"]

    def test_range_splits(self):
        rvs = (
            RandomVariable("X", ("a", "b")),
            RandomVariable("Y", ("a", "b", "c")),
        )
        fs = (
            Factor("f", ("X",), np.ones(2)),
            Factor("g", ("Y",), np.ones(3)),
        )
        cols = initial_rv_colours(FactorGraph(rvs, fs), Evidence())
        assert cols["X"] != cols["Y"]

    def test_exact_factor_seeding(self, sales):
        cols, aligns = initial_factor_colours_exact(sales.factors)
        assert cols["phi1"] != cols["phi2"]  # tables differ
        t = sales.factor("phi1").table
        twin = Factor("twin", ("SalB", "Rev"), t.copy())
        cols2, aligns2 = initial_factor_colours_exact(sales.factors + (twin,))
        assert cols2["phi1"] == cols2["twin"]
        assert aligns2["twin"] == (0, 1)

    def test_exact_seeding_detects_permuted_twins(self):
        rng = np.random.default_rng(41)
        t = rng.uniform(0.1, 1.0, size=(2, 3))
        fa = Factor("fa", ("X", "Y"), t)
        fb = Factor("fb", ("Q", "P"), np.transpose(t, (1, 0)))
        cols, aligns = initial_factor_colours_exact((fa, fb))
        assert cols["fa"] == cols["fb"]
        assert aligns["fb"] == (1, 0)


class TestColourPass:
    def test_sales_pair_with_injected_groups(self, sales):
        colours, aligns = phase1_group(sales.factors, 0.1).seeds()
        res = colour_pass(sales, colours, Evidence(), alignments=aligns, eps=0.1)
        assert group_names(res.grouping) == [["phi1", "phi2"]]
        assert res.rv_classes == (("SalA", "SalB"), ("Rev",))

    def test_evidence_splits_symmetry(self, sales):
        colours, aligns = phase1_group(sales.factors, 0.1).seeds()
        ev = Evidence((("SalA", "high"),))
        res = colour_pass(sales, colours, ev, alignments=aligns, eps=0.1)
        assert group_names(res.grouping) == [["phi1"], ["phi2"]]
        assert ("SalA",) in res.rv_classes and ("SalB",) in res.rv_classes

    def test_structure_splits_identical_tables(self):
        # two hub attachments share a table, but only one branch continues;
        # the neighbourhood difference must separate them
        rvs = (
            RandomVariable("Hub", ("t", "f")),
            RandomVariable("A1", ("t", "f")),
            RandomVariable("A2", ("t", "f")),
            RandomVariable("B1", ("t", "f")),
        )
        rng = np.random.default_rng(42)
        att = rng.uniform(0.1, 1.0, size=(2, 2))
        fs = (
            Factor("att1", ("Hub", "A1"), att),
            Factor("att2", ("Hub", "A2"), att),
            Factor("deep1", ("A1", "B1"), rng.uniform(0.1, 1.0, size=(2, 2))),
        )
        fg = FactorGraph(rvs, fs)
        ph = phase1_group(fg.factors, 0.0)
        assert group_names(ph) == [["att1", "att2"], ["deep1"]]
        colours, aligns = ph.seeds()
        res = colour_pass(fg, colours, Evidence(), alignments=aligns, eps=0.0)
        assert group_names(res.grouping) == [["att1"], ["att2"], ["deep1"]]

    def test_missing_colour_rejected(self, sales):
        aligns = {"phi1": (0, 1), "phi2": (0, 1)}
        with pytest.raises(InvariantError):
            colour_pass(sales, {"phi1": 0}, Evidence(), alignments=aligns, eps=0.0)

    def test_missing_alignment_rejected(self, sales):
        cols, aligns = initial_factor_colours_exact(sales.factors)
        aligns.pop("phi2")
        with pytest.raises(InvariantError, match="no alignment for factor 'phi2'"):
            colour_pass(sales, cols, Evidence(), alignments=aligns, eps=0.0)

    @pytest.mark.parametrize("bad", [(0, 0), (0,), (1, 2)])
    def test_invalid_alignment_rejected(self, sales, bad):
        # phi2 joins phi1's class, so only its arguments are aligned
        cols, aligns = initial_factor_colours_exact(sales.factors)
        cols["phi2"], aligns["phi2"] = cols["phi1"], bad
        with pytest.raises(InvariantError, match=re.escape(f"invalid alignment {bad} for arity 2")):
            colour_pass(sales, cols, Evidence(), alignments=aligns, eps=0.0)

    def test_refines_initial_groups(self):
        # final groups only split initial ones, never merge across them
        rng = np.random.default_rng(43)
        for _ in range(30):
            fg = random_model(rng, max_rvs=6, max_factors=6)
            initial, aligns = phase1_group(fg.factors, 0.05).seeds()
            res = colour_pass(fg, initial, Evidence(), alignments=aligns, eps=0.05)
            for group in res.grouping.groups:
                assert len({initial[m.factor] for m in group}) == 1

    def test_iteration_bound(self):
        rng = np.random.default_rng(44)
        for _ in range(20):
            fg = random_model(rng, max_rvs=7, max_factors=7)
            cols, aligns = initial_factor_colours_exact(fg.factors)
            res = colour_pass(fg, cols, Evidence(), alignments=aligns, eps=0.0)
            assert res.state.iteration <= len(fg.rvs) + len(fg.factors) + 2


class TestCounting:
    def test_compaction_shape_and_cells(self, counting):
        res = run_eacp(counting, 0.0)
        crv, table = res.pfg.crvs[0], res.pfg.tables[0]
        assert crv is not None
        assert crv.positions == (1, 2)
        assert crv.histograms == ((2, 0), (1, 1), (0, 2))
        assert table.shape == (2, 3)
        assert table.tolist() == [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]

    def test_expand_round_trips(self, counting):
        pfg = run_eacp(counting, 0.0).pfg
        assert np.array_equal(expand_crv(pfg.tables[0], pfg.crvs[0]), counting.factor("phi1").table)

    def test_ground_reproduces_model(self, counting):
        res = run_eacp(counting, 0.0)
        assert fg_equal(counting, ground(res.pfg))

    def test_no_compaction_when_classes_differ(self):
        # a unary factor on ComA breaks the ComA/ComB symmetry
        base = counting_model()
        rvs = base.rvs
        extra = Factor("only_a", ("ComA",), np.array([0.4, 0.6]))
        fg = FactorGraph(rvs, base.factors + (extra,))
        res = run_eacp(fg, 0.0)
        assert all(crv is None for crv in res.pfg.crvs)

    def test_no_compaction_when_not_exactly_invariant(self):
        rvs = (
            RandomVariable("Rev", ("high", "low")),
            RandomVariable("ComA", ("high", "low")),
            RandomVariable("ComB", ("high", "low")),
        )
        t = np.array([1.0, 2.0, 2.02, 3.0, 4.0, 5.0, 5.05, 6.0]).reshape(2, 2, 2)
        fg = FactorGraph(rvs, (Factor("phi1", ("Rev", "ComA", "ComB"), t),))
        colours, aligns = phase1_group(fg.factors, 0.1).seeds()
        res = colour_pass(fg, colours, Evidence(), alignments=aligns, eps=0.1)
        crv = exact_crv_positions(fg, res.grouping, res.rv_classes, 0.1)
        assert crv == {}

    def test_histogram_axis_is_last(self, counting):
        pfg = run_eacp(counting, 0.0).pfg
        # non-counted axes keep their order; histogram cells index the last axis
        assert pfg.member_args[0][0] == "Rev"
        assert pfg.tables[0].shape == (2, len(pfg.crvs[0].histograms))

    @pytest.mark.parametrize("size", [2, 3, 4])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_histogram_index_matches_reference_loop(self, size, n):
        cells, cell_of = _histogram_index(size, n)
        ref_cells, ref_cell_of = reference_histogram_cells(size, n)
        assert cells == ref_cells
        assert cell_of.tolist() == ref_cell_of

    def test_round_trip_three_labels_three_positions(self):
        fg, values = three_label_counting_model(np.random.default_rng(7))
        res = run_eacp(fg, 0.0)
        crv, table = res.pfg.crvs[0], res.pfg.tables[0]
        assert crv.positions == (0, 2, 3)
        assert len(crv.histograms) == 10
        assert table.shape == (2, 10)
        for c, cell in enumerate(crv.histograms):
            for x in range(2):
                assert table[x, c] == values[(cell, x)]
        assert np.array_equal(expand_crv(table, crv), fg.factor("phi").table)
        assert ground(res.pfg).factor("phi").table.tobytes() == fg.factor("phi").table.tobytes()


class TestConstructPfg:
    def test_rejects_nonidentical_group_tables(self, sales):
        grouping = Grouping(
            ((GroupMember("phi1", (0, 1)), GroupMember("phi2", (0, 1))),)
        )
        with pytest.raises(InvariantError, match="differs from"):
            construct_pfg(sales, grouping, (("SalA", "SalB"), ("Rev",)), {})

    def test_names_first_differing_member_in_group_order(self):
        # the members are checked in one stacked comparison; c, under the
        # identity, is the first to differ, ahead of the swapped d
        t = np.array([[1.0, 2.0], [3.0, 4.0]])
        odd = np.array([[1.0, 2.0], [3.0, 5.0]])
        members = (("a", (0, 1), t), ("b", (1, 0), t.T), ("c", (0, 1), odd),
                   ("d", (1, 0), odd.T), ("e", (0, 1), t))
        rvs = tuple(RandomVariable(f"{n}{i}", ("x", "y")) for n, *_ in members for i in (1, 2))
        fg = FactorGraph(rvs, tuple(Factor(n, (f"{n}1", f"{n}2"), tab) for n, _, tab in members))
        grouping = Grouping((tuple(GroupMember(n, align) for n, align, _ in members),))
        classes = (tuple(rv.name for rv in rvs),)
        with pytest.raises(InvariantError, match="group 0: member 'c' table differs from "
                                                 "representative 'a'"):
            construct_pfg(fg, grouping, classes, {})
        fixed = replace_tables(fg, {"c": t, "d": t.T})
        pfg = construct_pfg(fixed, grouping, classes, {})
        assert pfg.members == ("a", "b", "c", "d", "e")
        assert pfg.groups() == [range(5)]
        assert pfg.member_args[1] == ("b2", "b1")
        fixed = replace_tables(fg, {"c": t})
        with pytest.raises(InvariantError, match="member 'd' table differs"):
            construct_pfg(fixed, grouping, classes, {})

    def test_rejects_partial_rv_classes(self, sales):
        grouping = Grouping(
            ((GroupMember("phi1", (0, 1)),), (GroupMember("phi2", (0, 1)),))
        )
        with pytest.raises(InvariantError, match="partition"):
            construct_pfg(sales, grouping, (("SalA",), ("Rev",)), {})

    def test_rejects_mixed_range_class(self):
        rvs = (
            RandomVariable("X", ("a", "b")),
            RandomVariable("Y", ("a", "c")),
        )
        fs = (Factor("f", ("X",), np.ones(2)), Factor("g", ("Y",), np.ones(2)))
        fg = FactorGraph(rvs, fs)
        grouping = Grouping(
            ((GroupMember("f", (0,)),), (GroupMember("g", (0,)),))
        )
        with pytest.raises(InvariantError, match="mixes ranges"):
            construct_pfg(fg, grouping, (("X", "Y"),), {})

    def test_rejects_counting_a_non_invariant_table(self):
        # [[1, 2], [3, 4]] is not symmetric: the histogram cell {a, b}
        # holds 2 and 3, and no single value grounds back to both
        rvs = (RandomVariable("X", ("a", "b")), RandomVariable("Y", ("a", "b")))
        fg = FactorGraph(rvs, (Factor("f", ("X", "Y"), np.array([[1.0, 2.0], [3.0, 4.0]])),))
        grouping = Grouping(((GroupMember("f", (0, 1)),),))
        with pytest.raises(InvariantError, match=r"group 0: .*counted positions \(0, 1\)"):
            construct_pfg(fg, grouping, (("X", "Y"),), {0: (0, 1)})
        symmetric = replace_tables(fg, {"f": np.array([[1.0, 2.0], [2.0, 4.0]])})
        pfg = construct_pfg(symmetric, grouping, (("X", "Y"),), {0: (0, 1)})
        assert pfg.tables[0].tolist() == [1.0, 2.0, 4.0]
        assert fg_equal(ground(pfg), symmetric)

    def test_rejects_member_of_another_shape(self):
        # g is (3, 2) and f is (2, 3) under the identity: the stacked
        # comparison never sees g, which is reported as differing
        rvs = tuple(RandomVariable(n, ("a", "b") if n in "XV" else ("a", "b", "c")) for n in "XYUV")
        fg = FactorGraph(rvs, (
            Factor("f", ("X", "Y"), np.ones((2, 3))), Factor("g", ("U", "V"), np.ones((3, 2))),
        ))
        grouping = Grouping(((GroupMember("f", (0, 1)), GroupMember("g", (0, 1))),))
        with pytest.raises(InvariantError, match="group 0: member 'g' table differs from "
                                                 "representative 'f'"):
            construct_pfg(fg, grouping, (("X", "V"), ("Y", "U")), {})

    @pytest.mark.parametrize("order, named", [("abc", "b"), ("acb", "c")])
    def test_names_first_of_a_differing_value_and_another_shape(self, order, named):
        # b has a's shape and one differing value, c another shape: the
        # earlier of the two in group order is named, whichever its fault
        tables = {"a": np.ones((2, 2)), "b": np.array([[1.0, 1.0], [1.0, 2.0]]),
                  "c": np.ones((2, 3))}
        rvs = tuple(RandomVariable(f"{n}{i}", ("x", "y", "z")[:tables[n].shape[i - 1]])
                    for n in "abc" for i in (1, 2))
        fg = FactorGraph(rvs, tuple(Factor(n, (f"{n}1", f"{n}2"), tables[n]) for n in "abc"))
        grouping = Grouping((tuple(GroupMember(n, (0, 1)) for n in order),))
        classes = (("a1", "a2", "b1", "b2", "c1"), ("c2",))
        with pytest.raises(InvariantError, match=f"group 0: member '{named}' table differs "
                                                 "from representative 'a'"):
            construct_pfg(fg, grouping, classes, {})

    @pytest.mark.parametrize("crv_specs, match", [
        pytest.param({0: (0,)}, r"group 0: invalid counted positions \(0,\)", id="one"),
        pytest.param({0: (0, 0)}, r"group 0: invalid counted positions \(0, 0\)", id="repeat"),
        pytest.param({0: (0, 5)}, r"group 0: invalid counted positions \(0, 5\)", id="past-end"),
        pytest.param({0: (0, -1)}, r"group 0: invalid counted positions \(0, -1\)",
                     id="negative"),
        pytest.param({0: (0.0, 1.0)}, r"group 0: invalid counted positions \(0\.0, 1\.0\)",
                     id="float"),
        pytest.param({0: (True, 0)}, r"group 0: invalid counted positions \(True, 0\)",
                     id="bool"),
        pytest.param({0: (0, 2)}, r"group 0: counted positions \(0, 2\) mix range sizes",
                     id="mixed-sizes"),
        pytest.param({1: (0, 1)}, "crv_specs names no group: 1", id="unknown-group"),
        pytest.param({0: (0, 1), 3: (0, 1), 2: ()}, "crv_specs names no group: 2, 3",
                     id="unknown-groups"),
    ])
    def test_rejects_bad_counted_positions(self, crv_specs, match):
        rvs = (RandomVariable("X", ("a", "b")), RandomVariable("Y", ("a", "b")),
               RandomVariable("Z", ("a", "b", "c")))
        fg = FactorGraph(rvs, (Factor("f", ("X", "Y", "Z"), np.ones((2, 2, 3))),))
        grouping = Grouping(((GroupMember("f", (0, 1, 2)),),))
        classes = (("X", "Y"), ("Z",))
        assert construct_pfg(fg, grouping, classes, {0: (0, 1)}).crvs[0].positions == (0, 1)
        with pytest.raises(InvariantError, match=match):
            construct_pfg(fg, grouping, classes, crv_specs)

    def test_member_args_recorded(self, sales):
        res = run_eacp(sales, 0.0)
        args = dict(zip(res.pfg.members, res.pfg.member_args))
        assert args["phi1"] == ("SalA", "Rev")

    def test_member_args_are_group_frame_arguments(self):
        # g's own arguments (D, C) read t.T; in f's frame they are (C, D),
        # which is what the graph and its file keep
        t = np.array([[1.0, 2.0], [3.0, 5.0]])
        rvs = tuple(RandomVariable(n, ("x", "y")) for n in "ABCD")
        fg = FactorGraph(rvs, (Factor("f", ("A", "B"), t), Factor("g", ("D", "C"), t.T)))
        comp = run_eacp(fg, 0.0)
        (parfactor,) = pfg_to_json(comp.pfg)["parfactors"]
        assert parfactor["members"] == ["f", "g"]
        assert parfactor["member_args"] == [["A", "B"], ["C", "D"]]
        restored = ground(comp.pfg)
        assert restored.factor("g").args == ("C", "D")
        assert not fg_equal(restored, comp.m_prime)
        assert distance_exact(restored, comp.m_prime).d_exact == 0.0

    def test_parfactor_count_validation(self):
        rvs = (RandomVariable("X", ("a", "b")), RandomVariable("Y", ("a", "b")))
        with pytest.raises(InvariantError, match="out of sync"):
            ParfactorGraph(rvs, [2], ("a", "b"), (("X",),), [2], (np.ones(2),), (None,))
        with pytest.raises(InvariantError, match="group_ends, tables and crvs out of sync"):
            ParfactorGraph(rvs, [2], ("a",), (("X",),), [1], (np.ones(2),) * 2, (None,))
        with pytest.raises(InvariantError, match="group_ends must end at 2"):
            ParfactorGraph(rvs, [2], ("a", "b"), (("X",), ("Y",)), [1], (np.ones(2),), (None,))
        pfg = ParfactorGraph(rvs, [2], ("a", "b"), (("X",), ("Y",)), [2], (np.ones(2),), (None,))
        assert [len(group) for group in pfg.groups()] == [2]
        assert pfg.group_ends.tolist() == [2] and not pfg.group_ends.flags.writeable


class TestRvClassCheck:
    """Both readers of rv classes reject one that is not a partition by range."""

    STAGES = {
        "exact_crv_positions": lambda fg, g, classes: exact_crv_positions(fg, g, classes, 0.0),
        "construct_pfg": lambda fg, g, classes: construct_pfg(fg, g, classes, {}),
    }

    @pytest.mark.parametrize("stage", STAGES)
    @pytest.mark.parametrize("classes, match", [
        ((("A",),), "partition"),
        ((("A", "B"), ("B",)), "partition"),
        ((("A", "B", "C"),), "mixes ranges"),
    ])
    def test_rejects_bad_classes(self, stage, classes, match):
        # a symmetric factor over A and B, so counting reads both classes
        hl = ("high", "low")
        rvs = (RandomVariable("A", hl), RandomVariable("B", hl), RandomVariable("C", ("a", "b")))
        fg = FactorGraph(rvs, (
            Factor("f", ("A", "B"), np.array([[1.0, 2.0], [2.0, 3.0]])),
            Factor("g", ("C",), np.array([1.0, 2.0])),
        ))
        grouping = Grouping(((GroupMember("f", (0, 1)),), (GroupMember("g", (0,)),)))
        with pytest.raises(InvariantError, match=match):
            self.STAGES[stage](fg, grouping, classes)


class TestGrounding:
    def test_ground_round_trip_random(self):
        # grounded members may express their args in the parfactor's frame;
        # the potential they define must match the original bit for bit
        rng = np.random.default_rng(45)
        for _ in range(30):
            fg = random_model(rng, max_rvs=6, max_factors=6)
            res = run_eacp(fg, 0.0)
            g = ground(res.pfg)
            assert sorted(rv.name for rv in g.rvs) == sorted(rv.name for rv in fg.rvs)
            assert sorted(f.name for f in g.factors) == sorted(f.name for f in fg.factors)
            for f in fg.factors:
                gf = g.factor(f.name)
                assert sorted(gf.args) == sorted(f.args)
                for idx in np.ndindex(f.table.shape):
                    gidx = tuple(idx[f.args.index(a)] for a in gf.args)
                    assert gf.table[gidx] == f.table[idx]

    def test_pfg_equal(self, sales):
        a = run_eacp(sales, 0.0).pfg
        b = run_eacp(sales, 0.0).pfg
        assert pfg_equal(a, b)
        tweaked = sales_model()
        import liftcomp

        tweaked = liftcomp.replace_tables(
            tweaked, {"phi1": tweaked.factor("phi1").table * 1.001}
        )
        c = run_eacp(tweaked, 0.0).pfg
        assert not pfg_equal(a, c)
