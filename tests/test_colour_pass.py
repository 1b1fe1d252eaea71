"""Colour passing and counting detection against name-keyed reference loops."""

from __future__ import annotations

from itertools import permutations

import numpy as np
import pytest

from liftcomp import (
    Evidence,
    Factor,
    FactorGraph,
    RandomVariable,
    phase1_group,
    replace_tables,
    run_eacp,
)
from liftcomp import acp
from liftcomp.acp import (
    colour_pass,
    exact_crv_positions,
    initial_factor_colours_exact,
    initial_rv_colours,
)
from liftcomp.equivalence import (
    aligned_args,
    aligned_table,
    commutative_blocks,
    identity_alignment,
)
from liftcomp.grouping import GroupMember, Grouping

from conftest import partition_colours, star_model

# -- reference: colour passing over dicts keyed by node name --------------


def _dense_renumber(order, sigs):
    ids, out = {}, {}
    for name in order:
        sig = sigs[name]
        if sig not in ids:
            ids[sig] = len(ids)
        out[name] = ids[sig]
    return out


def reference_colour_pass(fg, initial_factor_colours, evidence, alignments, eps):
    """(grouping, rv classes, rv colours, factor colours, rounds), one node at a time."""
    aligns = {f.name: alignments.get(f.name, identity_alignment(f.arity)) for f in fg.factors}
    init_colour = dict(initial_factor_colours)
    blocks_by_colour, counted_by_colour = {}, {}
    for f in fg.factors:
        colour = init_colour[f.name]
        if colour in blocks_by_colour:
            continue
        perm = aligns[f.name]
        (blocks,) = commutative_blocks(
            aligned_table(f.table, perm)[None], eps,
            tuple(fg.rv(a).range for a in aligned_args(f.args, perm)),
        )
        blocks_by_colour[colour] = blocks
        counted_by_colour[colour] = {p for b in blocks if len(b) >= 2 for p in b}

    frame_args = {f.name: aligned_args(f.args, aligns[f.name]) for f in fg.factors}
    rv_order = [rv.name for rv in fg.rvs]
    f_order = [f.name for f in fg.factors]
    rv_col = initial_rv_colours(fg, evidence)
    f_col = _dense_renumber(f_order, {name: (init_colour[name],) for name in f_order})
    iteration = 0
    while True:
        fsigs = {}
        for f in fg.factors:
            cols = [rv_col[a] for a in frame_args[f.name]]
            for block in blocks_by_colour[init_colour[f.name]]:
                if len(block) >= 2:
                    vals = sorted(cols[p] for p in block)
                    for p, v in zip(block, vals):
                        cols[p] = v
            fsigs[f.name] = (tuple(cols), f_col[f.name])
        new_f_col = _dense_renumber(f_order, fsigs)
        incoming = {name: [] for name in rv_order}
        for f in fg.factors:
            counted = counted_by_colour[init_colour[f.name]]
            for j, a in enumerate(frame_args[f.name]):
                incoming[a].append((new_f_col[f.name], 0 if j in counted else j + 1))
        rsigs = {name: (tuple(sorted(incoming[name])), rv_col[name]) for name in rv_order}
        new_rv_col = _dense_renumber(rv_order, rsigs)
        iteration += 1
        if new_f_col == f_col and new_rv_col == rv_col:
            break
        f_col, rv_col = new_f_col, new_rv_col

    groups, classes = {}, {}
    for name in f_order:
        groups.setdefault(f_col[name], []).append(GroupMember(name, aligns[name]))
    for name in rv_order:
        classes.setdefault(rv_col[name], []).append(name)
    grouping = Grouping(tuple(tuple(groups[c]) for c in sorted(groups)))
    rv_classes = tuple(tuple(classes[c]) for c in sorted(classes))
    return grouping, rv_classes, rv_col, f_col, iteration


# -- generated models -------------------------------------------------------


def _symmetric(rng, arity):
    # arity 2: a + a.T; arity 3: symmetric in the first two axes, or in all three
    table = rng.uniform(0.1, 1.0, size=(2,) * arity)
    if arity == 2:
        return table + table.T
    if rng.random() < 0.5:
        return table + np.swapaxes(table, 0, 1)
    return sum(np.transpose(table, p) for p in ((0, 1, 2), (0, 2, 1), (1, 0, 2),
                                                 (1, 2, 0), (2, 0, 1), (2, 1, 0)))


def generated_model(seed):
    """Binary RVs; fresh, symmetric and permuted-twin tables; random evidence."""
    rng = np.random.default_rng(seed)
    n_rvs = int(rng.integers(3, 10))
    names = [f"V{i}" for i in range(n_rvs)]
    factors = []
    for i in range(int(rng.integers(2, 12))):
        kind = rng.choice(["fresh", "symmetric", "twin"]) if factors else "fresh"
        if kind == "twin":
            # a permuted copy of an earlier table, bit-exact or inside eps = 0.1
            src = factors[int(rng.integers(len(factors)))].table
            table = np.transpose(src, rng.permutation(src.ndim))
            if rng.random() < 0.5:
                table = table * rng.uniform(0.97, 1.03, size=table.shape)
        else:
            arity = int(rng.integers(1, 4)) if kind == "fresh" else int(rng.integers(2, 4))
            table = (rng.uniform(0.1, 1.0, size=(2,) * arity) if kind == "fresh"
                     else _symmetric(rng, arity))
        args = tuple(names[j] for j in rng.choice(n_rvs, size=table.ndim, replace=False))
        factors.append(Factor(f"f{i}", args, table))
    used = [n for n in names if any(n in f.args for f in factors)]
    fg = FactorGraph(tuple(RandomVariable(n, ("t", "f")) for n in used), tuple(factors))
    observed = [n for n in used if rng.random() < 0.2]
    evidence = Evidence(tuple((n, str(rng.choice(["t", "f"]))) for n in observed))
    return fg, evidence


def deep_star(k, depth, seed):
    """star_model with a tenth of its tables scaled: half inside eps = 0.1, half outside.

    Every scaled table sets its branch apart, and the splits travel along
    the chains one link per round.
    """
    fg = star_model(k, depth, seed)
    rng = np.random.default_rng(seed)
    hit = rng.choice(len(fg.factors), size=len(fg.factors) // 10, replace=False)
    tables = {}
    for n, i in enumerate(hit):
        f = fg.factors[i]
        tables[f.name] = f.table * (rng.uniform(0.97, 1.03, (2, 2)) if n % 2 else 1.5)
    return replace_tables(fg, tables)


def _seedings(fg, eps):
    return {
        "phase1": (*phase1_group(fg.factors, eps).seeds(), eps),
        "exact": (*initial_factor_colours_exact(fg.factors), 0.0),
    }


class TestAgainstReference:
    @pytest.mark.parametrize("eps", [0.0, 0.1])
    def test_generated_models(self, eps, monkeypatch):
        detections, _ = _record_detections(monkeypatch)
        permuted = symmetric = one_colour = 0
        for seed in range(150):
            fg, evidence = generated_model(seed)
            # every RV starts with one colour: round 1 signs no factor
            one_colour += len(set(initial_rv_colours(fg, evidence).values())) == 1
            for colours, alignments, seed_eps in _seedings(fg, eps).values():
                detections.clear()
                got = colour_pass(fg, colours, evidence, alignments=alignments, eps=seed_eps)
                symmetric += any(len(b) >= 2 for _, blocks in detections for b in blocks)
                grouping, rv_classes, rv_col, f_col, rounds = reference_colour_pass(
                    fg, colours, evidence, alignments, seed_eps
                )
                assert got.grouping == grouping
                assert got.rv_classes == rv_classes
                assert partition_colours(fg, got) == (list(rv_col.items()), list(f_col.items()))
                assert got.state.iteration == rounds
                permuted += any(a != identity_alignment(len(a)) for a in alignments.values())
        # the corpus exercises non-identity alignments, commutative blocks
        # and models without evidence
        assert permuted > 50 and symmetric > 50 and one_colour > 20

    def test_parts_in_first_member_order_from_sparse_labels(self):
        # initial colours neither dense nor increasing; the first members,
        # f0 and A, split off their classes and take new labels, so an
        # order by label would list them last
        t = np.array([[1.0, 2.0], [3.0, 5.0]])
        u = np.array([[1.0, 4.0], [6.0, 5.0]])
        rvs = tuple(RandomVariable(n, ("t", "f")) for n in "ABCDEFG")
        fg = FactorGraph(rvs, (
            Factor("f0", ("A", "B"), t), Factor("f1", ("B", "G"), u),
            Factor("f2", ("C", "D"), t), Factor("f3", ("E", "F"), t),
        ))
        colours = {"f0": 7, "f1": 3, "f2": 7, "f3": 7}
        alignments = {f.name: identity_alignment(f.arity) for f in fg.factors}
        got = colour_pass(fg, colours, Evidence(), alignments=alignments, eps=0.0)
        assert [[m.factor for m in g] for g in got.grouping.groups] == [
            ["f0"], ["f1"], ["f2", "f3"]
        ]
        assert got.rv_classes == (("A",), ("B",), ("C", "E"), ("D", "F"), ("G",))
        grouping, rv_classes, rv_col, f_col, rounds = reference_colour_pass(
            fg, colours, Evidence(), alignments, 0.0
        )
        assert (got.grouping, got.rv_classes) == (grouping, rv_classes)
        assert partition_colours(fg, got) == (list(rv_col.items()), list(f_col.items()))
        assert got.state.iteration == rounds

    @pytest.mark.parametrize("k, depth", [(4, 6), (16, 6), (16, 8), (64, 6)])
    def test_deep_stars(self, k, depth):
        rounds = []
        for seed in range(3):
            fg = deep_star(k, depth, seed)
            leaf = fg.rvs[depth].name   # the last RV of the first chain
            for evidence in (Evidence(), Evidence(((leaf, "t"),))):
                for colours, alignments, eps in _seedings(fg, 0.1).values():
                    got = colour_pass(fg, colours, evidence, alignments=alignments, eps=eps)
                    grouping, rv_classes, rv_col, f_col, n = reference_colour_pass(
                        fg, colours, evidence, alignments, eps
                    )
                    assert got.grouping == grouping
                    assert got.rv_classes == rv_classes
                    assert partition_colours(fg, got) == (list(rv_col.items()), list(f_col.items()))
                    assert got.state.iteration == n
                    rounds.append(n)
        # splits travel the length of a chain, one link per round
        assert max(rounds) > depth


# -- commutativity: detected by each stage that uses it ---------------------


def _record_detections(monkeypatch):
    """Every table acp detects and its calls: rows and stack heights, in call order.

    One ((shape, bytes, ranges), blocks) entry per stacked table, and the
    number of tables each commutative_blocks call stacked.
    """
    rows, calls = [], []

    def recording(tables, eps, ranges):
        found = commutative_blocks(tables, eps, ranges)
        rows.extend(((t.shape, t.tobytes(), ranges), b) for t, b in zip(tables, found))
        calls.append(len(tables))
        return found

    monkeypatch.setattr(acp, "commutative_blocks", recording)
    return rows, calls


def reference_crv_positions(fg, grouping, rv_classes, eps):
    """Counted positions per group, every representative detected, invariance by transposes."""
    class_of = {name: ci for ci, members in enumerate(rv_classes) for name in members}
    out = {}
    for gi, group in enumerate(grouping.groups):
        rep = group[0]
        f = fg.factor(rep.factor)
        args = aligned_args(f.args, rep.align)
        table = aligned_table(f.table, rep.align)
        candidates = []
        (blocks,) = commutative_blocks(table[None], eps, tuple(fg.rv(a).range for a in args))
        for block in blocks:
            if len(block) < 2 or len({class_of[args[p]] for p in block}) > 1:
                continue
            axes = list(range(table.ndim))
            invariant = True
            for perm in permutations(block):
                for p, q in zip(block, perm):
                    axes[p] = q
                invariant = invariant and np.array_equal(table, np.transpose(table, axes))
            if invariant:
                candidates.append(block)
        if candidates:
            out[gi] = max(candidates, key=len)
    return out


class TestCommutativeDetection:
    def test_same_bytes_other_ranges_count_other_positions(self):
        # fully symmetric table; b's last argument has other labels, so only
        # its first two positions form a block
        hl, ab = ("high", "low"), ("a", "b")
        rvs = tuple(RandomVariable(n, hl) for n in ("A1", "A2", "A3", "B1", "B2"))
        rvs += (RandomVariable("C", ab),)
        table = np.array([1.0, 2.0, 2.0, 3.0, 2.0, 3.0, 3.0, 4.0]).reshape(2, 2, 2)
        fg = FactorGraph(rvs, (
            Factor("a", ("A1", "A2", "A3"), table),
            Factor("b", ("B1", "B2", "C"), table),
        ))
        pfg = run_eacp(fg, 0.0).pfg
        crv = {pfg.members[g.start]: c.positions for g, c in zip(pfg.groups(), pfg.crvs)}
        assert crv == {"a": (0, 1, 2), "b": (0, 1)}

    def test_table_changed_by_mean_update_is_detected_again(self, monkeypatch):
        # a and b form one eps-group; their mean is a new table, symmetric
        # although neither member is
        rvs = tuple(RandomVariable(n, ("t", "f")) for n in ("X1", "X2", "Y1", "Y2"))
        a = np.array([[1.0, 1.04], [1.0, 2.0]])
        b = np.array([[1.0, 1.0], [1.04, 2.0]])
        fg = FactorGraph(rvs, (Factor("a", ("X1", "X2"), a), Factor("b", ("Y1", "Y2"), b)))
        detections, _ = _record_detections(monkeypatch)
        comp = run_eacp(fg, 0.1)
        mean = comp.m_prime.factor("a").table
        assert not np.array_equal(mean, a) and np.array_equal(mean, mean.T)
        keys = [key for key, _ in detections]
        assert keys == [(a.shape, a.tobytes(), (("t", "f"),) * 2),
                        (mean.shape, mean.tobytes(), (("t", "f"),) * 2)]
        assert {crv.positions for crv in comp.pfg.crvs} == {(0, 1)}

    def test_pipeline_counts_what_a_direct_call_counts(self):
        for seed in range(60):
            fg, evidence = generated_model(seed)
            for eps in (0.0, 0.1):
                comp = run_eacp(fg, eps, evidence)
                fresh = exact_crv_positions(comp.m_prime, comp.grouping, comp.rv_classes, eps)
                counted = {
                    gi: crv.positions
                    for gi, crv in enumerate(comp.pfg.crvs)
                    if crv is not None
                }
                assert counted == fresh

    def test_matches_reference_on_generated_models(self):
        # the pipeline's final stage, and the colour pass's starting one:
        # phase-1 groups over the initial RV colours, where symmetric
        # factors share a class and count
        counted = 0
        for seed in range(150):
            fg, evidence = generated_model(seed)
            start = initial_rv_colours(fg, evidence)
            initial_classes = {}
            for name, colour in start.items():
                initial_classes.setdefault(colour, []).append(name)
            for eps in (0.0, 0.1):
                comp = run_eacp(fg, eps, evidence)
                for stage in (
                    (comp.m_prime, comp.grouping, comp.rv_classes),
                    (fg, phase1_group(fg.factors, eps), list(initial_classes.values())),
                ):
                    got = exact_crv_positions(*stage, eps)
                    assert got == reference_crv_positions(*stage, eps)
                    counted += len(got)
        assert counted > 20

    @pytest.mark.parametrize("perturbed", [False, True])
    def test_one_detection_per_initial_class_on_stars(self, monkeypatch, perturbed):
        fg = deep_star(16, 3, seed=1) if perturbed else star_model(16, 3, seed=1)
        detections, _ = _record_detections(monkeypatch)
        comp = run_eacp(fg, 0.1)
        assert len(detections) == len(phase1_group(fg.factors, 0.1).groups)
        detections.clear()
        assert exact_crv_positions(comp.m_prime, comp.grouping, comp.rv_classes, 0.1) == {}
        assert detections == []

    def test_one_detection_per_key_on_an_acp_star(self, monkeypatch):
        fg = star_model(16, 3, seed=2)
        detections, calls = _record_detections(monkeypatch)
        run_eacp(fg, 0.0)
        # three distinct tables, each detected once for colour passing and
        # never for counting
        keys = [key for key, _ in detections]
        assert len(keys) == len(set(keys)) == 3
        # one range labelling: colour passing detects them in one call
        assert calls == [3]

    def test_one_detection_call_per_range_labelling(self, monkeypatch):
        # binary-binary and binary-ternary frames: two labellings, two calls,
        # each stacking the representatives of its labelling
        tf, xyz = ("t", "f"), ("x", "y", "z")
        rvs = tuple(RandomVariable(n, tf) for n in "ABC") + (RandomVariable("D", xyz),)
        rng = np.random.default_rng(4)
        fg = FactorGraph(rvs, (
            Factor("f1", ("A", "B"), rng.uniform(0.1, 1.0, (2, 2))),
            Factor("f2", ("A", "D"), rng.uniform(0.1, 1.0, (2, 3))),
            Factor("f3", ("B", "C"), rng.uniform(0.1, 1.0, (2, 2))),
            Factor("f4", ("C", "D"), rng.uniform(0.1, 1.0, (2, 3))),
        ))
        colours, alignments = initial_factor_colours_exact(fg.factors)
        detections, calls = _record_detections(monkeypatch)
        colour_pass(fg, colours, Evidence(), alignments=alignments, eps=0.0)
        assert calls == [2, 2]
        tables = [fg.factor(n).table for n in ("f1", "f3", "f2", "f4")]
        assert [key[:2] for key, _ in detections] == [(t.shape, t.tobytes()) for t in tables]
