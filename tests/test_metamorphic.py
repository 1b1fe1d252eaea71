"""Metamorphic relations of compression: one model, written two ways, compresses alike.

The goldens pin fixed seeds; these relations hold for every drawn model
and eps. Renaming every RV and factor renames the result, whether the
renaming keeps the names' order or scrambles it, and reversing the RV
declarations changes nothing but the order of RVs within the result's
classes. Reversing one factor's arguments is not such a relation: one
pinned case shows it regrouping.
"""

from __future__ import annotations

import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from liftcomp import (
    EPS_DOMAIN, Factor, FactorGraph, GenConfig, RandomVariable, generate_fg, perturb,
    phase1_group, run_eacp,
)

from conftest import mixed_range_model, random_model, star_model

# random_model with each copy noise, mixed_range_model, star_model, and a
# perturbed generated star, whose mean update changes tables at eps > 0
KINDS = [
    "random, exact copies", "random, noise 0.02", "random, noise 0.05", "mixed", "star",
    "perturbed star",
]


@st.composite
def models(draw):
    """A model of one of KINDS and an eps in {0} and EPS_DOMAIN."""
    kind = draw(st.sampled_from(KINDS))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    if kind == "star":
        fg = star_model(draw(st.integers(1, 6)), draw(st.integers(1, 3)), seed)
    elif kind == "perturbed star":
        x = draw(st.sampled_from([0.1, 0.5, 1.0]))
        cfg = GenConfig(k=draw(st.integers(2, 6)), x=x, eps=0.1, seed=seed, free=True)
        fg = perturb(generate_fg(cfg), cfg)
    elif kind == "mixed":
        fg = mixed_range_model(rng)
    else:
        fg = random_model(rng, copy_noise=(0.0, 0.02, 0.05)[KINDS.index(kind)])
    return fg, draw(st.sampled_from((0.0, *EPS_DOMAIN)))


def rebuilt(fg, rv_name, factor_name, reverse=False):
    """fg with every RV and factor renamed by the maps, its RVs declared in reverse if asked."""
    rvs = tuple(RandomVariable(rv_name[rv.name], rv.range) for rv in fg.rvs)
    factors = tuple(
        Factor(factor_name[f.name], tuple(rv_name[a] for a in f.args), f.table)
        for f in fg.factors
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")   # an RV in no scope is part of the sample
        return FactorGraph(rvs[::-1] if reverse else rvs, factors)


def outcome(fg, eps, rv_back, factor_back):
    """What compression makes of fg, in the names the maps give back.

    The grouping with each member's alignment, each updated factor's
    arguments and table bytes in declaration order, the deviations, and
    the RV classes.
    """
    res = run_eacp(fg, eps)
    groups = [[(factor_back[m.factor], m.align) for m in g] for g in res.grouping.groups]
    tables = [
        (factor_back[f.name], tuple(rv_back[a] for a in f.args), f.table.tobytes())
        for f in res.m_prime.factors
    ]
    classes = [[rv_back[v] for v in c] for c in res.rv_classes]
    return groups, tables, res.deviations, classes


def names_map(draw, names, letter):
    """A renaming of names: prefixed, which keeps their order, or numbered in a drawn order."""
    if draw(st.booleans()):
        return {n: f"{letter}_{n}" for n in names}
    order = draw(st.permutations(range(len(names))))
    return {n: f"{letter}{i:03d}" for n, i in zip(names, order)}


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=models(), data=st.data())
def test_renaming_renames_the_result(case, data):
    fg, eps = case
    rv_name = names_map(data.draw, [rv.name for rv in fg.rvs], "R")
    factor_name = names_map(data.draw, [f.name for f in fg.factors], "F")
    same = {n: n for n in rv_name} | {n: n for n in factor_name}
    back = {new: old for old, new in (rv_name | factor_name).items()}
    renamed = rebuilt(fg, rv_name, factor_name)
    assert outcome(renamed, eps, back, back) == outcome(fg, eps, same, same)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=models())
def test_reversed_rv_declarations_change_nothing(case):
    fg, eps = case
    same = {rv.name: rv.name for rv in fg.rvs} | {f.name: f.name for f in fg.factors}
    groups, tables, deviations, classes = outcome(fg, eps, same, same)
    reversed_ = outcome(rebuilt(fg, same, same, reverse=True), eps, same, same)
    assert reversed_[:3] == (groups, tables, deviations)
    assert {frozenset(c) for c in reversed_[3]} == {frozenset(c) for c in classes}


def test_reversed_arguments_can_change_the_grouping():
    # a factor keeps the first alignment that fits in its own frame, so
    # reversing f6's arguments keeps its alignment (0, 1) and flips its
    # arguments in its group's frame; colour passing, where V0 and V1 differ
    # (f3 is over V1 alone, f4 over V0), then splits phase 1's group along
    # them. An order-free rule would change outputs; this pins today's.
    fg = random_model(np.random.default_rng(343), copy_noise=0.02)
    flipped = FactorGraph(fg.rvs, tuple(
        Factor(f.name, f.args[::-1], f.table.T) if f.name == "f6" else f for f in fg.factors
    ))
    assert [f.args for f in fg.factors if f.name == "f6"] == [("V1", "V0")]

    def groups(grouping):
        return [[(m.factor, m.align) for m in g] for g in grouping.groups]

    f0, f2, f5, f6 = [(f"f{i}", (0, 1)) for i in (0, 2, 5, 6)]
    f1 = ("f1", (1, 0))
    unary = [[("f3", (0,))], [("f4", (0,))]]
    phase1 = [[f0, f1, f2, f5, f6]] + unary
    assert groups(phase1_group(fg.factors, 0.1)) == phase1
    assert groups(phase1_group(flipped.factors, 0.1)) == phase1
    assert groups(run_eacp(fg, 0.1).grouping) == [[f0, f1], [f2, f5, f6]] + unary
    assert groups(run_eacp(flipped, 0.1).grouping) == [[f0, f1, f6], [f2, f5]] + unary
