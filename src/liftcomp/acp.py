"""Colour passing over factor graphs, parfactor construction, grounding.

colour_pass runs the Weisfeiler-Leman style refinement: factors absorb
the colours of their argument RVs (viewed in their group frame so that
permuted-but-equivalent factors send comparable signatures) plus their
own colour; RVs absorb (factor colour, position) pairs plus their own
colour, with position 0 standing in for any argument slot that belongs
to a commutative block of the factor's class representative. Colours
are renumbered densely in first-seen order every round, and the loop
stops when neither partition changes. Initial factor colours are
injected by the caller: run_eacp seeds with the phase-1 eps-groups,
run_acp with initial_factor_colours_exact (bit-identical tables).

construct_pfg turns the final grouping into a parfactor graph: one
representative factor per group with an instance count, RV classes, and
optional counting compaction that re-indexes interchangeable argument
positions by value histogram. ground() expands the parfactor graph back
into a flat factor graph for round-trip checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Mapping, Sequence

import numpy as np

from .equivalence import (
    Alignment,
    BandStack,
    aligned_args,
    aligned_table,
    band_matches,
    check_epsilon,
    commutative_blocks,
    eps_equiv_factors,  # noqa: F401  perfbench/run.py counts calls through this name
    identity_alignment,
)
from .errors import InvariantError
from .grouping import GroupMember, Grouping
from .model import Evidence, Factor, FactorGraph, RandomVariable

__all__ = [
    "ColourState",
    "ColourPassResult",
    "CrvSpec",
    "Parfactor",
    "RvClass",
    "ParfactorGraph",
    "initial_rv_colours",
    "initial_factor_colours_exact",
    "colour_pass",
    "exact_crv_positions",
    "construct_pfg",
    "expand_crv",
    "ground",
    "pfg_equal",
]


@dataclass(frozen=True)
class ColourState:
    """Final colours per node plus the number of refinement rounds used."""

    rv_colours: dict[str, int]
    factor_colours: dict[str, int]
    iteration: int


@dataclass(frozen=True)
class ColourPassResult:
    grouping: Grouping
    rv_classes: tuple[tuple[str, ...], ...]
    state: ColourState


def initial_rv_colours(fg: FactorGraph, evidence: Evidence = Evidence()) -> dict[str, int]:
    """Colour RVs by (range labels, observed value or unobserved)."""
    evidence.validate_against(fg)
    observed = evidence.as_dict()
    colours: dict[str, int] = {}
    seen: dict[tuple, int] = {}
    for rv in fg.rvs:
        key = (rv.range, observed.get(rv.name))
        if key not in seen:
            seen[key] = len(seen)
        colours[rv.name] = seen[key]
    return colours


def initial_factor_colours_exact(
    factors: Sequence[Factor],
) -> tuple[dict[str, int], dict[str, Alignment]]:
    """Seed colours by bit-identical tables up to argument permutation.

    This is the classic colour-passing initialisation, the eps = 0 case
    of the band test. A factor takes the colour of the lowest-numbered
    representative (the first factor seen with its table) that some
    permutation matches, with the first such permutation in
    lexicographic order as its alignment into the representative's
    frame; a factor matching none becomes a new representative.
    Representatives of one shape are stacked and tested in one call.
    """
    colours: dict[str, int] = {}
    alignments: dict[str, Alignment] = {}
    stacks: dict[tuple[int, ...], BandStack] = {}
    n_reps = 0
    for f in factors:
        found = band_matches(f.table, stacks.values(), 0.0)
        if found:
            colour = min(found)
            colours[f.name] = colour
            alignments[f.name] = found[colour]
        else:
            stacks.setdefault(f.table.shape, BandStack(f.table.shape)).append(n_reps, f.table)
            colours[f.name] = n_reps
            alignments[f.name] = identity_alignment(f.arity)
            n_reps += 1
    return colours, alignments


def _dense_renumber(order: Sequence[str], sigs: Mapping[str, tuple]) -> dict[str, int]:
    # canonical ids: first-seen order over the given node ordering
    ids: dict[tuple, int] = {}
    out: dict[str, int] = {}
    for name in order:
        sig = sigs[name]
        if sig not in ids:
            ids[sig] = len(ids)
        out[name] = ids[sig]
    return out


def _class_blocks(
    fg: FactorGraph,
    factors_of_colour: dict[int, list[Factor]],
    alignments: Mapping[str, Alignment],
    eps: float,
) -> tuple[dict[int, tuple[tuple[int, ...], ...]], dict[int, frozenset[int]]]:
    """Commutative blocks of each initial class representative, in the group frame.

    Detected once before the refinement loop and inherited by all members
    of the class; positions inside a block of size >= 2 are the counted
    candidates that send position 0 during colour passing.
    """
    blocks_by_colour: dict[int, tuple[tuple[int, ...], ...]] = {}
    counted_by_colour: dict[int, frozenset[int]] = {}
    for colour, members in factors_of_colour.items():
        rep = members[0]
        perm = alignments[rep.name]
        frame_args = aligned_args(rep.args, perm)
        frame = Factor(rep.name, frame_args, aligned_table(rep.table, perm))
        spec = commutative_blocks(frame, eps, tuple(fg.rv(a).range for a in frame_args))
        blocks_by_colour[colour] = spec.blocks
        counted_by_colour[colour] = frozenset(
            p for block in spec.blocks if len(block) >= 2 for p in block
        )
    return blocks_by_colour, counted_by_colour


def colour_pass(
    fg: FactorGraph,
    initial_factor_colours: Mapping[str, int],
    evidence: Evidence = Evidence(),
    *,
    alignments: Mapping[str, Alignment] | None = None,
    eps: float = 0.0,
) -> ColourPassResult:
    """Refine RV and factor colours to the coarsest stable partition.

    initial_factor_colours must cover every factor; alignments default to
    the identity. eps only affects commutativity detection on the class
    representatives (position-0 marking), not the refinement itself.
    """
    eps = check_epsilon(eps)
    aligns: dict[str, Alignment] = {}
    for f in fg.factors:
        if f.name not in initial_factor_colours:
            raise InvariantError(f"no initial colour for factor {f.name!r}")
        perm = (
            alignments.get(f.name, identity_alignment(f.arity))
            if alignments
            else identity_alignment(f.arity)
        )
        aligns[f.name] = perm

    init_colour = dict(initial_factor_colours)
    factors_of_colour: dict[int, list[Factor]] = {}
    for f in fg.factors:
        factors_of_colour.setdefault(init_colour[f.name], []).append(f)
    blocks_by_colour, counted_by_colour = _class_blocks(
        fg, factors_of_colour, aligns, eps
    )

    frame_args = {f.name: aligned_args(f.args, aligns[f.name]) for f in fg.factors}
    rv_order = [rv.name for rv in fg.rvs]
    f_order = [f.name for f in fg.factors]

    rv_col = initial_rv_colours(fg, evidence)
    f_col = _dense_renumber(
        f_order, {name: (init_colour[name],) for name in f_order}
    )

    iteration = 0
    max_rounds = len(fg.rvs) + len(fg.factors) + 2
    while True:
        if iteration > max_rounds:
            raise InvariantError("colour refinement failed to stabilize")
        # factors first: argument colours in the group frame + own colour
        fsigs: dict[str, tuple] = {}
        for f in fg.factors:
            cols = [rv_col[a] for a in frame_args[f.name]]
            for block in blocks_by_colour[init_colour[f.name]]:
                if len(block) >= 2:
                    vals = sorted(cols[p] for p in block)
                    for p, v in zip(block, vals):
                        cols[p] = v
            fsigs[f.name] = (tuple(cols), f_col[f.name])
        new_f_col = _dense_renumber(f_order, fsigs)

        # then RVs: sorted (factor colour, position) pairs + own colour,
        # position 0 for slots inside a commutative block
        incoming: dict[str, list[tuple[int, int]]] = {name: [] for name in rv_order}
        for f in fg.factors:
            counted = counted_by_colour[init_colour[f.name]]
            for j, a in enumerate(frame_args[f.name]):
                pos = 0 if j in counted else j + 1
                incoming[a].append((new_f_col[f.name], pos))
        rsigs = {
            name: (tuple(sorted(incoming[name])), rv_col[name]) for name in rv_order
        }
        new_rv_col = _dense_renumber(rv_order, rsigs)

        iteration += 1
        if new_f_col == f_col and new_rv_col == rv_col:
            break
        f_col, rv_col = new_f_col, new_rv_col

    factor_groups: dict[int, list[GroupMember]] = {}
    for name in f_order:
        factor_groups.setdefault(f_col[name], []).append(
            GroupMember(name, aligns[name])
        )
    grouping = Grouping(
        tuple(tuple(factor_groups[c]) for c in sorted(factor_groups))
    )
    rv_classes: dict[int, list[str]] = {}
    for name in rv_order:
        rv_classes.setdefault(rv_col[name], []).append(name)
    classes = tuple(tuple(rv_classes[c]) for c in sorted(rv_classes))
    return ColourPassResult(
        grouping, classes, ColourState(rv_col, f_col, iteration)
    )


@dataclass(frozen=True)
class CrvSpec:
    """Counting compaction: which representative positions are histogram-indexed.

    histograms lists the cells in their table row order; each cell is a
    tuple of per-label counts over the common range of the counted
    positions.
    """

    positions: tuple[int, ...]
    histograms: tuple[tuple[int, ...], ...]


@dataclass(frozen=True, eq=False, slots=True)
class Parfactor:
    name: str
    args: tuple[str, ...]
    table: np.ndarray
    count: int
    members: tuple[str, ...]
    member_args: tuple[tuple[str, ...], ...]
    crv: CrvSpec | None = None

    def __post_init__(self) -> None:
        if self.count != len(self.members) or len(self.members) != len(self.member_args):
            raise InvariantError(
                f"parfactor {self.name!r}: count/member bookkeeping out of sync"
            )


@dataclass(frozen=True, slots=True)
class RvClass:
    representative: RandomVariable
    members: tuple[str, ...]


@dataclass(frozen=True, eq=False)
class ParfactorGraph:
    rv_classes: tuple[RvClass, ...]
    parfactors: tuple[Parfactor, ...]


@lru_cache(maxsize=64)
def _histogram_index(size: int, n: int) -> tuple[tuple[tuple[int, ...], ...], np.ndarray]:
    """Cells in first-occurrence order, and the cell of each row-major assignment."""
    index: dict[tuple[int, ...], int] = {}
    cell_of = np.empty(size**n, dtype=np.intp)
    for i, assignment in enumerate(product(range(size), repeat=n)):
        cell = tuple(assignment.count(v) for v in range(size))
        cell_of[i] = index.setdefault(cell, len(index))
    cell_of.flags.writeable = False
    return tuple(index), cell_of


def _compact_table(table: np.ndarray, positions: tuple[int, ...]) -> tuple[np.ndarray, CrvSpec]:
    n = len(positions)
    size = table.shape[positions[0]]
    keep = [i for i in range(table.ndim) if i not in positions]
    moved = np.moveaxis(table, positions, list(range(len(keep), table.ndim)))
    flat = moved.reshape([table.shape[i] for i in keep] + [size**n])
    cells, cell_of = _histogram_index(size, n)
    # arithmetic mean of the original potentials per histogram cell; a cell of
    # one value keeps it (a float mean of k equal values need not equal it)
    cols = [flat[..., np.flatnonzero(cell_of == i)] for i in range(len(cells))]
    out = np.stack(
        [np.where((c == c[..., :1]).all(axis=-1), c[..., 0], c.mean(axis=-1)) for c in cols], -1
    )
    return out, CrvSpec(tuple(positions), cells)


def exact_crv_positions(
    fg: FactorGraph,
    grouping: Grouping,
    rv_classes: Sequence[Sequence[str]],
    eps: float,
) -> dict[int, tuple[int, ...]]:
    """Counting candidates that compact losslessly, per group index.

    A block qualifies when it was detected commutative at eps on the
    group representative, the updated representative table is EXACTLY
    invariant under the block's transpositions (so histogram cells hold
    one value and grounding round-trips bit-exactly), and all counted
    argument slots hold RVs of one class. One block per group, the
    largest, earliest on ties.
    """
    eps = check_epsilon(eps)
    class_of: dict[str, int] = {}
    for ci, members in enumerate(rv_classes):
        for name in members:
            class_of[name] = ci
    out: dict[int, tuple[int, ...]] = {}
    for gi, group in enumerate(grouping.groups):
        rep = group[0]
        f = fg.factor(rep.factor)
        args = aligned_args(f.args, rep.align)
        table = aligned_table(f.table, rep.align)
        frame = Factor(f.name, args, table)
        spec = commutative_blocks(frame, eps, tuple(fg.rv(a).range for a in args))
        best: tuple[int, ...] | None = None
        for block in spec.counted_candidates():
            if len({class_of[args[p]] for p in block}) != 1:
                continue
            exact = all(
                np.array_equal(table, np.swapaxes(table, block[i], block[j]))
                for i in range(len(block))
                for j in range(i + 1, len(block))
            )
            if not exact:
                continue
            if best is None or len(block) > len(best):
                best = tuple(block)
        if best is not None:
            out[gi] = best
    return out


def construct_pfg(
    fg_updated: FactorGraph,
    factor_groups: Grouping,
    rv_classes: Sequence[Sequence[str]],
    crv_specs: Mapping[int, Sequence[int]] | None = None,
) -> ParfactorGraph:
    """One parfactor per group; tables must already be identical within a group."""
    classes = tuple(
        RvClass(fg_updated.rv(members[0]), tuple(members)) for members in rv_classes
    )
    covered = [name for c in classes for name in c.members]
    if sorted(covered) != sorted(rv.name for rv in fg_updated.rvs):
        raise InvariantError("rv classes must partition the model's RVs")
    for c in classes:
        for name in c.members:
            if fg_updated.rv(name).range != c.representative.range:
                raise InvariantError(
                    f"rv class of {c.representative.name!r} mixes ranges"
                )

    parfactors: list[Parfactor] = []
    for gi, group in enumerate(factor_groups.groups):
        rep = group[0]
        rep_factor = fg_updated.factor(rep.factor)
        table = aligned_table(rep_factor.table, rep.align)
        args = aligned_args(rep_factor.args, rep.align)
        member_args: list[tuple[str, ...]] = []
        for member in group:
            f = fg_updated.factor(member.factor)
            aligned = aligned_table(f.table, member.align)
            if not np.array_equal(aligned, table):
                raise InvariantError(
                    f"group {gi}: member {member.factor!r} table differs from "
                    f"representative {rep.factor!r} after alignment"
                )
            member_args.append(aligned_args(f.args, member.align))
        positions = tuple(crv_specs[gi]) if crv_specs and gi in crv_specs else None
        crv = None
        if positions:
            if len(positions) < 2 or len(set(positions)) != len(positions):
                raise InvariantError(f"group {gi}: invalid counted positions {positions}")
            sizes = {table.shape[p] for p in positions}
            if len(sizes) != 1:
                raise InvariantError(
                    f"group {gi}: counted positions {positions} mix range sizes"
                )
            table, crv = _compact_table(table, positions)
        parfactors.append(
            Parfactor(
                name=rep.factor,
                args=args,
                table=table,
                count=len(group),
                members=tuple(m.factor for m in group),
                member_args=tuple(member_args),
                crv=crv,
            )
        )
    return ParfactorGraph(classes, tuple(parfactors))


def expand_crv(pf: Parfactor) -> np.ndarray:
    """Full per-assignment table of a parfactor, undoing counting compaction."""
    if pf.crv is None:
        return pf.table
    positions = pf.crv.positions
    n = len(positions)
    size = len(pf.crv.histograms[0])
    _, cell_of = _histogram_index(size, n)
    keep = pf.table.ndim - 1
    full_moved = pf.table[..., cell_of].reshape(pf.table.shape[:-1] + (size,) * n)
    return np.moveaxis(full_moved, list(range(keep, keep + n)), positions)


def ground(pfg: ParfactorGraph) -> FactorGraph:
    """Expand every parfactor back into its member factors."""
    rvs = tuple(
        RandomVariable(name, c.representative.range)
        for c in pfg.rv_classes
        for name in c.members
    )
    factors = []
    for pf in pfg.parfactors:
        table = expand_crv(pf)
        for member, args in zip(pf.members, pf.member_args):
            factors.append(Factor(member, args, table))
    return FactorGraph(rvs, tuple(factors))


def pfg_equal(a: ParfactorGraph, b: ParfactorGraph) -> bool:
    """Structural equality with bit-exact tables."""
    if a.rv_classes != b.rv_classes:
        return False
    if len(a.parfactors) != len(b.parfactors):
        return False
    for pa, pb in zip(a.parfactors, b.parfactors):
        if (
            pa.name != pb.name
            or pa.args != pb.args
            or pa.count != pb.count
            or pa.members != pb.members
            or pa.member_args != pb.member_args
            or pa.crv != pb.crv
            or not np.array_equal(pa.table, pb.table)
        ):
            return False
    return True
