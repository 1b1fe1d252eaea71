"""Colour passing over factor graphs, parfactor construction, grounding.

colour_pass runs the Weisfeiler-Leman style refinement: factors absorb
the colours of their argument RVs (viewed in their group frame so that
permuted-but-equivalent factors send comparable signatures) plus their
own colour; RVs absorb (factor colour, position) pairs plus their own
colour, with position 0 standing in for any argument slot that belongs
to a commutative block of the factor's class representative. Colours
are renumbered densely in first-seen order every round, and the loop
stops when neither partition changes. The loop runs on integer slots
(RV numbers per factor, (factor, position) pairs per RV) built once
before it; at the benchmark's sizes plain Python on these slots beats
numpy, whose per-call cost exceeds the work. Initial factor colours are
injected by the caller: run_eacp seeds with the phase-1 eps-groups,
run_acp with initial_factor_colours_exact (bit-identical tables).

Commutativity is detected by equivalence.commutative_blocks on a
factor's table viewed in its group frame, with that frame's range
labels, once per distinct (shape, table bytes, range labels) within one
compression (_frame_blocks): colour_pass detects it on each class
representative and hands its results on, and exact_crv_positions
detects it again only for representative tables it has not seen, such
as the ones the mean update changed.

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
    ARITY_CAP,
    Alignment,
    _permutations,
    aligned_args,
    aligned_table,
    check_epsilon,
    commutative_blocks,
    eps_equiv_factors,  # noqa: F401  perfbench/run.py counts calls through this name
    identity_alignment,
)
from .errors import ArityCapError, InvariantError
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


# (frame shape, frame table bytes, frame range labels) -> commutative blocks
BlocksKey = tuple[tuple[int, ...], bytes, tuple[tuple[str, ...], ...]]


@dataclass(frozen=True)
class ColourState:
    """Final colours per node plus the number of refinement rounds used."""

    rv_colours: dict[str, int]
    factor_colours: dict[str, int]
    iteration: int


@dataclass(frozen=True)
class ColourPassResult:
    """Final grouping and RV classes; blocks holds every commutativity detection made."""

    grouping: Grouping
    rv_classes: tuple[tuple[str, ...], ...]
    state: ColourState
    blocks: Mapping[BlocksKey, tuple[tuple[int, ...], ...]]


def initial_rv_colours(fg: FactorGraph, evidence: Evidence) -> dict[str, int]:
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
    of the band test. A factor takes the colour of the representative
    (the first factor seen with its table) that some permutation
    matches, with the first such permutation in lexicographic order as
    its alignment into the representative's frame; a factor matching
    none becomes a new representative. Representatives are keyed by
    (shape, table bytes), and a factor looks up its table viewed in
    each permutation's frame, stopping at the first hit. This is exact:
    tables are positive finite float64, so byte equality is the eps = 0
    band test; representatives lie in disjoint permutation orbits, so at
    most one matches and the first hit is its first alignment; and the
    shape in the key admits only range-compatible permutations.
    """
    colours: dict[str, int] = {}
    alignments: dict[str, Alignment] = {}
    reps: dict[tuple[tuple[int, ...], bytes], int] = {}
    rep_arities: set[int] = set()
    for f in factors:
        hit = _exact_match(f.table, reps) if f.arity in rep_arities else None
        if hit is None:
            hit = len(reps), identity_alignment(f.arity)
            reps[f.table.shape, f.table.tobytes()] = len(reps)
            rep_arities.add(f.arity)
        colours[f.name], alignments[f.name] = hit
    return colours, alignments


def _exact_match(
    table: np.ndarray, reps: Mapping[tuple[tuple[int, ...], bytes], int]
) -> tuple[int, Alignment] | None:
    if table.ndim > ARITY_CAP:
        raise ArityCapError(f"arity {table.ndim} exceeds permutation search cap {ARITY_CAP}")
    for perm in _permutations(table.ndim):
        view = aligned_table(table, perm)
        colour = reps.get((view.shape, view.tobytes()))
        if colour is not None:
            return colour, perm
    return None


def _frame_blocks(
    fg: FactorGraph,
    table: np.ndarray,
    args: tuple[str, ...],
    eps: float,
    known: dict[BlocksKey, tuple[tuple[int, ...], ...]],
) -> tuple[tuple[int, ...], ...]:
    """Commutative blocks of a factor's table and arguments in its group frame.

    Equal frame tables with equal range labels have equal blocks, so a key
    already in `known` is answered from it; a new key is detected and
    added.
    """
    ranges = tuple(fg.rv(a).range for a in args)
    key = (table.shape, table.tobytes(), ranges)
    blocks = known.get(key)
    if blocks is None:
        blocks = known[key] = commutative_blocks(table, eps, ranges)
    return blocks


def colour_pass(
    fg: FactorGraph,
    initial_factor_colours: Mapping[str, int],
    evidence: Evidence,
    *,
    alignments: Mapping[str, Alignment],
    eps: float,
) -> ColourPassResult:
    """Refine RV and factor colours to the coarsest stable partition.

    initial_factor_colours and alignments must each cover every factor;
    an alignment views the factor's table in its initial group's frame.
    eps only affects commutativity detection on the class representatives
    (position-0 marking), not the refinement itself.

    The refinement works on integer slots: RVs and factors are numbered
    in model order, each factor holds the RV numbers of its group-frame
    arguments and the blocks to sort, and each RV holds its (factor,
    position) slots. Colours are renumbered in first-seen order over that
    numbering. The result carries the commutative blocks it detected, for
    exact_crv_positions.
    """
    eps = check_epsilon(eps)
    rv_index = {rv.name: i for i, rv in enumerate(fg.rvs)}.__getitem__
    known: dict[BlocksKey, tuple[tuple[int, ...], ...]] = {}
    # per initial class: blocks to sort, and the position each slot sends
    class_slots: dict[int, tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]] = {}
    f_perms: list[Alignment] = []
    f_args: list[tuple[int, ...]] = []
    f_sorts: list[tuple[tuple[int, ...], ...]] = []
    slots: list[list[tuple[int, int]]] = [[] for _ in fg.rvs]
    f_col: list[int] = []
    first_seen: dict[int, int] = {}   # initial colours renumbered like every round's
    for fi, f in enumerate(fg.factors):
        if f.name not in initial_factor_colours:
            raise InvariantError(f"no initial colour for factor {f.name!r}")
        if f.name not in alignments:
            raise InvariantError(f"no alignment for factor {f.name!r}")
        perm = alignments[f.name]
        colour = initial_factor_colours[f.name]
        frame_args = aligned_args(f.args, perm)
        if colour not in class_slots:
            # the class representative, its first factor, decides the blocks
            blocks = _frame_blocks(fg, aligned_table(f.table, perm), frame_args, eps, known)
            sorts = tuple(b for b in blocks if len(b) >= 2)
            counted = {p for b in sorts for p in b}
            positions = tuple(0 if j in counted else j + 1 for j in range(f.arity))
            class_slots[colour] = sorts, positions
        sorts, positions = class_slots[colour]
        args = tuple(map(rv_index, frame_args))
        for a, pos in zip(args, positions):
            slots[a].append((fi, pos))
        f_perms.append(perm)
        f_args.append(args)
        f_sorts.append(sorts)
        f_col.append(first_seen.setdefault(colour, len(first_seen)))
    start_rv = initial_rv_colours(fg, evidence)
    rv_col = [start_rv[rv.name] for rv in fg.rvs]

    iteration = 0
    max_rounds = len(fg.rvs) + len(fg.factors) + 2
    while True:
        if iteration > max_rounds:
            raise InvariantError("colour refinement failed to stabilize")
        # factors first: argument colours in the group frame + own colour
        ids: dict[tuple, int] = {}
        new_f_col: list[int] = []
        for args, sorts, own in zip(f_args, f_sorts, f_col):
            cols = [rv_col[a] for a in args]
            for block in sorts:
                for p, v in zip(block, sorted([cols[p] for p in block])):
                    cols[p] = v
            new_f_col.append(ids.setdefault((tuple(cols), own), len(ids)))

        # then RVs: sorted (factor colour, position) pairs + own colour,
        # position 0 for slots inside a commutative block
        ids = {}
        new_rv_col: list[int] = []
        for rv_slots, own in zip(slots, rv_col):
            sig = tuple(sorted([(new_f_col[fi], pos) for fi, pos in rv_slots]))
            new_rv_col.append(ids.setdefault((sig, own), len(ids)))

        iteration += 1
        if new_f_col == f_col and new_rv_col == rv_col:
            break
        f_col, rv_col = new_f_col, new_rv_col

    factor_groups: dict[int, list[GroupMember]] = {}
    for f, perm, colour in zip(fg.factors, f_perms, f_col):
        factor_groups.setdefault(colour, []).append(GroupMember(f.name, perm))
    grouping = Grouping(tuple(tuple(factor_groups[c]) for c in sorted(factor_groups)))
    rv_classes: dict[int, list[str]] = {}
    for rv, colour in zip(fg.rvs, rv_col):
        rv_classes.setdefault(colour, []).append(rv.name)
    classes = tuple(tuple(rv_classes[c]) for c in sorted(rv_classes))
    state = ColourState(
        {rv.name: c for rv, c in zip(fg.rvs, rv_col)},
        {f.name: c for f, c in zip(fg.factors, f_col)},
        iteration,
    )
    return ColourPassResult(grouping, classes, state, known)


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
    members: tuple[str, ...]
    member_args: tuple[tuple[str, ...], ...]
    crv: CrvSpec | None = None

    def __post_init__(self) -> None:
        if len(self.members) != len(self.member_args):
            raise InvariantError(
                f"parfactor {self.name!r}: members and member_args out of sync"
            )

    @property
    def count(self) -> int:
        """Number of ground factors the parfactor stands for."""
        return len(self.members)


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


def _counted_table(
    table: np.ndarray, positions: tuple[int, ...]
) -> tuple[np.ndarray, CrvSpec] | None:
    """The table with the positions replaced by one last axis of histogram cells.

    None when a cell holds two values, i.e. the table is not invariant
    under every permutation of the positions and grounding would not
    return it.
    """
    n = len(positions)
    size = table.shape[positions[0]]
    keep = [i for i in range(table.ndim) if i not in positions]
    moved = np.moveaxis(table, positions, list(range(len(keep), table.ndim)))
    flat = moved.reshape([table.shape[i] for i in keep] + [size**n])
    cells, cell_of = _histogram_index(size, n)
    out = flat[..., np.unique(cell_of, return_index=True)[1]]
    if not np.array_equal(out[..., cell_of], flat):
        return None
    return out, CrvSpec(positions, cells)


def exact_crv_positions(
    fg: FactorGraph,
    grouping: Grouping,
    rv_classes: Sequence[Sequence[str]],
    eps: float,
    *,
    known_blocks: Mapping[BlocksKey, tuple[tuple[int, ...], ...]],
) -> dict[int, tuple[int, ...]]:
    """Counting candidates that compact losslessly, per group index.

    A block qualifies when it was detected commutative at eps on the
    group representative, the updated representative table is EXACTLY
    invariant under the block's permutations (each histogram cell holds
    one value, so grounding round-trips bit-exactly), and all counted
    argument slots hold RVs of one class. One block per group, the
    largest, earliest on ties.

    known_blocks holds the detections of a colour pass at the same eps
    (ColourPassResult.blocks), or is empty: a representative whose frame
    table and range labels are already there is not tested again, and a
    table the mean update changed has other bytes, so it is.
    """
    eps = check_epsilon(eps)
    known = dict(known_blocks)
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
        blocks = _frame_blocks(fg, table, args, eps, known)
        candidates = [
            block for block in blocks
            if len(block) >= 2
            and len({class_of[args[p]] for p in block}) == 1
            and _counted_table(table, block) is not None
        ]
        if candidates:
            out[gi] = max(candidates, key=len)  # the first of the largest
    return out


def construct_pfg(
    fg_updated: FactorGraph,
    factor_groups: Grouping,
    rv_classes: Sequence[Sequence[str]],
    crv_specs: Mapping[int, Sequence[int]],
) -> ParfactorGraph:
    """One parfactor per group; tables must already be identical within a group.

    crv_specs maps a group index to argument positions to count, and a
    group it does not list is not counted; the group's table must be
    exactly invariant under them (see exact_crv_positions), otherwise
    InvariantError.
    """
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
        positions = tuple(crv_specs.get(gi, ()))
        crv = None
        if positions:
            if len(positions) < 2 or len(set(positions)) != len(positions):
                raise InvariantError(f"group {gi}: invalid counted positions {positions}")
            sizes = {table.shape[p] for p in positions}
            if len(sizes) != 1:
                raise InvariantError(
                    f"group {gi}: counted positions {positions} mix range sizes"
                )
            compacted = _counted_table(table, positions)
            if compacted is None:
                raise InvariantError(
                    f"group {gi}: table is not invariant under its counted positions {positions}"
                )
            table, crv = compacted
        parfactors.append(
            Parfactor(
                name=rep.factor,
                args=args,
                table=table,
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
            or pa.members != pb.members
            or pa.member_args != pb.member_args
            or pa.crv != pb.crv
            or not np.array_equal(pa.table, pb.table)
        ):
            return False
    return True
