"""Colour passing over factor graphs, parfactor construction, grounding.

colour_pass runs the Weisfeiler-Leman style refinement: factors absorb
the colours of their argument RVs (viewed in their group frame so that
permuted-but-equivalent factors send comparable signatures) plus their
own colour; RVs absorb (factor colour, position) pairs plus their own
colour, with position 0 standing in for any argument slot that belongs
to a commutative block of the factor's class representative. Rounds
are synchronous, factors then RVs, and the loop stops after the first
round in which neither partition changes. Round 1 signs every node,
except the factors when every RV starts with one colour (no evidence,
one range): a factor's signature is then its class and one repeated RV
colour, the same for all its classmates, so no class can split. After
round 1 only the frontier is signed again: a factor when one of its
argument RVs took a new label in the previous RV step, an RV when one
of its factors took a new label in the same round, since no other
signature can have changed ("process what changed": Paige & Tarjan
1987, Berkholz, Bonsma & Grohe 2017). A node alone in its class is
never signed, as a class of one cannot split. A class that splits
keeps its label on its members that were not signed again, or on its
largest part when all were, so a node takes a new label only when its
class split. The groups and classes are read off the final labels in
first-member order; they and the round count are those of signing every
node in every round. The loop runs on integer slots (RV numbers
per factor, (factor, position) pairs per RV) built once before it; at
the benchmark's sizes plain Python on these slots beats numpy, whose
per-call cost exceeds the work. The initial factor colours and their
alignments are injected by the caller.

Commutativity is detected by equivalence.commutative_blocks on a
factor's table viewed in its group frame, with that frame's range
labels, by the stage that uses it: colour_pass on each initial class
representative, and exact_crv_positions on the updated representative
of each final group whose arguments hold two RVs of one class, the only
groups in which a block can be counted.

construct_pfg turns the final grouping into a parfactor graph: per
group, its members in the representative's frame, one table and an
optional counting compaction that re-indexes interchangeable argument
positions by value histogram, and the RV classes. The graph is stored as
columns (ParfactorGraph), not as one object per group and per class. It
checks the members of a group one alignment at a time, in one stacked
comparison per alignment. ground() expands the parfactor graph back into
a flat factor graph for round-trip checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, product
from typing import Iterable, Mapping, Sequence

import numpy as np

from .equivalence import (
    Alignment,
    _permutations,
    aligned_args,
    aligned_table,
    check_epsilon,
    commutative_blocks,
    eps_equiv_factors,  # noqa: F401  perfbench/run.py counts calls through this name
    identity_alignment,
    unaligned_table,
)
from .errors import InvariantError
from .grouping import GroupMember, Grouping
from .model import Evidence, Factor, FactorGraph, RandomVariable, check_evidence

__all__ = [
    "ColourState",
    "ColourPassResult",
    "CrvSpec",
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
    """The number of refinement rounds used."""

    iteration: int


@dataclass(frozen=True)
class ColourPassResult:
    """Final grouping, RV classes and colour state."""

    grouping: Grouping
    rv_classes: tuple[tuple[str, ...], ...]
    state: ColourState


def initial_rv_colours(fg: FactorGraph, evidence: Evidence) -> dict[str, int]:
    """Colour RVs by (range labels, observed value or unobserved)."""
    check_evidence(evidence).validate_against(fg)
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
    for perm in _permutations(table.ndim):
        view = aligned_table(table, perm)
        colour = reps.get((view.shape, view.tobytes()))
        if colour is not None:
            return colour, perm
    return None


def _class_sizes(labels: list[int]) -> list[int]:
    """Members per label, for labels numbered 0, 1, ... without gaps."""
    sizes = [0] * (max(labels, default=-1) + 1)
    for c in labels:
        sizes[c] += 1
    return sizes


def _split(parts: Mapping[tuple, list[int]], labels: list[int], sizes: list[int]) -> list[int]:
    """Give each new part of a class a new label; return the nodes relabelled.

    parts maps (label, *signature) to the re-signed members of that class
    with that signature. A node is re-signed only when a neighbour took a
    new label in the step before, so its signature holds that label and
    differs from the one its classmates not re-signed share: they keep
    the label and every part moves. When every member was re-signed, the
    largest part keeps the label, so a class whose members all agree
    stays whole and the next step re-signs less.
    """
    by_label: dict[int, list[list[int]]] = {}
    for key, part in parts.items():
        by_label.setdefault(key[0], []).append(part)
    changed: list[int] = []
    for c, split in by_label.items():
        if sum(map(len, split)) == sizes[c]:
            split.remove(max(split, key=len))   # parts are disjoint: removes that one
        for part in split:
            sizes[c] -= len(part)
            new = len(sizes)
            sizes.append(len(part))
            for n in part:
                labels[n] = new
            changed += part
    return changed


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
    position) slots. Each round signs only the frontier (module
    docstring). Groups and classes list their members in model order and
    come in the order of their first members.
    """
    eps = check_epsilon(eps)
    rv_index = fg._rv_pos.__getitem__  # type: ignore[attr-defined]
    # per initial class: blocks to sort, and the position each slot sends
    class_slots: dict[int, tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]] = {}
    f_args: list[tuple[int, ...]] = []
    f_sorts: list[tuple[tuple[int, ...], ...]] = []
    slots: list[list[tuple[int, int]]] = [[] for _ in fg.rvs]
    # colours are class labels, the initial ones numbered 0, 1, ... in
    # first-seen order, each kept by the part of its class that does not
    # move when it splits
    dense: dict[int, int] = {}
    f_col: list[int] = []
    for fi, f in enumerate(fg.factors):
        if f.name not in initial_factor_colours:
            raise InvariantError(f"no initial colour for factor {f.name!r}")
        if f.name not in alignments:
            raise InvariantError(f"no alignment for factor {f.name!r}")
        perm = alignments[f.name]
        colour = dense.setdefault(initial_factor_colours[f.name], len(dense))
        frame_args = aligned_args(f.args, perm)
        if colour not in class_slots:
            # the class representative, its first factor, decides the blocks
            blocks = commutative_blocks(
                aligned_table(f.table, perm), eps, tuple(fg.rv(a).range for a in frame_args)
            )
            sorts = tuple(b for b in blocks if len(b) >= 2)
            counted = {p for b in sorts for p in b}
            positions = tuple(0 if j in counted else j + 1 for j in range(f.arity))
            class_slots[colour] = sorts, positions
        sorts, positions = class_slots[colour]
        args = tuple(map(rv_index, frame_args))
        for a, pos in zip(args, positions):
            slots[a].append((fi, pos))
        f_args.append(args)
        f_sorts.append(sorts)
        f_col.append(colour)
    rv_col = list(initial_rv_colours(fg, evidence).values())   # in model order
    f_sizes = _class_sizes(f_col)
    rv_sizes = _class_sizes(rv_col)
    # round 1 signs every node, except the factors while every RV has one
    # colour: every member of a factor class then signs the same
    f_frontier: Iterable[int] = range(len(f_col)) if len(rv_sizes) > 1 else ()
    iteration = 0
    max_rounds = len(fg.rvs) + len(fg.factors) + 2
    while True:
        if iteration > max_rounds:
            raise InvariantError("colour refinement failed to stabilize")
        # factors first: argument colours in the group frame
        parts: dict[tuple, list[int]] = {}
        for fi in f_frontier:
            if f_sizes[f_col[fi]] == 1:
                continue   # a class of one cannot split
            cols = [rv_col[a] for a in f_args[fi]]
            for block in f_sorts[fi]:
                for p, v in zip(block, sorted([cols[p] for p in block])):
                    cols[p] = v
            parts.setdefault((f_col[fi], *cols), []).append(fi)
        f_changed = _split(parts, f_col, f_sizes)

        # then RVs: sorted (factor colour, position) pairs, position 0 for
        # slots inside a commutative block
        rv_frontier = (
            range(len(rv_col)) if iteration == 0
            else {a for fi in f_changed for a in f_args[fi]}
        )
        parts = {}
        for a in rv_frontier:
            if rv_sizes[rv_col[a]] == 1:
                continue
            sig = sorted([(f_col[fi], pos) for fi, pos in slots[a]])
            parts.setdefault((rv_col[a], *sig), []).append(a)
        rv_changed = _split(parts, rv_col, rv_sizes)

        iteration += 1
        if not f_changed and not rv_changed:
            break
        f_frontier = {fi for a in rv_changed for fi, _ in slots[a]}

    # dicts keep insertion order: parts come in the order of their first members
    factor_groups: dict[int, list[GroupMember]] = {}
    for f, colour in zip(fg.factors, f_col):
        factor_groups.setdefault(colour, []).append(GroupMember(f.name, alignments[f.name]))
    rv_classes: dict[int, list[str]] = {}
    for rv, colour in zip(fg.rvs, rv_col):
        rv_classes.setdefault(colour, []).append(rv.name)
    return ColourPassResult(
        Grouping(tuple(map(tuple, factor_groups.values()))),
        tuple(map(tuple, rv_classes.values())),
        ColourState(iteration),
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


def _spans(ends: np.ndarray) -> list[range]:
    """Consecutive index ranges that end at `ends`, the first starting at 0."""
    stops = ends.tolist()
    return [range(start, stop) for start, stop in zip([0, *stops], stops)]


def _offsets(ends: Sequence[int]) -> np.ndarray:
    out = np.array(ends, dtype=np.intp)
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class ParfactorGraph:
    """A parfactor graph as columns, one entry per RV, per ground factor or per group.

    - rvs: every RV, class by class (the model's RandomVariable objects);
      class_ends[c] is where class c ends in rvs. The RVs of a class
      share one range.
    - members, member_args: per ground factor, group by group, its name
      and its arguments in its group's frame; group_ends[g] is where
      group g ends in them. A group's first member is its
      representative, and its frame is the representative's.
    - tables, crvs: per group, its table over the representative's frame
      arguments (compacted along crvs[g].positions when counted) and its
      CrvSpec, None when no position is counted.

    The ends are stored as read-only integer arrays, whatever integer
    sequence the caller passes. construct_pfg shares argument tuples,
    names and tables with the model it reads wherever a member's frame
    is its own, so a graph adds a few pointers per ground factor.
    """

    rvs: tuple[RandomVariable, ...]
    class_ends: np.ndarray
    members: tuple[str, ...]
    member_args: tuple[tuple[str, ...], ...]
    group_ends: np.ndarray
    tables: tuple[np.ndarray, ...]
    crvs: tuple[CrvSpec | None, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "class_ends", _offsets(self.class_ends))
        object.__setattr__(self, "group_ends", _offsets(self.group_ends))
        if len(self.members) != len(self.member_args):
            raise InvariantError("members and member_args out of sync")
        if not len(self.group_ends) == len(self.tables) == len(self.crvs):
            raise InvariantError("group_ends, tables and crvs out of sync")
        for name, ends, total in (
            ("class_ends", self.class_ends, len(self.rvs)),
            ("group_ends", self.group_ends, len(self.members)),
        ):
            if (ends[-1] if len(ends) else 0) != total:
                raise InvariantError(f"{name} must end at {total}")

    def groups(self) -> list[range]:
        """Each group's indices into members and member_args, in group order."""
        return _spans(self.group_ends)

    def classes(self) -> list[tuple[RandomVariable, ...]]:
        """Each class's RVs, in class order."""
        return [self.rvs[r.start : r.stop] for r in _spans(self.class_ends)]


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


def _class_index(fg: FactorGraph, rv_classes: Sequence[Sequence[str]]) -> dict[str, int]:
    """Each RV's class number; the classes must partition fg's RVs, one range per class."""
    names = [name for members in rv_classes for name in members]
    if sorted(names) != sorted(rv.name for rv in fg.rvs):
        raise InvariantError("rv classes must partition the model's RVs")
    for members in rv_classes:
        if len({fg.rv(name).range for name in members}) > 1:
            raise InvariantError(f"rv class of {members[0]!r} mixes ranges")
    return {name: ci for ci, members in enumerate(rv_classes) for name in members}


def exact_crv_positions(
    fg: FactorGraph,
    grouping: Grouping,
    rv_classes: Sequence[Sequence[str]],
    eps: float,
) -> dict[int, tuple[int, ...]]:
    """Counting candidates that compact losslessly, per group index.

    A block qualifies when it is commutative at eps on the group
    representative's table in fg (equivalence.commutative_blocks), that
    table is EXACTLY invariant under the block's permutations (each
    histogram cell holds one value, so grounding round-trips
    bit-exactly), and all counted argument slots hold RVs of one class.
    One block per group, the largest, earliest on ties.

    A block has two positions or more, all of one class, so a
    representative whose arguments hold no two RVs of one class is
    skipped without a detection. Every other one is detected here, even
    when colour_pass detected the same frame table: one detection more
    per such group, in exchange for no state passed between the stages.
    """
    eps = check_epsilon(eps)
    class_of = _class_index(fg, rv_classes)
    out: dict[int, tuple[int, ...]] = {}
    for gi, group in enumerate(grouping.groups):
        rep = group[0]
        f = fg.factor(rep.factor)
        if len({class_of[a] for a in f.args}) == f.arity:
            continue
        args = aligned_args(f.args, rep.align)
        table = aligned_table(f.table, rep.align)
        blocks = commutative_blocks(table, eps, tuple(fg.rv(a).range for a in args))
        candidates = [
            block for block in blocks
            if len(block) >= 2
            and len({class_of[args[p]] for p in block}) == 1
            and _counted_table(table, block) is not None
        ]
        if candidates:
            out[gi] = max(candidates, key=len)  # the first of the largest
    return out


def _differing_member(
    group: Sequence[GroupMember], factors: Sequence[Factor], table: np.ndarray
) -> str | None:
    """The first member in group order whose aligned table is not `table`, if any.

    The representative, group[0], is not checked. The other members are
    checked one alignment at a time: their tables in one stack, compared
    with `table` pushed back into that alignment's member frame, which is
    the same bitwise comparison as aligning each member's table.
    """
    by_view: dict[tuple[Alignment, tuple[int, ...]], list[int]] = {}
    for i in range(1, len(group)):
        by_view.setdefault((group[i].align, factors[i].table.shape), []).append(i)
    bad: list[int] = []
    for (align, shape), idx in by_view.items():
        expected = unaligned_table(table, align)
        if shape != expected.shape:
            bad.append(idx[0])
            continue
        same = (np.stack([factors[i].table for i in idx]) == expected).reshape(len(idx), -1)
        hits = same.all(axis=1)
        if not hits.all():
            bad.append(idx[int(np.argmin(hits))])
    return group[min(bad)].factor if bad else None


def construct_pfg(
    fg_updated: FactorGraph,
    factor_groups: Grouping,
    rv_classes: Sequence[Sequence[str]],
    crv_specs: Mapping[int, Sequence[int]],
) -> ParfactorGraph:
    """One parfactor per group; tables must already be identical within a group.

    crv_specs maps a group index to argument positions to count (ints,
    not bools), and a group it does not list is not counted; the group's table must be
    exactly invariant under them (see exact_crv_positions), otherwise
    InvariantError, as for a key that names no group.
    """
    _class_index(fg_updated, rv_classes)
    unknown = set(crv_specs).difference(range(len(factor_groups.groups)))
    if unknown:
        raise InvariantError(f"crv_specs names no group: {', '.join(sorted(map(repr, unknown)))}")
    rvs = tuple(fg_updated.rv(name) for names in rv_classes for name in names)

    members: list[str] = []
    member_args: list[tuple[str, ...]] = []
    group_ends: list[int] = []
    tables: list[np.ndarray] = []
    crvs: list[CrvSpec | None] = []
    for gi, group in enumerate(factor_groups.groups):
        factors = [fg_updated.factor(m.factor) for m in group]
        rep = group[0]
        table = aligned_table(factors[0].table, rep.align)
        bad = _differing_member(group, factors, table)
        if bad is not None:
            raise InvariantError(
                f"group {gi}: member {bad!r} table differs from "
                f"representative {rep.factor!r} after alignment"
            )
        members += [f.name for f in factors]
        member_args += [aligned_args(f.args, m.align) for f, m in zip(factors, group)]
        group_ends.append(len(members))
        positions = tuple(crv_specs.get(gi, ()))
        crv = None
        if positions:
            if (
                len(positions) < 2 or len(set(positions)) != len(positions)
                or not all(type(p) is int and 0 <= p < table.ndim for p in positions)
            ):
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
        tables.append(table)
        crvs.append(crv)
    return ParfactorGraph(
        rvs, list(accumulate(map(len, rv_classes))), tuple(members), tuple(member_args),
        group_ends, tuple(tables), tuple(crvs),
    )


def expand_crv(table: np.ndarray, crv: CrvSpec | None) -> np.ndarray:
    """Full per-assignment table of a group, undoing counting compaction."""
    if crv is None:
        return table
    positions = crv.positions
    n = len(positions)
    size = len(crv.histograms[0])
    _, cell_of = _histogram_index(size, n)
    keep = table.ndim - 1
    full_moved = table[..., cell_of].reshape(table.shape[:-1] + (size,) * n)
    return np.moveaxis(full_moved, list(range(keep, keep + n)), positions)


def ground(pfg: ParfactorGraph) -> FactorGraph:
    """Expand every group back into its member factors.

    Each member is rebuilt over its group-frame arguments with the
    group's table, and the RVs come class by class. The result has the
    potential of the model the graph was built from, not always its
    declaration: a member whose frame permutes its own arguments keeps
    the frame's order.
    """
    factors = []
    for members, table, crv in zip(pfg.groups(), pfg.tables, pfg.crvs):
        table = expand_crv(table, crv)
        for i in members:
            factors.append(Factor(pfg.members[i], pfg.member_args[i], table))
    return FactorGraph(pfg.rvs, tuple(factors))


def pfg_equal(a: ParfactorGraph, b: ParfactorGraph) -> bool:
    """Structural equality with bit-exact tables."""
    return (
        a.rvs == b.rvs
        and np.array_equal(a.class_ends, b.class_ends)
        and a.members == b.members
        and a.member_args == b.member_args
        and np.array_equal(a.group_ends, b.group_ends)
        and a.crvs == b.crvs
        and all(np.array_equal(ta, tb) for ta, tb in zip(a.tables, b.tables))
    )
