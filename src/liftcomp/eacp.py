"""End-to-end compression: one pipeline tail with two seedings.

run_eacp seeds colour passing with the greedy eps-groups of phase 1
(grouping.phase1_group) when eps > 0. At eps = 0, the exact-equality
ACP baseline, it seeds with initial_factor_colours_exact: bit-identical
tables up to argument permutation. Both seedings hand _compress one
pair, each factor's initial colour and its alignment into its group's
frame (Grouping.seeds for phase 1), and then run the same tail: colour
passing (evidence enters only here, as initial RV colours), the
entrywise mean update per POST-refinement group, so factors that the
graph structure split apart are averaged only within their final group,
counting detection and the parfactor graph. The updated ground model
keeps the input's structure, argument order included; only tables
change, and every updated entry is checked eps-equivalent to its
original.

phase1_group(factors, 0.0).seeds() would give the exact seeding's pair,
since its band test is then byte equality, but it tests each group's
envelope, which is quadratic in the number of groups; the exact seeding
looks a factor up in a hash of the representatives' (shape, table
bytes), one lookup per permutation however many representatives there
are. A hash is exact only at eps = 0, so above it phase 1 seeds.

A group whose aligned tables are bit-identical keeps them (the float
mean of k copies is not always the copy): _phase3_update skips it, and
grouping.mean_of_tables has no passthrough of its own. m_prime is fg
itself when no entry changes. That always holds at eps = 0, where the
exact seeding groups only bit-identical tables.

run_acp(fg) makes exactly the call run_eacp(fg, 0.0) makes. It is in no
__all__ and stays only for perfbench, which times it by that name.

A CompressionResult stores each fact once: the parfactor graph (final
groups in order, members, their frame arguments, RV classes), m_prime
and one deviation per group. The grouping and the deviation dict are
derived from these on access. m_prime shares its input's factor index,
its unmodified factors, and one mean table per (group, alignment) among
the modified members.
"""

from __future__ import annotations

import numpy as np
from dataclasses import dataclass

from .acp import (
    ParfactorGraph,
    colour_pass,
    construct_pfg,
    exact_crv_positions,
    initial_factor_colours_exact,
)
from .equivalence import (
    Alignment,
    aligned_table,
    check_epsilon,
    eps_band_mask,
    identity_alignment,
    unaligned_table,
)
from .equivalence import eps_equiv_arrays  # noqa: F401  perfbench/run.py counts its calls
from .errors import InvariantError
from .grouping import GroupMember, Grouping, mean_of_tables, phase1_group
from .model import Evidence, FactorGraph, check_evidence, replace_tables

__all__ = ["CompressionResult", "run_eacp"]


@dataclass(frozen=True, eq=False)
class CompressionResult:
    """Compressed representation plus the updated ground model.

    Each fact is stored once. pfg holds the final groups, one parfactor
    each in group order, with every member's arguments in the group
    frame; m_prime holds the updated tables, where the modified members
    of one group under one alignment share one read-only array.
    deviations holds, per final group index, the largest relative
    deviation |phi - phi*| / phi over its members' entries; by the
    mean-update bound it never exceeds the eps of the run.

    grouping, rv_classes and per_group_max_rel_dev are derived from these
    on every access and never cached; a caller that reads one often keeps
    its own copy.
    """

    pfg: ParfactorGraph
    m_prime: FactorGraph
    deviations: tuple[float, ...]

    @property
    def grouping(self) -> Grouping:
        """The final grouping, alignments recovered from each member's frame arguments.

        A member's frame arguments are its own arguments permuted by its
        alignment, and a factor's arguments are distinct, so the frame
        position of each argument gives the alignment back.
        """
        factor = self.m_prime.factor
        pfg = self.pfg
        groups = []
        for members in pfg.groups():
            group = []
            for i in members:
                name, frame_args = pfg.members[i], pfg.member_args[i]
                args = factor(name).args
                if frame_args == args:
                    align = identity_alignment(len(args))
                else:
                    align = tuple(map(frame_args.index, args))
                group.append(GroupMember(name, align))
            groups.append(tuple(group))
        return Grouping(tuple(groups))

    @property
    def per_group_max_rel_dev(self) -> dict[int, float]:
        return dict(enumerate(self.deviations))

    @property
    def rv_classes(self) -> tuple[tuple[str, ...], ...]:
        return tuple(tuple(rv.name for rv in rvs) for rvs in self.pfg.classes())

    def n_groups(self) -> int:
        return len(self.pfg.tables)


def _phase3_update(
    fg: FactorGraph, grouping: Grouping, eps: float
) -> tuple[FactorGraph, tuple[float, ...]]:
    """Mean update per final group in stacked calls; fg itself when no table changes.

    The modified members of a group under one alignment get one shared
    table: the mean in their frame, C-contiguous and read-only, which
    Factor keeps without a copy.
    """
    new_tables: dict[str, np.ndarray] = {}
    deviations: list[float] = []
    for group in grouping.groups:
        deviations.append(0.0)
        if len(group) == 1:
            continue
        stack = np.stack([aligned_table(fg.factor(m.factor).table, m.align) for m in group])
        if (stack == stack[0]).all():  # the mean is the table, inside its own band
            continue
        mean = mean_of_tables(stack)
        inside = eps_band_mask(stack, stack, mean, eps)
        if not inside.all():
            raise InvariantError(
                f"updated table of {group[int(np.argmin(inside))].factor!r} left the "
                f"eps band; grouping admitted a non-equivalent member"
            )
        member_dev = (np.abs(stack - mean) / stack).reshape(len(group), -1).max(axis=1)
        deviations[-1] = float(member_dev.max())
        shared: dict[Alignment, np.ndarray] = {}
        for member, dev in zip(group, member_dev):
            if dev > 0.0:
                table = shared.get(member.align)
                if table is None:
                    table = shared[member.align] = unaligned_table(mean, member.align).copy()
                    table.flags.writeable = False
                new_tables[member.factor] = table
    return (replace_tables(fg, new_tables) if new_tables else fg), tuple(deviations)


def _compress(
    fg: FactorGraph, eps: float, evidence: Evidence,
    colours: dict[str, int], alignments: dict[str, Alignment],
) -> CompressionResult:
    cp = colour_pass(fg, colours, evidence, alignments=alignments, eps=eps)
    m_prime, deviations = _phase3_update(fg, cp.grouping, eps)
    crv = exact_crv_positions(m_prime, cp.grouping, cp.rv_classes, eps)
    pfg = construct_pfg(m_prime, cp.grouping, cp.rv_classes, crv)
    return CompressionResult(pfg, m_prime, deviations)


def run_eacp(
    fg: FactorGraph, eps: float, evidence: Evidence = Evidence()
) -> CompressionResult:
    """Compress fg with tolerance eps; evidence refines initial RV colours only."""
    eps = check_epsilon(eps)
    check_evidence(evidence).validate_against(fg)
    if eps == 0.0:
        return _compress(fg, eps, evidence, *initial_factor_colours_exact(fg.factors))
    return _compress(fg, eps, evidence, *phase1_group(fg.factors, eps).seeds())


def run_acp(fg: FactorGraph) -> CompressionResult:
    """Exact-equality colour passing without evidence; returns fg itself as m_prime."""
    return _compress(fg, 0.0, Evidence(), *initial_factor_colours_exact(fg.factors))
