"""End-to-end compression: one pipeline tail with two seedings.

run_eacp seeds colour passing with the greedy eps-groups of phase 1;
run_acp, the exact-equality baseline, seeds it with bit-identical
tables up to argument permutation. Both then run the same tail: colour
passing (evidence enters only here, as initial RV colours), the
entrywise mean update per POST-refinement group, so factors that the
graph structure split apart are averaged only within their final group,
counting detection and the parfactor graph. The updated ground model
keeps the input's structure, argument order included; only tables
change, and every updated entry is checked eps-equivalent to its
original.

ACP keeps its own seeding loop, initial_factor_colours_exact, although
phase1_group(factors, 0.0) finds the same groups: at eps = 0 the band
test is byte equality, so a factor is looked up in a hash of the
representatives' (shape, table bytes), one lookup per permutation
however many representatives there are. A hash is exact only at
eps = 0; phase 1 must test each group's envelope.

A group whose aligned tables are bit-identical keeps them, and m_prime
is fg itself when no entry changes. That always holds at eps = 0, where
phase 1 groups only bit-identical tables, and for run_acp. At eps = 0
both pipelines produce identical groupings, parfactor graphs and
models, which is what the regression tests pin.
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
from .equivalence import Alignment, aligned_table, check_epsilon, eps_band_mask, unaligned_table
from .equivalence import eps_equiv_arrays  # noqa: F401  perfbench/run.py counts its calls
from .errors import InvariantError
from .grouping import Grouping, mean_of_tables, phase1_group
from .model import Evidence, FactorGraph, replace_tables

__all__ = ["CompressionResult", "run_eacp", "run_acp"]


@dataclass(frozen=True, eq=False)
class CompressionResult:
    """Compressed representation plus the updated ground model.

    per_group_max_rel_dev maps each final group index to the largest
    relative deviation |phi - phi*| / phi over its members' entries; by
    the mean-update bound this never exceeds the eps of the run.
    """

    pfg: ParfactorGraph
    m_prime: FactorGraph
    grouping: Grouping
    per_group_max_rel_dev: dict[int, float]

    @property
    def rv_classes(self) -> tuple[tuple[str, ...], ...]:
        return tuple(c.members for c in self.pfg.rv_classes)

    def n_groups(self) -> int:
        return len(self.grouping.groups)


def _phase3_update(
    fg: FactorGraph, grouping: Grouping, eps: float
) -> tuple[FactorGraph, dict[int, float]]:
    """Mean update per final group in stacked calls; fg itself when no table changes."""
    new_tables: dict[str, np.ndarray] = {}
    deviations: dict[int, float] = {}
    for gi, group in enumerate(grouping.groups):
        deviations[gi] = 0.0
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
        deviations[gi] = float(member_dev.max())
        for member, dev in zip(group, member_dev):
            if dev > 0.0:
                new_tables[member.factor] = unaligned_table(mean, member.align)
    return (replace_tables(fg, new_tables) if new_tables else fg), deviations


def _compress(
    fg: FactorGraph, eps: float, evidence: Evidence,
    colours: dict[str, int], alignments: dict[str, Alignment],
) -> CompressionResult:
    cp = colour_pass(fg, colours, evidence, alignments=alignments, eps=eps)
    m_prime, deviations = _phase3_update(fg, cp.grouping, eps)
    crv = exact_crv_positions(
        m_prime, cp.grouping, cp.rv_classes, eps, known_blocks=cp.blocks
    )
    pfg = construct_pfg(m_prime, cp.grouping, cp.rv_classes, crv)
    return CompressionResult(pfg, m_prime, cp.grouping, deviations)


def run_eacp(
    fg: FactorGraph, eps: float, evidence: Evidence = Evidence()
) -> CompressionResult:
    """Compress fg with tolerance eps; evidence refines initial RV colours only."""
    eps = check_epsilon(eps)
    evidence.validate_against(fg)
    phase1 = phase1_group(fg.factors, eps)
    return _compress(fg, eps, evidence, phase1.group_index(), phase1.alignments())


def run_acp(fg: FactorGraph) -> CompressionResult:
    """Exact-equality colour passing without evidence; returns fg itself as m_prime."""
    return _compress(fg, 0.0, Evidence(), *initial_factor_colours_exact(fg.factors))
