"""End-to-end compression pipelines.

run_eacp chains the three phases: greedy eps-grouping of factors, colour
passing seeded with the group indices (evidence enters only here, as
initial RV colours), then the entrywise mean update applied per
POST-refinement group, so factors that the graph structure split apart
are averaged only within their final group. The updated ground model
keeps the input's structure, argument order included; only tables
change, and every updated entry is asserted eps-equivalent to its
original.

run_acp is the exact-equality baseline: colours seeded by bit-identical
tables (up to argument permutation), no table updates. At eps = 0 both
pipelines produce identical groupings, parfactor graphs, and tables,
which is what the regression tests pin.
"""

from __future__ import annotations

import numpy as np
from dataclasses import dataclass

from .acp import (
    ColourPassResult,
    ParfactorGraph,
    colour_pass,
    construct_pfg,
    exact_crv_positions,
    initial_factor_colours_exact,
)
from .equivalence import aligned_table, check_epsilon, eps_equiv_arrays, unaligned_table
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
    fg: FactorGraph, cp: ColourPassResult, eps: float
) -> tuple[FactorGraph, dict[int, float]]:
    new_tables: dict[str, np.ndarray] = {}
    deviations: dict[int, float] = {}
    for gi, group in enumerate(cp.grouping.groups):
        aligned = [
            aligned_table(fg.factor(m.factor).table, m.align) for m in group
        ]
        mean = mean_of_tables(aligned)
        worst = 0.0
        for member in group:
            original = fg.factor(member.factor).table
            updated = unaligned_table(mean, member.align)
            if not eps_equiv_arrays(original, updated, eps):
                raise InvariantError(
                    f"updated table of {member.factor!r} left the eps band; "
                    f"grouping admitted a non-equivalent member"
                )
            worst = max(worst, float(np.max(np.abs(original - updated) / original)))
            if updated is not original:  # unchanged factors keep their Factor object
                new_tables[member.factor] = updated
        deviations[gi] = worst
    return replace_tables(fg, new_tables), deviations


def run_eacp(
    fg: FactorGraph, eps: float, evidence: Evidence = Evidence()
) -> CompressionResult:
    """Compress fg with tolerance eps; evidence refines initial RV colours only."""
    eps = check_epsilon(eps)
    evidence.validate_against(fg)
    phase1 = phase1_group(fg.factors, eps)
    initial = phase1.group_index()
    cp = colour_pass(
        fg, initial, evidence, alignments=phase1.alignments(), eps=eps
    )
    m_prime, deviations = _phase3_update(fg, cp, eps)
    crv = exact_crv_positions(m_prime, cp.grouping, cp.rv_classes, eps)
    pfg = construct_pfg(m_prime, cp.grouping, cp.rv_classes, crv)
    return CompressionResult(pfg, m_prime, cp.grouping, deviations)


def run_acp(fg: FactorGraph, evidence: Evidence = Evidence()) -> CompressionResult:
    """Exact-equality colour passing; tables are never modified."""
    evidence.validate_against(fg)
    colours, alignments = initial_factor_colours_exact(fg.factors)
    cp = colour_pass(fg, colours, evidence, alignments=alignments, eps=0.0)
    crv = exact_crv_positions(fg, cp.grouping, cp.rv_classes, 0.0)
    pfg = construct_pfg(fg, cp.grouping, cp.rv_classes, crv)
    deviations = {gi: 0.0 for gi in range(len(cp.grouping.groups))}
    return CompressionResult(pfg, fg, cp.grouping, deviations)
