"""Greedy grouping of pairwise eps-equivalent factors and mean updates.

phase1_group walks the factors in input order. The first factor opens a
group; each later factor collects every existing group it is
eps-equivalent to under a single alignment that must hold against EVERY
member (checked on tables composed into the group frame, i.e. the frame
of the group's first member; per group, the first such alignment in
lexicographic order). Among the candidates it joins the one minimizing
the summed squared deviation, ties broken by lowest group index; with
one candidate it joins that one, and with none it opens a new group.
The result is order dependent by design; callers must feed factors in
model order.

Groups are not compared member by member. Each group keeps the
entrywise minimum Mn and maximum Mx of its member tables, and groups of
equal frame shape are stacked, so one numpy call per permutation tests
a factor against all of them (equivalence.BandStack). The test is
exact. With c1 = (1+eps)(1+slack) and c2 = (1-eps)(1-slack), a factor
table a passes max(a,m) <= min(a,m)*c1 and min(a,m) >= max(a,m)*c2 for
every member m exactly when

    a <= Mn*c1,   Mx <= a*c1,   Mn >= a*c2,   a >= Mx*c2,

because rounded multiplication by a positive constant is monotone: the
extreme member decides each of the four one-sided comparisons.

mean_of_tables is the update step: the entrywise arithmetic mean of the
aligned tables. A group of bit-identical tables is returned unchanged
(float addition of k copies then division by k is not always exact, and
identity groups must stay bit-exact).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvariantError
from .equivalence import (
    Alignment,
    BandStack,
    aligned_table,
    band_matches,
    check_epsilon,
    eps_equiv_arrays,  # noqa: F401  perfbench/run.py counts calls through this name
    identity_alignment,
)
from .model import Factor

__all__ = ["GroupMember", "Grouping", "phase1_group", "mean_of_tables"]


@dataclass(frozen=True, slots=True)
class GroupMember:
    """Factor name plus the alignment viewing its table in the group frame."""

    factor: str
    align: Alignment


@dataclass(frozen=True)
class Grouping:
    """Ordered partition of factors into groups of pairwise eps-equivalent members."""

    groups: tuple[tuple[GroupMember, ...], ...]

    def group_index(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for gi, group in enumerate(self.groups):
            for member in group:
                out[member.factor] = gi
        return out

    def alignments(self) -> dict[str, Alignment]:
        return {m.factor: m.align for g in self.groups for m in g}

    def sizes(self) -> tuple[int, ...]:
        return tuple(len(g) for g in self.groups)


_UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2


class _Group:
    """A phase-1 group being built: members and their tables in the group frame."""

    def __init__(self, member: GroupMember, table: np.ndarray, row: int) -> None:
        self.members = [member]
        self.tables = [table]                     # as aligned, views kept
        self.row = row                            # envelope row in its BandStack
        self._stacked = np.empty((4,) + table.shape)
        self._stacked[0] = table

    def add(self, member: GroupMember, table: np.ndarray) -> None:
        n = len(self.tables)
        if n == len(self._stacked):
            self._stacked = np.concatenate([self._stacked, np.empty_like(self._stacked)])
        self._stacked[n] = table
        self.members.append(member)
        self.tables.append(table)

    def deviation(self, aligned: np.ndarray) -> float:
        """Summed squared deviation, member by member in each view's own memory order."""
        total = 0.0
        for mt in self.tables:
            diff = mt - aligned
            total += float(np.sum(diff * diff))
        return total

    def deviation_estimate(self, aligned: np.ndarray) -> tuple[float, int]:
        """The same sum in one call, in another order; also the number of terms."""
        diff = self._stacked[: len(self.tables)] - aligned
        return float(np.sum(diff * diff)), diff.size


def _closest(groups: list[_Group], found: dict[int, Alignment], table: np.ndarray) -> int:
    """Candidate group of least summed squared deviation, lowest index on ties.

    The one-call estimates decide whenever one of them is below all others
    by more than their rounding error: a float sum of N non-negative terms
    is within a relative N*u of the exact sum in any order, so a margin of
    8*N*u cannot flip the comparison. Estimates closer than that, exact
    ties included, are settled by the member-by-member sum.
    """
    candidates = sorted(found)
    aligned = {c: aligned_table(table, found[c]) for c in candidates}
    estimates = {c: groups[c].deviation_estimate(aligned[c]) for c in candidates}
    terms = max(n for _, n in estimates.values())
    cutoff = min(e for e, _ in estimates.values()) * (1.0 + 8 * terms * _UNIT_ROUNDOFF)
    close = [c for c in candidates if estimates[c][0] <= cutoff]
    if len(close) == 1:
        return close[0]
    return min(close, key=lambda c: groups[c].deviation(aligned[c]))


def phase1_group(factors: Sequence[Factor], eps: float) -> Grouping:
    """Partition factors into greedy groups of pairwise eps-equivalent members."""
    eps = check_epsilon(eps)
    groups: list[_Group] = []
    stacks: dict[tuple[int, ...], BandStack] = {}   # group envelopes per frame shape
    for f in factors:
        found = band_matches(f.table, stacks.values(), eps)
        if not found:
            stack = stacks.setdefault(f.table.shape, BandStack(f.table.shape))
            row = stack.append(len(groups), f.table)
            groups.append(_Group(GroupMember(f.name, identity_alignment(f.arity)), f.table, row))
            continue
        gi = next(iter(found)) if len(found) == 1 else _closest(groups, found, f.table)
        table = aligned_table(f.table, found[gi])
        groups[gi].add(GroupMember(f.name, found[gi]), table)
        stacks[table.shape].widen(groups[gi].row, table)
    return Grouping(tuple(tuple(g.members) for g in groups))


def mean_of_tables(tables: Sequence[np.ndarray] | np.ndarray) -> np.ndarray:
    """Entrywise arithmetic mean; bit-exact passthrough for identical tables.

    tables is a sequence of equal-shape tables, or one array stacking them
    along its first axis, which is used as it is.
    """
    if len(tables) == 0:
        raise InvariantError("mean of an empty group")
    first = tables[0]
    if not isinstance(tables, np.ndarray):
        for t in tables[1:]:
            if t.shape != first.shape:
                raise InvariantError(
                    f"shape mismatch in group mean: {t.shape} vs {first.shape}"
                )
        tables = np.stack(tables)
    if (tables == first).all():
        return first
    return tables.mean(axis=0)
