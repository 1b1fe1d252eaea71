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
equal frame shape are stacked, so one numpy call tests a factor, under
all its range-compatible permutations at once, against all of them
(equivalence.BandStack, equivalence.band_matches). The test is exact.
With c1 = (1+eps)(1+slack) and c2 = (1-eps)(1-slack), a factor table a
passes max(a,m) <= min(a,m)*c1 and min(a,m) >= max(a,m)*c2 for every
member m exactly when

    a <= Mn*c1,   Mx <= a*c1,   Mn >= a*c2,   a >= Mx*c2,

because rounded multiplication by a positive constant is monotone: the
extreme member decides each of the four one-sided comparisons. A
BandStack is built for one eps and keeps each group's row pre-scaled,
so a table's views are tested against every row in one <=; its
docstring gives the argument that the stored rows and the verdicts
stay exact.

Every join that the band test decides is recorded under its table's
shape and bytes. A later factor with the same table reuses the last
recorded join: the same group under the same alignment, without _closest
or a widen. It does so while no candidate group of that join has gained
a member since, other than by such reuse, and no group opened since
accepts the table. Only those
newer groups are band-tested (groups are numbered in opening order, so
they are the last rows of each BandStack), and once none accepts the
table they count as tested for the next copy. The result is the one
the full test would give:

- envelopes only widen, so a group that failed the band test under every
  alignment still fails it and is still no candidate, and a newer group
  that does not accept the table is no candidate either;
- a candidate group with no new member gives the same first alignment
  and the same member-by-member deviation, which is what _closest
  minimizes (its one-call estimates only skip that sum where it cannot
  change the answer);
- a copy joining its own group lies inside that group's envelope
  already and adds exact zeros to its deviation, so the join stays valid
  for the next copy.

Member counts only grow, so their sum over the candidates, compared
with its value after the join, tells whether any candidate has grown. A
table seen only once costs one tobytes and one dict lookup, and, when it
joins a group, one _Decision and that sum; the second copy of a table
that joined is the first to reuse. No table above ARITY_CAP ever has a
join to reuse: _permutations, which enforces the cap, raises under
band_matches as soon as a group of its arity exists, so such a table can
only open a group.

mean_of_tables is the update step: the entrywise arithmetic mean of the
aligned tables, stacked along the first axis of one array. Its caller,
eacp._phase3_update, keeps a stack of bit-identical tables as it is
without calling it (float addition of k copies then division by k is
not always exact, and identity groups must stay bit-exact).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

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
    put_row,
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

    def seeds(self) -> tuple[dict[str, int], dict[str, Alignment]]:
        """Each member's group index and alignment: the seeding colour_pass takes."""
        colours: dict[str, int] = {}
        alignments: dict[str, Alignment] = {}
        for gi, group in enumerate(self.groups):
            for m in group:
                colours[m.factor], alignments[m.factor] = gi, m.align
        return colours, alignments


_UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2


class _Group:
    """A phase-1 group being built: members and their tables in the group frame."""

    def __init__(self, member: GroupMember, table: np.ndarray, row: int) -> None:
        self.members = [member]
        self.tables = [table]                     # as aligned, views kept
        self.row = row                            # envelope row in its BandStack
        self._stacked = put_row(np.empty((4,) + table.shape), 0, table)

    def add(self, member: GroupMember, table: np.ndarray) -> None:
        self._stacked = put_row(self._stacked, len(self.tables), table)
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
        diff *= diff
        return float(diff.sum()), diff.size


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


@dataclass(slots=True)
class _Decision:
    """A table's last band-tested join, and what it depended on."""

    group: int
    align: Alignment
    opened: int              # groups tested: those open when it was made or last reused
    candidates: tuple[int, ...]
    joins: int               # members of the candidate groups after it and its reuses

    def holds(self, groups: list[_Group], stacks: Iterable[BandStack], table: np.ndarray) -> bool:
        """Whether the full test would give this join to `table`, a copy of the decided one.

        Groups opened since are band-tested, and once none of them
        accepts the table they count as tested.
        """
        if self.joins != _members(groups, self.candidates):
            return False
        if self.opened < len(groups):
            since = [s.rows_from(self.opened) for s in stacks if s.keys[-1] >= self.opened]
            if band_matches(table, since):
                return False
            self.opened = len(groups)
        return True


def _members(groups: list[_Group], candidates: tuple[int, ...]) -> int:
    return sum(len(groups[c].members) for c in candidates)


def phase1_group(factors: Sequence[Factor], eps: float) -> Grouping:
    """Partition factors into greedy groups of pairwise eps-equivalent members."""
    eps = check_epsilon(eps)
    groups: list[_Group] = []
    stacks: dict[tuple[int, ...], BandStack] = {}   # group envelopes per frame shape
    decisions: dict[tuple[tuple[int, ...], bytes], _Decision] = {}
    with np.errstate(over="ignore"):   # a band product past float64's top is inf: no warning
        for f in factors:
            key = (f.table.shape, f.table.tobytes())
            last = decisions.get(key)
            if last is not None and last.holds(groups, stacks.values(), f.table):
                groups[last.group].add(
                    GroupMember(f.name, last.align), aligned_table(f.table, last.align)
                )
                last.joins += 1
                continue
            found = band_matches(f.table, stacks.values())
            if not found:
                if f.table.shape not in stacks:
                    stacks[f.table.shape] = BandStack(f.table.shape, eps)
                row = stacks[f.table.shape].append(len(groups), f.table)
                member = GroupMember(f.name, identity_alignment(f.arity))
                groups.append(_Group(member, f.table, row))
                continue
            gi = next(iter(found)) if len(found) == 1 else _closest(groups, found, f.table)
            table = aligned_table(f.table, found[gi])
            groups[gi].add(GroupMember(f.name, found[gi]), table)
            stacks[table.shape].widen(groups[gi].row, table)
            candidates = tuple(found)
            decisions[key] = _Decision(
                gi, found[gi], len(groups), candidates, _members(groups, candidates)
            )
    return Grouping(tuple(tuple(g.members) for g in groups))


def mean_of_tables(stack: np.ndarray) -> np.ndarray:
    """Entrywise arithmetic mean over the first axis."""
    if len(stack) == 0:
        raise InvariantError("mean of an empty group")
    return stack.mean(axis=0)
