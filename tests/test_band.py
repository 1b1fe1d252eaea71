"""Phase-1 grouping and exact ACP seeding against member-by-member reference loops."""

from __future__ import annotations

from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liftcomp import (
    ARITY_CAP,
    ArityCapError,
    Factor,
    GenConfig,
    Grouping,
    GroupMember,
    generate_fg,
    perturb,
    phase1_group,
)
from liftcomp import acp, grouping
from liftcomp.acp import initial_factor_colours_exact
from liftcomp.equivalence import (
    REL_SLACK,
    _permutations,
    aligned_table,
    eps_band_mask,
    eps_equiv_arrays,
    identity_alignment,
)


def _wide(name: str, shape: tuple[int, ...]) -> Factor:
    args = tuple(f"{name}{i}" for i in range(len(shape)))
    return Factor(name, args, np.full(shape, 0.5))


SEARCHES = {
    "phase1_group": lambda factors: phase1_group(factors, 0.1),
    "initial_factor_colours_exact": initial_factor_colours_exact,
}


class TestArityCap:
    @pytest.mark.parametrize("search", sorted(SEARCHES))
    def test_two_wide_factors_raise(self, search):
        n = ARITY_CAP + 1
        with pytest.raises(ArityCapError):
            SEARCHES[search]((_wide("a", (2,) * n), _wide("b", (2,) * n)))
        # equal arity is enough, even when no permutation could fit the shapes
        with pytest.raises(ArityCapError):
            SEARCHES[search]((_wide("a", (2,) * n), _wide("b", (3,) + (2,) * (n - 1))))

    @pytest.mark.parametrize("search", sorted(SEARCHES))
    def test_wide_copy_after_another_factor_raises(self, search):
        # the copy of a repeats a's table bytes; it must still meet a's group
        n = ARITY_CAP + 1
        with pytest.raises(ArityCapError):
            SEARCHES[search]((_wide("a", (2,) * n), _wide("b", (2, 2)), _wide("c", (2,) * n)))

    @pytest.mark.parametrize("search", sorted(SEARCHES))
    def test_lone_wide_factor_passes(self, search):
        n = ARITY_CAP + 1
        SEARCHES[search]((_wide("a", (2,) * n),))
        SEARCHES[search]((_wide("a", (2,) * n), _wide("b", (2, 2)), _wide("c", (2, 2))))


class TestExactSeeding:
    def test_equal_bytes_other_shape_is_not_a_match(self):
        # same row-major bytes, but (3, 2) is no transpose of (2, 3)
        a = Factor("a", ("a0", "a1"), np.arange(1.0, 7.0).reshape(2, 3))
        b = Factor("b", ("b0", "b1"), np.arange(1.0, 7.0).reshape(3, 2))
        assert a.table.tobytes() == b.table.tobytes()
        colours, alignments = initial_factor_colours_exact((a, b))
        assert colours == {"a": 0, "b": 1}
        assert (colours, alignments) == reference_seeding((a, b))

    def test_transpose_matches_other_shape(self):
        a = Factor("a", ("a0", "a1"), np.arange(1.0, 7.0).reshape(2, 3))
        b = Factor("b", ("b0", "b1"), a.table.T)
        colours, alignments = initial_factor_colours_exact((a, b))
        assert colours == {"a": 0, "b": 0}
        assert alignments["b"] == (1, 0)
        assert (colours, alignments) == reference_seeding((a, b))

    def test_lone_wide_factor_enumerates_no_permutation(self, monkeypatch):
        calls = []

        def counting(arity):
            calls.append(arity)
            return _permutations(arity)

        monkeypatch.setattr(acp, "_permutations", counting)
        n = ARITY_CAP + 1
        factors = (
            _wide("b", (2, 2)), _wide("c", (2, 2)), _wide("d", (2, 2, 2)), _wide("a", (2,) * n)
        )
        colours, _ = initial_factor_colours_exact(factors)
        assert colours == {"b": 0, "c": 0, "d": 1, "a": 2}
        assert calls == [2]  # only c has a representative of its arity to search


# -- reference loops: phase 1 and exact seeding, one member at a time -------


def _reference_group_alignment(candidate, rep_shape, member_tables, eps):
    if candidate.arity != len(rep_shape):
        return None
    if candidate.arity > ARITY_CAP:
        raise ArityCapError(f"arity {candidate.arity} exceeds {ARITY_CAP}")
    shape2 = candidate.table.shape
    for perm in permutations(range(candidate.arity)):
        if any(shape2[j] != rep_shape[perm[j]] for j in range(len(perm))):
            continue
        aligned = aligned_table(candidate.table, perm)
        if all(eps_equiv_arrays(mt[None], aligned[None], eps)[0] for mt in member_tables):
            total = 0.0
            for mt in member_tables:
                diff = mt - aligned
                total += float(np.sum(diff * diff))
            return perm, total
    return None


def reference_phase1(factors, eps):
    groups, frames, aligned = [], [], []
    for f in factors:
        best = None
        for gi, shape in enumerate(frames):
            found = _reference_group_alignment(f, shape, aligned[gi], eps)
            if found is None:
                continue
            perm, total = found
            if best is None or total < best[0]:
                best = (total, gi, perm)
        if best is None:
            groups.append([GroupMember(f.name, identity_alignment(f.arity))])
            frames.append(f.table.shape)
            aligned.append([f.table])
        else:
            _, gi, perm = best
            groups[gi].append(GroupMember(f.name, perm))
            aligned[gi].append(aligned_table(f.table, perm))
    return Grouping(tuple(tuple(g) for g in groups))


def reference_seeding(factors):
    colours, alignments, reps = {}, {}, []
    for f in factors:
        for ci, rep in enumerate(reps):
            found = _reference_group_alignment(f, rep.table.shape, [rep.table], 0.0)
            if found is not None:
                colours[f.name] = ci
                alignments[f.name] = found[0]
                break
        else:
            colours[f.name] = len(reps)
            alignments[f.name] = identity_alignment(f.arity)
            reps.append(f)
    return colours, alignments


def assert_matches_reference(factors, eps):
    grouping = phase1_group(factors, eps)
    assert grouping == reference_phase1(factors, eps)
    seeding = initial_factor_colours_exact(factors)
    assert seeding == reference_seeding(factors)
    if eps == 0.0:
        # at eps = 0 the band test is byte equality: phase 1 gives the exact seeding
        assert grouping.seeds() == seeding


# -- generated factor lists -----------------------------------------------

EPS_VALUES = (0.0, 0.001, 0.1, 0.5)
SHAPES = ((2,), (3,), (2, 2), (2, 3), (3, 2), (3, 3), (2, 2, 2), (2, 3, 2), (3, 2, 2))
DYADIC = (0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0)
ONE_ULP = (1.0, float(np.nextafter(1.0, 2.0)), float(np.nextafter(1.0, 0.0)))


def _edge_multipliers(eps: float) -> tuple[float, ...]:
    slack = REL_SLACK if eps > 0.0 else 0.0
    c1 = (1.0 + eps) * (1.0 + slack)
    c2 = (1.0 - eps) * (1.0 - slack)
    return (
        1.0, c1, c2,
        float(np.nextafter(c1, 2.0)), float(np.nextafter(c2, 0.0)),
        *ONE_ULP[1:],
        1.0 + eps / 2, 1.0 - eps / 2,
    )


@st.composite
def factor_lists(draw):
    eps = draw(st.sampled_from(EPS_VALUES))
    multipliers = _edge_multipliers(eps)
    factors: list[Factor] = []
    earlier = st.integers(0, 8).map(lambda i: factors[i % len(factors)].table)
    for i in range(draw(st.integers(1, 9))):
        kind = draw(st.sampled_from(("fresh", "twin", "between"))) if factors else "fresh"
        if kind == "between":
            # midway between two earlier tables: in band with both, often a tie
            a = draw(earlier)
            b = draw(st.sampled_from([f.table for f in factors if f.table.shape == a.shape]))
            table = (a + b) / 2 * draw(st.sampled_from(ONE_ULP))
            table = np.transpose(table, draw(st.permutations(range(table.ndim))))
        elif kind == "twin":
            # permuted twin of an earlier factor, entries nudged onto or across the edge
            src = draw(earlier)
            perm = draw(st.permutations(range(src.ndim)))
            nudge = draw(
                st.lists(st.sampled_from(multipliers), min_size=src.size, max_size=src.size)
            )
            table = np.transpose(src, perm) * np.reshape(nudge, np.transpose(src, perm).shape)
        else:
            shape = draw(st.sampled_from(SHAPES))
            size = int(np.prod(shape))
            values = st.sampled_from(DYADIC) | st.floats(0.1, 2.0)
            table = np.reshape(draw(st.lists(values, min_size=size, max_size=size)), shape)
        factors.append(Factor(f"f{i}", tuple(f"f{i}_{j}" for j in range(table.ndim)), table))
    return factors, eps


REUSE_EPS = (0.0, 0.05, 0.1, 0.3)


@st.composite
def repeating_lists(draw):
    """Factors drawn, interleaved and with repeats, from a small pool of tables.

    The pool holds tables derived from one base: scalings by multiples of
    eps/4, which lie in band or out of band with each other and at various
    distances, permuted twins, and copies with entries nudged onto or just
    across the band edge. Repeats of one table see groups open and widen
    between them, so a repeat may have to decide differently from its
    earlier copy.
    """
    eps = draw(st.sampled_from(REUSE_EPS))
    multipliers = _edge_multipliers(eps)
    shape = draw(st.sampled_from(((2,), (2, 2), (2, 3), (2, 2, 2))))
    size = int(np.prod(shape))
    values = st.sampled_from(DYADIC) | st.floats(0.1, 2.0)
    base = np.reshape(draw(st.lists(values, min_size=size, max_size=size)), shape)
    pool = [base]
    for _ in range(draw(st.integers(2, 5))):
        # scalings twice as often: they make the groups that repeats must choose between
        kind = draw(st.sampled_from(("scaled", "scaled", "twin", "nudged")))
        if kind == "scaled":
            table = base * (1.0 + draw(st.integers(-4, 4)) * eps / 4)
        elif kind == "twin":
            src = draw(st.sampled_from(pool))
            table = np.transpose(src, draw(st.permutations(range(src.ndim))))
        else:
            src = draw(st.sampled_from(pool))
            nudge = draw(st.lists(st.sampled_from(multipliers), min_size=size, max_size=size))
            table = src * np.reshape(nudge, src.shape)
        pool.append(table)
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=3, max_size=20))
    factors = [
        Factor(f"f{n}", tuple(f"f{n}_{j}" for j in range(pool[i].ndim)), pool[i])
        for n, i in enumerate(picks)
    ]
    return factors, eps


def _changed_decisions(factors, grouping) -> list[tuple]:
    """Tables whose copies do not all join one group under one alignment."""
    placed = {m.factor: (gi, m.align) for gi, g in enumerate(grouping.groups) for m in g}
    decisions: dict[tuple, set] = {}
    for f in factors:
        decisions.setdefault((f.table.shape, f.table.tobytes()), set()).add(placed[f.name])
    return [key for key, seen in decisions.items() if len(seen) > 1]


class TestBandMask:
    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_envelope_matches_member_loop(self, data):
        # tiny eps included: there the c2 comparisons decide edge cases that
        # the c1 comparisons let through
        eps = data.draw(st.sampled_from(EPS_VALUES + (1e-15, 1e-10)))
        edges = _edge_multipliers(eps)
        edges += tuple(1.0 / m for m in edges)
        table = np.array(data.draw(st.lists(st.floats(0.1, 2.0), min_size=3, max_size=3)))
        rows = []
        for _ in range(data.draw(st.integers(1, 4))):
            members = []
            for _ in range(data.draw(st.integers(1, 4))):
                scale = data.draw(st.lists(st.sampled_from(edges), min_size=3, max_size=3))
                ulps = data.draw(st.lists(st.integers(-2, 2), min_size=3, max_size=3))
                member = table * np.array(scale)
                members.append(member * (1.0 + np.array(ulps) * np.finfo(float).eps))
            rows.append(members)
        lo = np.stack([np.min(m, axis=0) for m in rows])
        hi = np.stack([np.max(m, axis=0) for m in rows])
        expected = [
            all(eps_equiv_arrays(m[None], table[None], eps)[0] for m in members)
            for members in rows
        ]
        assert eps_band_mask(lo, hi, table, eps).tolist() == expected


class TestReferenceLoops:
    @settings(max_examples=400, deadline=None)
    @given(case=factor_lists())
    def test_generated_lists(self, case):
        factors, eps = case
        assert_matches_reference(factors, eps)

    def test_seeded_midpoints(self):
        # bases a little more than one band apart, then midpoints of base
        # pairs: most midpoints fall in two groups, often at exactly equal
        # deviation (dyadic entries) or one ulp either side of it
        rng = np.random.default_rng(7)
        for _ in range(150):
            eps = float(rng.choice(EPS_VALUES[1:]))
            shape = SHAPES[int(rng.integers(len(SHAPES)))]
            step = 2.0 ** np.floor(np.log2(eps))
            if rng.random() < 0.5:
                root = rng.choice(DYADIC, size=shape)
            else:
                root = rng.uniform(0.25, 2.0, size=shape)
            spacing = rng.permutation(4)[: int(rng.integers(2, 5))]
            bases = [root * (1.0 + 2 * step * k) for k in spacing]
            tables = list(bases)
            for _ in range(int(rng.integers(1, 7))):
                i, j = rng.integers(len(bases), size=2)
                mid = (bases[i] + bases[j]) / 2 * rng.choice(ONE_ULP)
                tables.append(np.transpose(mid, rng.permutation(mid.ndim)))
            factors = [
                Factor(f"f{n}", tuple(f"f{n}_{d}" for d in range(t.ndim)), t)
                for n, t in enumerate(tables)
            ]
            assert_matches_reference(factors, eps)

    def test_summation_order_decides(self):
        # squared deviations of 1 and 2**-54: whether the small terms are
        # absorbed depends on the order they are added in. Summed member by
        # member in each view's memory order, group a totals 2 + 2**-51 and
        # group b totals 2, so c joins b; summed in one C-order pass both
        # total 2 and the tie would send c to a.
        t = 2.0**-27
        a0 = 3.0 - np.array([[t, t, t], [t, t, 1.0]])
        a1 = (3.0 - np.array([[t, t, t], [t, 1.0, t]])).T.copy()
        b0 = 3.0 + np.array([[t, 1.0], [1.0, t], [t, t]])
        c = np.full((2, 3), 3.0)
        factors = [
            Factor(n, (f"{n}_0", f"{n}_1"), x)
            for n, x in zip(("a0", "a1", "b0", "c"), (a0, a1, b0, c))
        ]
        grouping = phase1_group(factors, 0.5)
        assert [[m.factor for m in g] for g in grouping.groups] == [["a0", "a1"], ["b0", "c"]]
        assert_matches_reference(factors, 0.5)

    @pytest.mark.parametrize("eps", [e for e in EPS_VALUES if e > 0.0])
    @pytest.mark.parametrize("shape", [(2,), (2, 3), (2, 2, 2)])
    def test_equidistant_tie(self, eps, shape):
        # groups at 1 and 1 + 2d, candidate at 1 + d: the two groups are out of
        # band with each other, the candidate is in band and equally far from both
        d = 2.0 ** np.floor(np.log2(eps))
        lo, mid, hi = np.full(shape, 1.0), np.full(shape, 1.0 + d), np.full(shape, 1.0 + 2 * d)
        names = ("a1", "a2", "b1", "b2", "c")
        tables = (lo, lo, hi, hi, np.transpose(mid))
        factors = [
            Factor(n, tuple(f"{n}_{j}" for j in range(t.ndim)), t) for n, t in zip(names, tables)
        ]
        reference = reference_phase1(factors, eps)
        assert [[m.factor for m in g] for g in reference.groups] == [
            ["a1", "a2", "c"], ["b1", "b2"]
        ]
        assert_matches_reference(factors, eps)


def _record_band_rows(monkeypatch):
    """The group keys phase1_group band-tests, one list per band_matches call."""
    rows = []
    band_matches = grouping.band_matches

    def recording(table, stacks, eps):
        stacks = list(stacks)
        rows.append([key for s in stacks for key in s.keys])
        return band_matches(table, stacks, eps)

    monkeypatch.setattr(grouping, "band_matches", recording)
    return rows


class TestRepeatedTables:
    @settings(max_examples=400, deadline=None)
    @given(case=repeating_lists())
    def test_pool_lists(self, case):
        factors, eps = case
        assert_matches_reference(factors, eps)

    @pytest.mark.parametrize("newer, joins", [([0.95, 1.0], 1), ([1.2, 1.0], 0)])
    def test_repeat_after_a_group_opened(self, monkeypatch, newer, joins):
        # T and W group, a copy of T joins them, then `newer` opens group 1
        # (it is out of band with W). The last copy of T is band-tested
        # against group 1 alone: [0.95, 1] accepts it and lies closer, so it
        # goes there; [1.2, 1] does not, and the recorded join holds.
        t, w = [1.0, 1.0], [1.08, 1.0]
        factors = [Factor(f"f{n}", ("x",), np.array(v)) for n, v in enumerate([t, w, t, newer, t])]
        rows = _record_band_rows(monkeypatch)
        got = phase1_group(factors, 0.1)
        assert got == reference_phase1(factors, 0.1)
        assert [m.factor for m in got.groups[joins]][-1] == "f4"
        # f0 finds no group, f1 to f3 test group 0, f4 first tests group 1 alone
        assert rows[:5] == [[], [0], [0], [0], [1]]
        assert len(rows) == 5 + joins   # and takes the full test when it accepts

    def test_first_join_is_recorded(self, monkeypatch):
        # W joins T's group by the band test, and that join is recorded for
        # W's table, though W was not seen before: its copy reuses it
        t, w = [1.0, 1.0], [1.08, 1.0]
        factors = [Factor(f"f{n}", ("x",), np.array(v)) for n, v in enumerate([t, w, w])]
        rows = _record_band_rows(monkeypatch)
        got = phase1_group(factors, 0.1)
        assert got == reference_phase1(factors, 0.1)
        assert rows == [[], [0]]

    @pytest.mark.parametrize("k,x,seed", [(16, 0.1, 0), (16, 0.3, 5)])
    def test_star_where_a_repeat_decides_differently(self, k, x, seed):
        # between copies of a base table, a perturbed table opens a group
        # (both stars) or joins one of the copy's candidate groups (k=16,
        # x=0.3), so that a later copy joins elsewhere than an earlier one
        cfg = GenConfig(k=k, x=x, eps=0.1, seed=seed)
        factors = perturb(generate_fg(cfg), cfg).factors
        reference = reference_phase1(factors, 0.1)
        assert _changed_decisions(factors, reference)
        assert phase1_group(factors, 0.1) == reference
