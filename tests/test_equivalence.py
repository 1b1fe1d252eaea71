"""Tolerance relation, alignment algebra, deviation scores, swap blocks."""

from __future__ import annotations

import itertools
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liftcomp import (
    ARITY_CAP,
    ArityCapError,
    Factor,
    InvariantError,
    aligned_args,
    aligned_table,
    commutative_blocks,
    eps_equiv_factors,
    unaligned_table,
)
from liftcomp.equivalence import (
    BandStack,
    _band,
    band_matches,
    check_epsilon,
    eps_band_mask,
    eps_equiv_arrays,
    identity_alignment,
    invert_alignment,
)

positive = st.floats(1e-3, 1e3)
small_eps = st.floats(0.0, 0.5, exclude_max=True)


def scalar_equiv(a, b, eps):
    """The entrywise test on two potentials, as 0-d arrays."""
    return eps_equiv_arrays(np.float64(a), np.float64(b), eps)


class TestPotentials:
    def test_within_band(self):
        assert scalar_equiv(1.0, 1.1, 0.1)
        assert scalar_equiv(1.1, 1.0, 0.1)

    def test_two_sided_rejects_asymmetric_case(self):
        # 0.9 is within 10% of 1.0, but 1.0 is not within [0.81, 0.99]
        assert not scalar_equiv(1.0, 0.9, 0.1)
        assert not scalar_equiv(0.9, 1.0, 0.1)

    def test_boundary_with_float_noise(self):
        assert scalar_equiv(0.2, 0.2 * 1.1, 0.1)
        assert scalar_equiv(0.2 * 1.1, 0.2, 0.1)

    def test_just_outside(self):
        assert not scalar_equiv(1.0, 1.1001, 0.1)

    def test_eps_zero_is_equality(self):
        assert scalar_equiv(0.7, 0.7, 0.0)
        assert not scalar_equiv(0.7, np.nextafter(0.7, 1.0) + 1e-12, 0.0)
        assert not scalar_equiv(0.7, np.nextafter(0.7, 1.0), 0.0)
        assert not scalar_equiv(np.nextafter(0.7, 0.0), 0.7, 0.0)
        assert eps_equiv_arrays(np.array([0.7, 0.2]), np.array([0.7, 0.2]), 0.0)
        assert not eps_equiv_arrays(np.array([0.7, 0.2]), np.array([np.nextafter(0.7, 1.0), 0.2]), 0.0)

    def test_not_transitive(self):
        assert scalar_equiv(1.0, 1.1, 0.1)
        assert scalar_equiv(1.1, 1.21, 0.1)
        assert not scalar_equiv(1.0, 1.21, 0.1)

    @settings(max_examples=200, deadline=None)
    @given(a=positive, b=positive, eps=small_eps)
    def test_symmetric(self, a, b, eps):
        assert scalar_equiv(a, b, eps) == scalar_equiv(b, a, eps)

    @settings(max_examples=100, deadline=None)
    @given(a=positive, eps=small_eps)
    def test_reflexive(self, a, eps):
        assert scalar_equiv(a, a, eps)

    @settings(max_examples=200, deadline=None)
    @given(a=positive, b=positive, eps=small_eps)
    def test_ratio_characterisation(self, a, b, eps):
        # equivalent pairs have max/min <= 1+eps, strictly tighter than 1/(1-eps)
        if scalar_equiv(a, b, eps):
            assert max(a, b) / min(a, b) <= (1.0 + eps) * (1.0 + 1e-9)

    @settings(max_examples=100, deadline=None)
    @given(a=positive, b=positive, eps=small_eps, scale=st.floats(1e-2, 1e2))
    def test_scale_invariant(self, a, b, eps, scale):
        assert scalar_equiv(a, b, eps) == scalar_equiv(
            a * scale, b * scale, eps
        )

    def test_shape_mismatch_rejected(self):
        with pytest.raises(InvariantError, match=r"shape mismatch \(2,\) vs \(3,\)"):
            eps_equiv_arrays(np.ones(2), np.ones(3), 0.1)

    def test_eps_domain(self):
        with pytest.raises(InvariantError):
            check_epsilon(-0.1)
        with pytest.raises(InvariantError):
            check_epsilon(1.0)
        assert check_epsilon(0.0) == 0.0

    def test_eps_must_be_a_real_number(self):
        for eps in (False, True, np.True_, "0.1", None, 0.1j):
            with pytest.raises(InvariantError, match="real number"):
                check_epsilon(eps)
        for eps in (0, np.float32(0.5), np.float64(0.1), np.int64(0)):
            assert check_epsilon(eps) == float(eps) and type(check_epsilon(eps)) is float

    def test_eps_past_float64_is_out_of_range(self):
        # float(eps) overflows: an InvariantError, not an OverflowError
        for eps, shown in ((10**400, "inf"), (-(10**400), "-inf"), (Fraction(10**400, 3), "inf")):
            message = rf"epsilon must lie in \[0, 1\), got {shown}$"
            with pytest.raises(InvariantError, match=message):
                check_epsilon(eps)


class TestBandEdge:
    """Every form of the test gives one answer within 2 ulps of a band edge."""

    @staticmethod
    def forms(a, b, eps):
        fa = Factor("a", ("X",), np.array([a]))
        fb = Factor("b", ("Y",), np.array([b]))
        return (
            scalar_equiv(a, b, eps),
            eps_equiv_arrays(np.array([a]), np.array([b]), eps),
            bool(eps_band_mask(np.array([[a]]), np.array([[a]]), np.array([b]), eps)[0]),
            eps_equiv_factors(fa, fb, eps) is not None,
        )

    @pytest.mark.parametrize("eps", [0.0, 0.001, 0.1, 0.5])
    def test_forms_agree_near_edges(self, eps):
        rng = np.random.default_rng(31)
        c1, c2 = _band(eps)
        answers = set()
        for a in [3.0, 0.7, 1.0, *rng.uniform(0.1, 10.0, 60)]:
            for edge in (a * c1, a * c2):
                b = edge
                for _ in range(2):
                    b = np.nextafter(b, 0.0)
                for _ in range(5):
                    for pair in ((a, float(b)), (float(b), a)):
                        got = self.forms(*pair, eps)
                        assert len(set(got)) == 1, (pair, eps, got)
                        answers.add(got[0])
                    b = np.nextafter(b, np.inf)
        assert answers == {True, False}

    def test_pinned_edge_pair(self):
        assert self.forms(3.0, 3.3000000000033007, 0.1) == (False,) * 4
        assert self.forms(3.3000000000033007, 3.0, 0.1) == (False,) * 4


class TestStackedBandMask:
    """One eps_band_mask call on stacked views answers as one call per view."""

    @pytest.mark.parametrize("eps", [0.0, 0.1])
    @pytest.mark.parametrize("shape", [(2,), (2, 3, 2), (3, 3)])
    def test_stack_equals_per_view_calls(self, shape, eps):
        rng = np.random.default_rng(5)
        c1, c2 = _band(eps)
        edges = [1.0, c1, c2, np.nextafter(c1, 2.0), np.nextafter(c2, 0.0), 1 / c1, 1 / c2]
        weights = [0.7] + [0.05] * 6
        perms = [
            p for p in itertools.permutations(range(len(shape)))
            if all(shape[j] == shape[p[j]] for j in range(len(shape)))
        ]
        outcomes = set()
        for _ in range(40):
            table = rng.uniform(0.5, 2.0, shape)
            views = [aligned_table(table, p) for p in perms]
            stack = BandStack(shape)
            rows = []
            for key in range(6):
                # members at or just past the band edges of one of the views
                base = views[int(rng.integers(len(views)))]
                members = [
                    base * rng.choice(edges, size=shape, p=weights)
                    for _ in range(rng.integers(1, 4))
                ]
                stack.append(key, members[0])
                for m in members[1:]:
                    stack.widen(key, m)
                rows.append(members)
            lo = np.stack([np.min(m, axis=0) for m in rows])
            hi = np.stack([np.max(m, axis=0) for m in rows])
            per_view = np.array([eps_band_mask(lo, hi, v, eps) for v in views])
            assert np.array_equal(eps_band_mask(lo, hi, np.stack(views), eps), per_view)
            # each row keeps its first permutation in lexicographic order
            expected = {
                key: perms[int(np.argmax(per_view[:, key]))]
                for key in range(len(rows))
                if per_view[:, key].any()
            }
            assert band_matches(table, [stack], eps) == expected
            outcomes.update(per_view.ravel().tolist())
        assert outcomes == {True, False}


    def test_too_many_views_to_stack(self):
        # 720 permutations of a 2**6 table are tested one call each
        rng = np.random.default_rng(9)
        shape = (2,) * 6
        table = rng.uniform(0.5, 2.0, shape)
        stack = BandStack(shape)
        for key, perm in enumerate([(5, 4, 3, 2, 1, 0), (0, 2, 1, 3, 4, 5), (1, 0, 2, 3, 4, 5)]):
            stack.append(key, aligned_table(table, perm) * 1.05)
        stack.append(3, np.full(shape, 1.0))
        expected = {}
        for perm in itertools.permutations(range(6)):
            hits = eps_band_mask(stack.lo, stack.hi, aligned_table(table, perm), 0.1)
            for key in np.flatnonzero(hits):
                expected.setdefault(int(key), perm)
        assert set(expected) == {0, 1, 2}
        assert band_matches(table, [stack], 0.1) == expected


class TestAlignment:
    def test_identity_and_inverse(self):
        assert identity_alignment(3) == (0, 1, 2)
        assert invert_alignment((2, 0, 1)) == (1, 2, 0)
        assert invert_alignment(invert_alignment((2, 0, 1))) == (2, 0, 1)

    def test_aligned_table_against_index_oracle(self):
        rng = np.random.default_rng(21)
        for arity in (1, 2, 3, 4):
            shape = tuple(int(s) for s in rng.integers(2, 4, size=arity))
            for perm in itertools.permutations(range(arity)):
                # member axis j carries representative coordinate perm[j],
                # so the aligned table reads member[idx applied at perm]
                member_shape = tuple(shape[p] for p in perm)
                member = rng.uniform(0.1, 1.0, size=member_shape)
                aligned = aligned_table(member, perm)
                assert aligned.shape == shape
                for idx in np.ndindex(*shape):
                    assert aligned[idx] == member[tuple(idx[p] for p in perm)]

    def test_round_trip(self):
        rng = np.random.default_rng(22)
        table = rng.uniform(0.1, 1.0, size=(2, 3, 4))
        for perm in itertools.permutations(range(3)):
            assert np.array_equal(unaligned_table(aligned_table(table, perm), perm), table)
            assert np.array_equal(aligned_table(unaligned_table(table, perm), perm), table)

    def test_aligned_args(self):
        # member args (Y, X) with perm (1, 0) read back as (X, Y)
        assert aligned_args(("Y", "X"), (1, 0)) == ("X", "Y")
        assert aligned_args(("A", "B", "C"), (2, 0, 1)) == ("B", "C", "A")

    @pytest.mark.parametrize("perm", [(0, 0), (0,), (1, 2)])
    def test_invalid_alignment_rejected(self, perm):
        # one check for tables and argument lists alike
        message = f"^{re.escape(f'invalid alignment {perm} for arity 2')}$"
        for helper, value in ((aligned_table, np.ones((2, 2))),
                              (unaligned_table, np.ones((2, 2))), (aligned_args, ("A", "B"))):
            with pytest.raises(InvariantError, match=message):
                helper(value, perm)


class TestFactorEquivalence:
    def test_identity_witness_for_identical(self):
        t = np.random.default_rng(23).uniform(0.1, 1.0, size=(2, 2))
        f1 = Factor("a", ("X", "Y"), t)
        f2 = Factor("b", ("P", "Q"), t)
        assert eps_equiv_factors(f1, f2, 0.0) == (0, 1)

    def test_permuted_copy_witness(self):
        rng = np.random.default_rng(24)
        t = rng.uniform(0.1, 1.0, size=(2, 3))
        f1 = Factor("a", ("X", "Y"), t)
        f2 = Factor("b", ("Q", "P"), np.transpose(t, (1, 0)))
        w = eps_equiv_factors(f1, f2, 0.0)
        assert w == (1, 0)
        assert np.array_equal(aligned_table(f2.table, w), f1.table)

    def test_lexicographically_first_witness(self):
        # fully symmetric tables admit both witnesses; identity must win
        t = np.array([[1.0, 2.0], [2.0, 1.0]])
        f1 = Factor("a", ("X", "Y"), t)
        f2 = Factor("b", ("P", "Q"), t)
        assert eps_equiv_factors(f1, f2, 0.0) == (0, 1)

    def test_arity_mismatch(self):
        f1 = Factor("a", ("X",), np.array([1.0, 2.0]))
        f2 = Factor("b", ("X", "Y"), np.ones((2, 2)))
        assert eps_equiv_factors(f1, f2, 0.1) is None

    def test_shape_compatibility_filters_permutations(self):
        rng = np.random.default_rng(25)
        t = rng.uniform(0.1, 1.0, size=(2, 3))
        f1 = Factor("a", ("X", "Y"), t)
        noisy = np.transpose(t, (1, 0)) * rng.uniform(0.98, 1.02, size=(3, 2))
        f2 = Factor("b", ("P", "Q"), noisy)
        # only the swap is range-compatible for a (3,2) member of a (2,3) rep
        assert eps_equiv_factors(f1, f2, 0.05) == (1, 0)

    def test_no_witness_when_out_of_band(self):
        f1 = Factor("a", ("X",), np.array([1.0, 2.0]))
        f2 = Factor("b", ("Y",), np.array([1.5, 2.0]))
        assert eps_equiv_factors(f1, f2, 0.1) is None

    def test_arity_cap(self):
        n = ARITY_CAP + 1
        args1 = tuple(f"X{i}" for i in range(n))
        t = np.full((2,) * n, 0.5)
        f1 = Factor("a", args1, t)
        f2 = Factor("b", args1, t)
        with pytest.raises(ArityCapError):
            eps_equiv_factors(f1, f2, 0.1)


BINARY = ("a", "b")


class TestCommutativeBlocks:
    def test_symmetric_pair_detected(self, counting):
        f = counting.factor("phi1")
        ranges = tuple(counting.rv(a).range for a in f.args)
        assert commutative_blocks(f.table, 0.0, ranges) == ((0,), (1, 2))

    def test_asymmetric_table_all_singletons(self):
        rng = np.random.default_rng(27)
        t = rng.uniform(0.1, 1.0, size=(2, 2))
        assert commutative_blocks(t, 0.0, (BINARY, BINARY)) == ((0,), (1,))

    def test_range_labels_block_mixing(self):
        # symmetric values, but the two positions range over different labels
        t = np.array([[1.0, 2.0], [2.0, 1.0]])
        assert commutative_blocks(t, 0.0, (("a", "b"), ("c", "d"))) == ((0,), (1,))
        assert commutative_blocks(t, 0.0, (("a", "b"), ("a", "b"))) == ((0, 1),)
        with pytest.raises(InvariantError, match="ranges arity 1 != table arity 2"):
            commutative_blocks(t, 0.0, (("a", "b"),))

    def test_tolerant_swap(self):
        # near-symmetric: off-diagonal entries differ by 5 percent
        t = np.array([[1.0, 2.0], [2.1, 1.0]])
        assert commutative_blocks(t, 0.0, (BINARY, BINARY)) == ((0,), (1,))
        assert commutative_blocks(t, 0.1, (BINARY, BINARY)) == ((0, 1),)

    def test_fully_symmetric_three(self):
        t = np.zeros((2, 2, 2))
        for idx in np.ndindex(2, 2, 2):
            t[idx] = 1.0 + sum(idx)
        assert commutative_blocks(t, 0.0, (BINARY,) * 3) == ((0, 1, 2),)
