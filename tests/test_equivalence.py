"""Tolerance relation, alignment algebra, deviation scores, swap blocks."""

from __future__ import annotations

import itertools

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
    eps_equiv_potentials,
    unaligned_table,
)
from liftcomp.equivalence import (
    check_epsilon,
    eps_equiv_arrays,
    err,
    identity_alignment,
    invert_alignment,
)

positive = st.floats(1e-3, 1e3)
small_eps = st.floats(0.0, 0.5, exclude_max=True)


class TestPotentials:
    def test_within_band(self):
        assert eps_equiv_potentials(1.0, 1.1, 0.1)
        assert eps_equiv_potentials(1.1, 1.0, 0.1)

    def test_two_sided_rejects_asymmetric_case(self):
        # 0.9 is within 10% of 1.0, but 1.0 is not within [0.81, 0.99]
        assert not eps_equiv_potentials(1.0, 0.9, 0.1)
        assert not eps_equiv_potentials(0.9, 1.0, 0.1)

    def test_boundary_with_float_noise(self):
        assert eps_equiv_potentials(0.2, 0.2 * 1.1, 0.1)
        assert eps_equiv_potentials(0.2 * 1.1, 0.2, 0.1)

    def test_just_outside(self):
        assert not eps_equiv_potentials(1.0, 1.1001, 0.1)

    def test_eps_zero_is_equality(self):
        assert eps_equiv_potentials(0.7, 0.7, 0.0)
        assert not eps_equiv_potentials(0.7, np.nextafter(0.7, 1.0) + 1e-12, 0.0)
        assert not eps_equiv_potentials(0.7, np.nextafter(0.7, 1.0), 0.0)
        assert not eps_equiv_potentials(np.nextafter(0.7, 0.0), 0.7, 0.0)
        assert eps_equiv_arrays(np.array([0.7, 0.2]), np.array([0.7, 0.2]), 0.0)
        assert not eps_equiv_arrays(np.array([0.7, 0.2]), np.array([np.nextafter(0.7, 1.0), 0.2]), 0.0)

    def test_not_transitive(self):
        assert eps_equiv_potentials(1.0, 1.1, 0.1)
        assert eps_equiv_potentials(1.1, 1.21, 0.1)
        assert not eps_equiv_potentials(1.0, 1.21, 0.1)

    @settings(max_examples=200, deadline=None)
    @given(a=positive, b=positive, eps=small_eps)
    def test_symmetric(self, a, b, eps):
        assert eps_equiv_potentials(a, b, eps) == eps_equiv_potentials(b, a, eps)

    @settings(max_examples=100, deadline=None)
    @given(a=positive, eps=small_eps)
    def test_reflexive(self, a, eps):
        assert eps_equiv_potentials(a, a, eps)

    @settings(max_examples=200, deadline=None)
    @given(a=positive, b=positive, eps=small_eps)
    def test_ratio_characterisation(self, a, b, eps):
        # equivalent pairs have max/min <= 1+eps, strictly tighter than 1/(1-eps)
        if eps_equiv_potentials(a, b, eps):
            assert max(a, b) / min(a, b) <= (1.0 + eps) * (1.0 + 1e-9)

    @settings(max_examples=100, deadline=None)
    @given(a=positive, b=positive, eps=small_eps, scale=st.floats(1e-2, 1e2))
    def test_scale_invariant(self, a, b, eps, scale):
        assert eps_equiv_potentials(a, b, eps) == eps_equiv_potentials(
            a * scale, b * scale, eps
        )

    def test_eps_domain(self):
        with pytest.raises(InvariantError):
            check_epsilon(-0.1)
        with pytest.raises(InvariantError):
            check_epsilon(1.0)
        assert check_epsilon(0.0) == 0.0


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


class TestErr:
    def test_worked_values(self, sales_three):
        phi1 = sales_three.factor("phi1")
        phi2 = sales_three.factor("phi2")
        phi3 = sales_three.factor("phi3")
        ident = (0, 1)
        assert err(phi1, phi2, ident) == pytest.approx(0.0042, abs=1e-12)
        assert err(phi2, phi3, ident) == pytest.approx(0.0022, abs=1e-12)

    def test_zero_for_identical(self):
        t = np.array([[0.3, 0.4], [0.5, 0.6]])
        f1 = Factor("a", ("X", "Y"), t)
        f2 = Factor("b", ("P", "Q"), t)
        assert err(f1, f2, (0, 1)) == 0.0

    def test_respects_alignment(self):
        rng = np.random.default_rng(26)
        t = rng.uniform(0.1, 1.0, size=(2, 3))
        f1 = Factor("a", ("X", "Y"), t)
        f2 = Factor("b", ("Q", "P"), np.transpose(t, (1, 0)))
        assert err(f1, f2, (1, 0)) == 0.0

    def test_incompatible_alignment(self):
        f1 = Factor("a", ("X", "Y"), np.ones((2, 3)))
        f2 = Factor("b", ("P", "Q"), np.ones((3, 2)))
        with pytest.raises(InvariantError):
            err(f1, f2, (0, 1))


class TestCommutativeBlocks:
    def test_symmetric_pair_detected(self, counting):
        f = counting.factor("phi1")
        spec = commutative_blocks(f, 0.0, counting.arg_ranges(f))
        assert spec.blocks == ((0,), (1, 2))
        assert spec.counted_candidates() == ((1, 2),)

    def test_asymmetric_table_all_singletons(self):
        rng = np.random.default_rng(27)
        f = Factor("f", ("X", "Y"), rng.uniform(0.1, 1.0, size=(2, 2)))
        spec = commutative_blocks(f, 0.0)
        assert spec.blocks == ((0,), (1,))

    def test_range_labels_block_mixing(self):
        # symmetric values, but the two positions range over different labels
        t = np.array([[1.0, 2.0], [2.0, 1.0]])
        f = Factor("f", ("X", "Y"), t)
        spec = commutative_blocks(f, 0.0, (("a", "b"), ("c", "d")))
        assert spec.blocks == ((0,), (1,))
        spec2 = commutative_blocks(f, 0.0, (("a", "b"), ("a", "b")))
        assert spec2.blocks == ((0, 1),)

    def test_tolerant_swap(self):
        # near-symmetric: off-diagonal entries differ by 5 percent
        t = np.array([[1.0, 2.0], [2.1, 1.0]])
        f = Factor("f", ("X", "Y"), t)
        assert commutative_blocks(f, 0.0).blocks == ((0,), (1,))
        assert commutative_blocks(f, 0.1).blocks == ((0, 1),)

    def test_fully_symmetric_three(self):
        t = np.zeros((2, 2, 2))
        for idx in np.ndindex(2, 2, 2):
            t[idx] = 1.0 + sum(idx)
        f = Factor("f", ("X", "Y", "Z"), t)
        spec = commutative_blocks(f, 0.0)
        assert spec.blocks == ((0, 1, 2),)
