"""Closed-form error bounds, exact divergence, and the adversarial model."""

from __future__ import annotations

import math

import numpy as np
import pytest

from liftcomp import (
    BoundSet,
    Factor,
    FactorGraph,
    InvariantError,
    bound_general,
    bound_set,
    bound_tight,
    distance_exact,
    joint_table,
    modified_factor_count,
    odds_envelope,
    prob_envelope,
    replace_tables,
    run_eacp,
    worst_case_fg,
)

from conftest import random_model, sales_model


class TestClosedForms:
    def test_general_frozen_value(self):
        assert bound_general(10, 0.01) == pytest.approx(0.20000666706669526, abs=1e-15)

    def test_general_single_factor(self):
        expected = math.log(1.1) - math.log(0.9)
        assert bound_general(1, 0.1) == pytest.approx(expected, abs=1e-15)

    def test_tight_two_factors_collapses(self):
        # alpha2/alpha1 = (1+eps/2)(1+eps)/(1+eps/2) = 1+eps, so d = 2 ln(1+eps)
        assert bound_tight(2, 0.1) == pytest.approx(2 * math.log1p(0.1), abs=1e-15)

    def test_tight_single_factor_is_zero(self):
        for eps in (0.0, 0.01, 0.1, 0.5):
            assert bound_tight(1, eps) == 0.0

    def test_zero_eps_zero_bound(self):
        for m in (1, 2, 5):
            assert bound_general(m, 0.0) == 0.0
            assert bound_tight(m, 0.0) == 0.0

    def test_ordering_chain(self):
        for m in (2, 3, 5, 10, 40):
            for eps in (0.001, 0.01, 0.1, 0.5):
                mid = 2 * m * math.log1p(eps)
                assert bound_tight(m, eps) < mid < bound_general(m, eps)

    def test_monotone_in_m_and_eps(self):
        for eps in (0.01, 0.1):
            vals = [bound_tight(m, eps) for m in range(2, 12)]
            assert all(a < b for a, b in zip(vals, vals[1:]))
        for m in (2, 7):
            vals = [bound_tight(m, e) for e in (0.01, 0.05, 0.1, 0.3)]
            assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_m_validation(self):
        for bad in (0, -1, 2.0, True):
            with pytest.raises((InvariantError, TypeError)):
                bound_general(bad, 0.1)

    def test_eps_validation(self):
        with pytest.raises(InvariantError):
            bound_tight(3, 1.0)
        with pytest.raises(InvariantError):
            bound_tight(3, -0.1)


class TestBoundSet:
    def test_alpha_values(self):
        bs = bound_set(4, 0.1)
        assert bs.alpha1 == pytest.approx((1 + 0.1 / 4) / 1.1, abs=1e-15)
        assert bs.alpha2 == pytest.approx(1 + 0.3 / 4, abs=1e-15)
        assert bs.d_tight == pytest.approx(4 * math.log(bs.alpha2 / bs.alpha1), rel=1e-12)

    def test_alpha_straddle_one(self):
        for m in (1, 2, 6):
            for eps in (0.0, 0.05, 0.2):
                bs = bound_set(m, eps)
                assert bs.alpha1 <= 1.0 <= bs.alpha2

    def test_inconsistent_fields_rejected(self):
        good = bound_set(3, 0.1)
        with pytest.raises(InvariantError):
            BoundSet(
                m=3,
                eps=0.1,
                d_general=good.d_tight,  # swapped: general must dominate
                d_tight=good.d_general,
                alpha1=good.alpha1,
                alpha2=good.alpha2,
            )


class TestEnvelopes:
    def test_odds_envelope(self):
        lo, hi = odds_envelope(math.log(2.0))
        assert lo == pytest.approx(0.5, abs=1e-15)
        assert hi == pytest.approx(2.0, abs=1e-15)

    def test_prob_envelope_zero_width(self):
        for p in (0.1, 0.5, 0.93):
            lo, hi = prob_envelope(p, 0.0)
            assert lo == p == hi

    def test_prob_envelope_worked(self):
        lo, hi = prob_envelope(0.5, math.log(2.0))
        assert lo == pytest.approx(1 / 3, abs=1e-15)
        assert hi == pytest.approx(2 / 3, abs=1e-15)

    def test_prob_envelope_stays_in_unit_interval(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            p = float(rng.uniform(1e-6, 1 - 1e-6))
            d = float(rng.uniform(0.0, 5.0))
            lo, hi = prob_envelope(p, d)
            assert 0.0 < lo <= p <= hi < 1.0

    @pytest.mark.parametrize("d", [math.nan, math.inf, -1.0])
    def test_bad_distance_rejected(self, d):
        with pytest.raises(InvariantError):
            prob_envelope(0.5, d)
        with pytest.raises(InvariantError):
            odds_envelope(d)

    def test_odds_envelope_overflow_is_typed(self):
        with pytest.raises(InvariantError, match="float64"):
            odds_envelope(800.0)

    def test_prob_envelope_past_exp_range(self):
        assert prob_envelope(0.5, 800.0) == (0.0, 1.0)
        for p in (5e-324, 1e-300, 0.3, 1 - 1e-16):
            for d in (709.79, 710.0, 800.0, 1e300):
                lo, hi = prob_envelope(p, d)
                assert 0.0 <= lo <= p <= hi <= 1.0
            # e^d overflows between these two distances; the ends stay close
            below, above = prob_envelope(p, 709.78)[1], prob_envelope(p, 709.79)[1]
            assert above == pytest.approx(below, rel=1e-4)

    def test_prob_envelope_unchanged_where_finite(self):
        # the closed form alone, as it was before overflow handling
        def shift(p, t):
            return p * math.exp(t) / (p * math.expm1(t) + 1.0)

        rng = np.random.default_rng(3)
        ps = [5e-324, 1e-300, 1e-9, 0.5, 1 - 1e-16, *rng.uniform(0.0, 1.0, 50)]
        ds = [0.0, 1e-300, 1e-12, 0.1, 1.0, 30.0, 700.0, 709.78, *rng.uniform(0.0, 709.0, 20)]
        for p in ps:
            for d in ds:
                assert prob_envelope(float(p), float(d)) == (shift(p, -d), shift(p, d))


class TestDistanceExact:
    def test_identical_models(self, sales):
        rep = distance_exact(sales, sales)
        assert rep.d_exact == 0.0
        assert rep.max_ratio == 1.0 == rep.min_ratio

    def test_symmetry(self):
        rng = np.random.default_rng(11)
        fg = random_model(rng)
        other = replace_tables(
            fg, {fg.factors[0].name: fg.factors[0].table * rng.uniform(0.9, 1.1, fg.factors[0].table.shape)}
        )
        assert distance_exact(fg, other).d_exact == pytest.approx(
            distance_exact(other, fg).d_exact, abs=1e-12
        )

    def test_triangle_inequality(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            fg = random_model(rng)
            scale = lambda: {
                f.name: f.table * rng.uniform(0.8, 1.25, f.table.shape) for f in fg.factors
            }
            b = replace_tables(fg, scale())
            c = replace_tables(fg, scale())
            dab = distance_exact(fg, b).d_exact
            dbc = distance_exact(b, c).d_exact
            dac = distance_exact(fg, c).d_exact
            assert dac <= dab + dbc + 1e-9

    def test_witness_assignments_attain_extremes(self, sales):
        res = run_eacp(sales, 0.1)
        rep = distance_exact(sales, res.m_prime)
        joint, joint_prime = joint_table(sales), joint_table(res.m_prime)

        def ratio(a):
            cell = tuple(rv.index_of(a[rv.name]) for rv in sales.rvs)
            return joint_prime[cell] / joint[cell]

        hi, lo = ratio(rep.argmax_assignment), ratio(rep.argmin_assignment)
        assert hi == pytest.approx(rep.max_ratio, rel=1e-12)
        assert lo == pytest.approx(rep.min_ratio, rel=1e-12)
        assert rep.d_exact == pytest.approx(math.log(hi) - math.log(lo), rel=1e-12)

    def test_sales_within_tight_bound(self, sales):
        res = run_eacp(sales, 0.1)
        rep = distance_exact(sales, res.m_prime)
        assert 0.0 < rep.d_exact <= bound_tight(2, 0.1) + 1e-9

    def test_query_shift_within_envelope(self, sales):
        from liftcomp import Evidence, Query, query_ve

        res = run_eacp(sales, 0.1)
        d = distance_exact(sales, res.m_prime).d_exact
        q = Query("SalA", Evidence((("Rev", "high"),)))
        p = query_ve(sales, q)["high"]
        p_prime = query_ve(res.m_prime, q)["high"]
        lo, hi = prob_envelope(p, d)
        assert lo <= p_prime <= hi

    def test_mismatched_rvs_rejected(self, sales, counting):
        with pytest.raises(InvariantError):
            distance_exact(sales, counting)

    def test_permuted_rv_order_tolerated(self, sales):
        from liftcomp import FactorGraph

        flipped = FactorGraph(tuple(reversed(sales.rvs)), sales.factors)
        assert distance_exact(sales, flipped).d_exact == 0.0


class TestModifiedFactorCount:
    def test_counts_changed_tables(self, sales):
        assert modified_factor_count(sales, sales) == 0
        assert modified_factor_count(sales, run_eacp(sales, 0.1).m_prime) == 2
        scaled = replace_tables(sales, {"phi2": sales.factor("phi2").table * 1.01})
        assert modified_factor_count(sales, scaled) == 1
        reordered = FactorGraph(scaled.rvs, tuple(reversed(scaled.factors)))
        assert modified_factor_count(sales, reordered) == 1

    def test_structure_mismatch_rejected(self, sales):
        phi1, phi2 = sales.factors
        renamed = FactorGraph(sales.rvs, (phi1, Factor("other", phi2.args, phi2.table)))
        with pytest.raises(InvariantError, match="factor names"):
            modified_factor_count(sales, renamed)
        swapped = FactorGraph(
            sales.rvs, (phi1, Factor("phi2", phi2.args[::-1], phi2.table.T))
        )
        with pytest.raises(InvariantError, match="'phi2' has different arguments"):
            modified_factor_count(sales, swapped)


class TestWorstCase:
    def test_structure(self):
        fg = worst_case_fg(2, 0.1)
        assert [rv.name for rv in fg.rvs] == ["R1", "R2"]
        assert fg.rvs[0].range == ("r1", "r2", "r3", "r4")
        assert [f.name for f in fg.factors] == ["phi1", "phi2"]
        np.testing.assert_allclose(fg.factor("phi1").table, [1.1, 2.0, 3.0, 4.4])
        np.testing.assert_allclose(fg.factor("phi2").table, [1.0, 2.2, 3.3, 4.0])

    def test_attains_tight_bound(self):
        for m in (2, 3, 4):
            for eps in (0.01, 0.1):
                fg = worst_case_fg(m, eps)
                res = run_eacp(fg, eps)
                d = distance_exact(fg, res.m_prime).d_exact
                assert d == pytest.approx(bound_tight(m, eps), abs=1e-9)

    def test_general_bound_not_attained(self):
        fg = worst_case_fg(3, 0.1)
        res = run_eacp(fg, 0.1)
        d = distance_exact(fg, res.m_prime).d_exact
        assert d < bound_general(3, 0.1)

    def test_m_validation(self):
        with pytest.raises(InvariantError):
            worst_case_fg(1, 0.1)
