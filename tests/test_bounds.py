"""Closed-form error bounds, exact divergence, and the adversarial model."""

from __future__ import annotations

import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from liftcomp import (
    EPS_DOMAIN,
    BoundSet,
    DistanceReport,
    EnumerationCapError,
    Factor,
    FactorGraph,
    InvariantError,
    RandomVariable,
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
from liftcomp import model

from conftest import (
    binary_chain,
    free_star,
    mixed_range_model,
    random_model,
    record_slabs,
    sales_model,
    star_model,
)


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
        for bad in (-1, 2.0, True):
            with pytest.raises((InvariantError, TypeError)):
                bound_general(bad, 0.1)

    def test_eps_validation(self):
        with pytest.raises(InvariantError):
            bound_tight(3, 1.0)
        with pytest.raises(InvariantError):
            bound_tight(3, -0.1)

    @pytest.mark.parametrize("eps", [10**400, -(10**400), Fraction(10**400, 3)])
    def test_eps_past_float64_is_typed(self, eps):
        # float(eps) overflows: every caller of check_epsilon raises InvariantError
        for check in (bound_general, bound_tight, bound_set, worst_case_fg):
            with pytest.raises(InvariantError, match=r"epsilon must lie in \[0, 1\)"):
                check(2, eps)


class TestBoundSet:
    def test_integral_m(self):
        assert bound_set(np.int64(2), 0.1) == bound_set(2, 0.1)
        assert type(bound_set(np.int64(2), 0.1).m) is int
        for m in (True, np.True_, 2.0, "2", np.int64(-1)):
            with pytest.raises(InvariantError, match="non-negative int"):
                bound_set(m, 0.1)

    def test_nothing_modified(self):
        # m = 0 is every compression at eps = 0: both certificates are 0
        for eps in (0.0, *EPS_DOMAIN):
            assert bound_set(0, eps) == BoundSet(0, eps, 0.0, 0.0, 1.0, 1.0)
            assert bound_general(0, eps) == bound_tight(0, eps) == 0.0
        for fg in (sales_model(), star_model(8, 3), free_star(4, 3)):
            m = modified_factor_count(fg, run_eacp(fg, 0.0).m_prime)
            assert bound_set(m, 0.1) == BoundSet(0, 0.1, 0.0, 0.0, 1.0, 1.0)
        for bad in (-1, True, np.True_, 2.0, "2"):
            for bound in (bound_general, bound_tight, bound_set):
                with pytest.raises(InvariantError):
                    bound(bad, 0.1)

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
        for alpha1, alpha2 in ((1.01, good.alpha2), (good.alpha1, 0.99)):
            with pytest.raises(InvariantError, match="ratio extremes must straddle 1"):
                BoundSet(3, 0.1, good.d_general, good.d_tight, alpha1, alpha2)


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

    @pytest.mark.parametrize("d", [None, "1", True, False, 1j, 10**400])
    def test_distance_must_be_a_finite_real(self, d):
        with pytest.raises(InvariantError, match="distance must"):
            prob_envelope(0.5, d)
        with pytest.raises(InvariantError, match="distance must"):
            odds_envelope(d)

    def test_distance_of_any_real_type(self):
        for d in (1, Fraction(1, 2), np.float32(0.5), np.int64(2)):
            assert odds_envelope(d) == odds_envelope(float(d))
            assert prob_envelope(0.3, d) == prob_envelope(0.3, float(d))

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

    def test_prob_envelope_at_one(self):
        # a reported 1.0 covers the float just below 1 and reaches 1.0
        below = math.nextafter(1.0, 0.0)
        assert prob_envelope(1.0, 0.0) == (below, 1.0)
        for d in (1e-12, 0.1, 1.0, 30.0, 709.78, 800.0):
            lo, hi = prob_envelope(1.0, d)
            assert (lo, hi) == (prob_envelope(below, d)[0], 1.0)
            assert 0.0 <= lo <= below

    def test_prob_envelope_at_zero(self):
        # a reported 0.0 covers the smallest positive float and reaches 0.0
        tiny = math.nextafter(0.0, 1.0)
        assert prob_envelope(0.0, 0.0) == (0.0, tiny)
        for d in (1e-12, 0.1, 1.0, 30.0, 709.78, 800.0):
            lo, hi = prob_envelope(0.0, d)
            assert (lo, hi) == (0.0, prob_envelope(tiny, d)[1])
            assert tiny <= hi <= 1.0

    def test_underflowed_marginal_envelope_holds_its_log(self):
        # P(a0) = 1e-200 / (1e-200 + 1e200) = e^-921.03 rounds to 0.0, and
        # its finite log-probability lies inside the envelope of 0.0
        from liftcomp import Factor, FactorGraph, Query, RandomVariable, query_ve

        fg = FactorGraph(
            (RandomVariable("A", ("a0", "a1")),),
            (Factor("f", ("A",), [1e-200, 1e200]),),
        )
        res = query_ve(fg, Query("A"))
        assert res["a0"] == 0.0
        assert res.log_distribution["a0"] == pytest.approx(-400 * math.log(10), rel=1e-12)
        lo, hi = prob_envelope(res["a0"], 0.1)
        assert lo == 0.0
        assert math.log(hi) >= res.log_distribution["a0"]

    @pytest.mark.parametrize("p", [-0.5, 1.0 + 2**-52, 2.0, math.nan, math.inf])
    def test_prob_envelope_outside_domain_rejected(self, p):
        with pytest.raises(InvariantError, match=r"\[0, 1\]"):
            prob_envelope(p, 0.1)

    def test_saturated_hub_envelope_holds_ground_answer(self):
        # P(Hub=false) = 1 - 5.5e-19 on this star, which rounds to 1.0
        from liftcomp import GenConfig, Query, generate_fg, perturb, query_lifted_star, query_ve

        cfg = GenConfig(128, 0.1, 0.1, seed=120122616)
        fg = perturb(generate_fg(cfg), cfg)
        res = run_eacp(fg, cfg.eps)
        q = Query("Hub", value="false")
        p = query_lifted_star(res.pfg, "Hub", q)["false"]
        assert p == 1.0
        d = bound_set(modified_factor_count(fg, res.m_prime), cfg.eps).d_tight
        lo, hi = prob_envelope(p, d)
        ground = query_ve(fg, q)
        assert ground["false"] <= hi
        # ground["false"] rounds to 1.0 too, so the lower end is checked on
        # the complement, which the ground answer carries exactly
        assert 0.0 < ground.distribution["true"] <= 1.0 - lo


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
        relabelled = FactorGraph(
            tuple(RandomVariable(rv.name, rv.range[::-1]) for rv in sales.rvs), sales.factors
        )
        with pytest.raises(InvariantError, match="'SalA' has different ranges"):
            distance_exact(sales, relabelled)

    def test_permuted_rv_order_tolerated(self, sales):
        from liftcomp import FactorGraph

        flipped = FactorGraph(tuple(reversed(sales.rvs)), sales.factors)
        assert distance_exact(sales, flipped).d_exact == 0.0


def two_joint_distance(m1, m2):
    """Reference: distance_exact as it was before slabs, over both full joints."""
    names1 = [rv.name for rv in m1.rvs]
    names2 = [rv.name for rv in m2.rvs]
    j1 = joint_table(m1)
    j2 = joint_table(m2)
    if names1 != names2:
        perm = tuple(names2.index(n) for n in names1)
        j2 = np.transpose(j2, perm)
    ratio = np.divide(j2, j1, out=j2)
    hi_idx = np.unravel_index(int(np.argmax(ratio)), ratio.shape)
    lo_idx = np.unravel_index(int(np.argmin(ratio)), ratio.shape)
    max_ratio = float(ratio[hi_idx])
    min_ratio = float(ratio[lo_idx])
    return DistanceReport(
        d_exact=math.log(max_ratio) - math.log(min_ratio),
        argmax_assignment={rv.name: rv.range[k] for rv, k in zip(m1.rvs, hi_idx)},
        argmin_assignment={rv.name: rv.range[k] for rv, k in zip(m1.rvs, lo_idx)},
        max_ratio=max_ratio,
        min_ratio=min_ratio,
    )


def perturbed(rng, fg):
    """fg with a random subset of its tables rescaled, its RVs sometimes reordered."""
    tables = {
        f.name: f.table * rng.uniform(0.8, 1.25, f.table.shape)
        for f in fg.factors if rng.random() < 0.4
    }
    out = replace_tables(fg, tables)
    if rng.random() < 0.5:
        order = rng.permutation(len(fg.rvs))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            out = FactorGraph(tuple(fg.rvs[int(i)] for i in order), out.factors)
    return out


def sized_model(rng, sizes):
    """A chain over RVs of the given sizes plus random factors of arity 1-3."""
    names = [f"V{i}" for i in range(len(sizes))]
    rvs = tuple(RandomVariable(n, tuple(f"l{j}" for j in range(k))) for n, k in zip(names, sizes))
    arg_lists = [(names[i], names[i + 1]) for i in range(len(names) - 1)]
    for _ in range(4):
        picked = rng.choice(len(names), size=int(rng.integers(1, 4)), replace=False)
        arg_lists.append(tuple(names[int(j)] for j in picked))
    factors = tuple(
        Factor(f"f{i}", args, rng.uniform(0.1, 2.0, [sizes[names.index(a)] for a in args]))
        for i, args in enumerate(arg_lists)
    )
    return FactorGraph(rvs, factors)


class TestDistanceSlabs:
    def test_bit_identical_to_two_joint_reference(self, monkeypatch):
        rng = np.random.default_rng(5)
        calls = record_slabs(monkeypatch)
        reordered = all_held_factor = zero_d = multi_slab = 0
        for _ in range(280):
            fg = mixed_range_model(rng)
            other = perturbed(rng, fg)
            # small slab bounds make these small models span many slabs
            bound = max(1, fg.state_count() >> int(rng.integers(0, 7)))
            monkeypatch.setattr(model, "SLAB_STATES", bound)
            calls.clear()
            rep, ref = distance_exact(fg, other), two_joint_distance(fg, other)
            assert rep == ref and rep.d_exact.hex() == ref.d_exact.hex()
            held = calls[0][0]
            reordered += other.rvs != fg.rvs
            all_held_factor += any(held and set(f.args) <= held.keys() for f in fg.factors)
            zero_d += len(held) == len(fg.rvs)
            multi_slab += len(calls) > 2
        assert reordered > 80 and all_held_factor > 50 and zero_d > 10 and multi_slab > 150

    def test_ties_keep_the_first_extreme(self, sales):
        rep = distance_exact(sales, sales)
        assert rep == two_joint_distance(sales, sales)
        first = {rv.name: rv.range[0] for rv in sales.rvs}
        assert rep.argmax_assignment == first == rep.argmin_assignment
        for m in (2, 3, 4, 5, 6):
            fg = worst_case_fg(m, 0.0)
            for other in (fg, run_eacp(fg, 0.0).m_prime, run_eacp(fg, 0.1).m_prime):
                assert distance_exact(fg, other) == two_joint_distance(fg, other)

    def test_bit_identical_around_the_slab_bound(self):
        rng = np.random.default_rng(8)
        cases = [
            [12] * 5,              # 248832 states: one slab, just below the bound
            [2] * 18,              # 2^18: one slab, at the bound
            [3] * 7 + [2] * 7,     # 279936: just above, two held RVs
            [12] * 5 + [2],        # 497664: a held 12-label RV
            [2, 3, 4, 12, 2, 3, 4, 12, 2],
        ]
        for sizes in cases:
            fg = sized_model(rng, sizes)
            for _ in range(2):
                other = perturbed(rng, fg)
                assert distance_exact(fg, other) == two_joint_distance(fg, other)
        for m in (5, 6):
            fg = worst_case_fg(m, 0.1)
            other = run_eacp(fg, 0.1).m_prime
            assert distance_exact(fg, other) == two_joint_distance(fg, other)

    @pytest.mark.parametrize("m", [5, 6])
    def test_slab_sizes_sum_to_two_joints(self, monkeypatch, m):
        fg = worst_case_fg(m, 0.1)
        m_prime = run_eacp(fg, 0.1).m_prime
        flipped = FactorGraph(tuple(reversed(m_prime.rvs)), m_prime.factors)
        calls = record_slabs(monkeypatch)
        for other in (m_prime, flipped):
            calls.clear()
            distance_exact(fg, other)
            sizes = [size for _, size in calls]
            assert sum(sizes) == 2 * fg.state_count()
            assert max(sizes) <= model.SLAB_STATES

    def test_memory_stays_within_two_slabs(self):
        # 2^22 states: the two full joints would take 64 MiB
        rng = np.random.default_rng(3)
        fg, other = binary_chain(22, rng), binary_chain(22, rng)
        tracemalloc.start()
        try:
            rep = distance_exact(fg, other)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
        assert rep.d_exact > 0.0

    def test_cap_checked_before_any_allocation(self, monkeypatch):
        fg = binary_chain(22, np.random.default_rng(4))
        monkeypatch.setenv("LIFTCOMP_ENUM_CAP", str(2**20))
        tracemalloc.start()
        try:
            with pytest.raises(EnumerationCapError):
                distance_exact(fg, fg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**16

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_joint_product_leaving_float64_raises(self, scale):
        rvs = tuple(RandomVariable(f"V{i}", ("a", "b")) for i in range(4))

        def unary(row):
            return FactorGraph(
                rvs, tuple(Factor(f"f{i}", (f"V{i}",), np.array(row) * scale) for i in range(4))
            )

        # raised with no numpy warning ahead of it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvariantError, match="left the float64 range"):
                distance_exact(unary([1.0, 2.0]), unary([1.1, 2.0]))

    @pytest.mark.parametrize(
        "d, hi, lo", [(math.nan, 1.0, 1.0), (math.inf, 2.0, 1.0), (0.5, math.nan, 1.0),
                      (0.5, 2.0, math.inf), (-0.1, 1.0, 1.0)],
    )
    def test_report_rejects_non_finite_fields(self, d, hi, lo):
        with pytest.raises(InvariantError):
            DistanceReport(d, hi, lo, {}, {})


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
