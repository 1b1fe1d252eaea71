"""End-to-end compression pipeline and its exact-equality baseline."""

from __future__ import annotations

import gc
import tracemalloc

import numpy as np
import pytest

from liftcomp import (
    ARITY_CAP,
    ArityCapError,
    Evidence,
    Factor,
    FactorGraph,
    GenConfig,
    Grouping,
    GroupMember,
    InvariantError,
    RandomVariable,
    fg_equal,
    generate_fg,
    perturb,
    pfg_equal,
    phase1_group,
    run_eacp,
    worst_case_fg,
)
from liftcomp.acp import colour_pass, initial_factor_colours_exact
from liftcomp.eacp import _phase3_update, run_acp
from liftcomp.equivalence import (
    aligned_table,
    eps_equiv_arrays,
    identity_alignment,
    unaligned_table,
)
from liftcomp.grouping import mean_of_tables

from conftest import random_model, sales_model


def group_names(grouping):
    return [[m.factor for m in g] for g in grouping.groups]


def near_twin_star() -> FactorGraph:
    """Hub with two leaves whose tables differ by a relative 1e-13."""
    t = np.array([[0.3, 0.7], [0.6, 0.2]])
    rvs = tuple(RandomVariable(n, ("t", "f")) for n in ("H", "A", "B"))
    return FactorGraph(
        rvs, (Factor("a", ("H", "A"), t), Factor("b", ("H", "B"), t * (1.0 + 1e-13)))
    )


def exact_twin_star() -> FactorGraph:
    """Hub with two leaves whose tables are bit-identical copies."""
    t = np.array([[0.3, 0.7], [0.6, 0.2]])
    rvs = tuple(RandomVariable(n, ("t", "f")) for n in ("H", "A", "B"))
    return FactorGraph(
        rvs, (Factor("a", ("H", "A"), t), Factor("b", ("H", "B"), t.copy()))
    )


def wide_model(arities: dict[str, int]) -> FactorGraph:
    """One factor per name, over binary RVs of its own, every table constant 0.5."""
    rvs, factors = [], []
    for name, arity in arities.items():
        args = tuple(f"{name}{i}" for i in range(arity))
        rvs += [RandomVariable(a, ("t", "f")) for a in args]
        factors.append(Factor(name, args, np.full((2,) * arity, 0.5)))
    return FactorGraph(tuple(rvs), tuple(factors))


def reference_phase3(fg, grouping, eps):
    """The member-by-member mean update that the stacked one replaced."""
    new_tables, deviations = {}, {}
    for gi, group in enumerate(grouping.groups):
        stack = np.stack([aligned_table(fg.factor(m.factor).table, m.align) for m in group])
        if all(t.tobytes() == stack[0].tobytes() for t in stack):
            deviations[gi] = 0.0  # bit-identical tables stay as they are
            continue
        mean = mean_of_tables(stack)
        worst = 0.0
        for member in group:
            original = fg.factor(member.factor).table
            updated = unaligned_table(mean, member.align)
            if not eps_equiv_arrays(original[None], updated[None], eps)[0]:
                raise InvariantError(f"updated table of {member.factor!r} left the eps band")
            worst = max(worst, float(np.max(np.abs(original - updated) / original)))
            new_tables[member.factor] = updated
        deviations[gi] = worst
    return new_tables, deviations


class TestRunEacp:
    def test_sales_end_to_end(self, sales):
        res = run_eacp(sales, 0.1)
        assert group_names(res.grouping) == [["phi1", "phi2"]]
        expected = np.array([[0.775, 0.315], [0.49, 0.21]])
        for name in ("phi1", "phi2"):
            got = res.m_prime.factor(name).table
            assert np.max(np.abs(got - expected)) <= 4 * np.spacing(1.0)
        assert res.n_groups() == 1
        assert res.rv_classes == (("SalA", "SalB"), ("Rev",))
        assert res.pfg.groups() == [range(2)]

    def test_structure_preserved(self, sales):
        res = run_eacp(sales, 0.1)
        assert [f.name for f in res.m_prime.factors] == ["phi1", "phi2"]
        assert res.m_prime.factor("phi2").args == ("SalB", "Rev")
        assert [rv.name for rv in res.m_prime.rvs] == ["SalA", "SalB", "Rev"]

    def test_max_relative_deviation(self, sales):
        res = run_eacp(sales, 0.1)
        assert res.per_group_max_rel_dev[0] == pytest.approx(0.05, abs=1e-12)

    def test_updates_stay_equivalent(self):
        rng = np.random.default_rng(51)
        for _ in range(40):
            fg = random_model(rng, copy_noise=0.08)
            eps = float(rng.uniform(0.01, 0.2))
            res = run_eacp(fg, eps)
            for f in fg.factors:
                new = res.m_prime.factor(f.name).table
                for a, b in zip(f.table.reshape(-1), new.reshape(-1)):
                    assert eps_equiv_arrays(a[None], b[None], eps)[0]
            for gi, dev in res.per_group_max_rel_dev.items():
                assert dev <= eps * (1 + 1e-9)

    def test_eps_zero_never_touches_tables(self):
        rng = np.random.default_rng(52)
        for _ in range(20):
            fg = random_model(rng)
            res = run_eacp(fg, 0.0)
            assert fg_equal(fg, res.m_prime)

    def test_eps_zero_keeps_near_twins_apart(self):
        fg = near_twin_star()
        res = run_eacp(fg, 0.0)
        assert group_names(res.grouping) == [["a"], ["b"]]
        assert fg_equal(fg, res.m_prime)
        for name in ("a", "b"):
            assert res.m_prime.factor(name).table.tobytes() == fg.factor(name).table.tobytes()

    def test_bit_identical_group_keeps_its_bytes(self):
        t = np.array([0.1, 0.2, 0.3])
        # the float mean of three copies is not the copy: (0.1+0.1+0.1)/3 != 0.1
        assert mean_of_tables(np.stack([t, t, t]))[0] != 0.1
        rvs = tuple(RandomVariable(n, ("a", "b", "c")) for n in ("X", "Y", "Z"))
        fg = FactorGraph(rvs, tuple(Factor(n.lower(), (n,), t.copy()) for n in ("X", "Y", "Z")))
        res = run_eacp(fg, 0.1)
        assert group_names(res.grouping) == [["x", "y", "z"]]
        assert res.m_prime is fg
        for name in ("x", "y", "z"):
            assert res.m_prime.factor(name).table.tobytes() == t.tobytes()

    def test_eps_zero_returns_its_input(self, sales):
        assert run_eacp(sales, 0.0).m_prime is sales
        fg = exact_twin_star()
        for eps in (0.0, 0.1):
            res = run_eacp(fg, eps)
            assert group_names(res.grouping) == [["a", "b"]]
            assert res.m_prime is fg
            assert res.per_group_max_rel_dev == {0: 0.0}

    def test_update_names_first_member_outside_band(self):
        rvs = tuple(RandomVariable(n, ("t", "f")) for n in ("A", "B", "C"))
        fg = FactorGraph(rvs, tuple(
            Factor(n.lower(), (n,), np.array([v, 1.0]))
            for n, v in (("A", 1.0), ("B", 1.0), ("C", 1.3))
        ))
        members = tuple(GroupMember(f.name, (0,)) for f in fg.factors)
        with pytest.raises(InvariantError, match="'c' left the eps band"):
            _phase3_update(fg, Grouping((members,)), 0.15)

    def test_update_matches_member_loop(self):
        # phase-1 groups formed at 0.1, updated at 0.1 or at 0.03, which some reject
        rng = np.random.default_rng(54)
        raised = 0
        for _ in range(60):
            fg = random_model(rng, copy_prob=0.8, copy_noise=0.1)
            grouping = phase1_group(fg.factors, 0.1)
            eps = float(rng.choice([0.1, 0.03]))
            try:
                tables, deviations = reference_phase3(fg, grouping, eps)
            except InvariantError as exc:
                raised += 1
                with pytest.raises(InvariantError, match=str(exc)):
                    _phase3_update(fg, grouping, eps)
                continue
            m_prime, got = _phase3_update(fg, grouping, eps)
            assert dict(enumerate(got)) == deviations
            for name, table in tables.items():
                assert m_prime.factor(name).table.tobytes() == table.tobytes()
        assert 0 < raised < 60

    def test_idempotent_on_worked_example(self, sales):
        once = run_eacp(sales, 0.1)
        twice = run_eacp(once.m_prime, 0.1)
        assert fg_equal(once.m_prime, twice.m_prime)
        assert pfg_equal(once.pfg, twice.pfg)

    def test_evidence_blocks_merging(self, sales):
        res = run_eacp(sales, 0.1, Evidence((("SalA", "high"),)))
        assert group_names(res.grouping) == [["phi1"], ["phi2"]]
        # singleton groups leave tables untouched
        assert fg_equal(sales, res.m_prime)

    def test_eps_domain(self, sales):
        with pytest.raises(InvariantError):
            run_eacp(sales, 1.0)
        with pytest.raises(InvariantError):
            run_eacp(sales, -0.01)

    def test_unknown_evidence_rejected(self, sales):
        with pytest.raises(InvariantError):
            run_eacp(sales, 0.1, Evidence((("Nope", "high"),)))

    def test_worst_case_forms_single_group(self):
        for m in (2, 3, 4):
            fg = worst_case_fg(m, 0.1)
            res = run_eacp(fg, 0.1)
            assert res.n_groups() == 1
            assert res.pfg.groups() == [range(m)]


class TestRunAcp:
    def test_sales_exact_baseline(self, sales):
        res = run_eacp(sales, 0.0)
        assert group_names(res.grouping) == [["phi1"], ["phi2"]]
        assert res.m_prime is sales
        assert res.per_group_max_rel_dev == {0: 0.0, 1: 0.0}

    def test_groups_exact_twins(self, sales):
        import liftcomp

        salc = liftcomp.RandomVariable("SalC", ("high", "low"))
        twin_table = sales.factor("phi1").table.copy()
        twin = liftcomp.Factor("twin", ("SalC", "Rev"), twin_table)
        fg = liftcomp.FactorGraph(sales.rvs + (salc,), sales.factors + (twin,))
        res = run_eacp(fg, 0.0)
        assert ["phi1", "twin"] in group_names(res.grouping)

    def test_exact_twins_return_the_input_model(self):
        fg = exact_twin_star()
        res = run_eacp(fg, 0.0)
        assert group_names(res.grouping) == [["a", "b"]]
        assert res.m_prime is fg

    def test_near_twins_are_not_exact_twins(self):
        res = run_eacp(near_twin_star(), 0.0)
        assert group_names(res.grouping) == [["a"], ["b"]]
        assert len(res.pfg.tables) == 2


class TestArityCap:
    # eps = 0 seeds by hashing tables and eps > 0 by the band test; both
    # search permutations through one enumerator, which refuses an arity
    # above ARITY_CAP with one message
    @pytest.mark.parametrize("eps", [0.0, 0.1])
    def test_two_wide_factors_raise(self, eps):
        n = ARITY_CAP + 1
        with pytest.raises(ArityCapError) as refused:
            run_eacp(wide_model({"v": n, "w": n}), eps)
        assert str(refused.value) == f"arity {n} exceeds permutation search cap {ARITY_CAP}"

    @pytest.mark.parametrize("eps", [0.0, 0.1])
    def test_lone_wide_factor_compresses(self, eps):
        res = run_eacp(wide_model({"a": 2, "w": ARITY_CAP + 1, "b": 2}), eps)
        assert group_names(res.grouping) == [["a", "b"], ["w"]]


class TestBaselineAgreement:
    def test_eps_zero_matches_exact_baseline(self):
        # the tolerant pipeline at zero tolerance must reproduce the
        # exact-equality pipeline: same groups, same parfactors, same model
        rng = np.random.default_rng(53)
        for _ in range(40):
            fg = random_model(rng, copy_noise=0.0)
            a = run_eacp(fg, 0.0)
            b = run_acp(fg)
            assert group_names(a.grouping) == group_names(b.grouping)
            assert a.grouping == b.grouping
            assert pfg_equal(a.pfg, b.pfg)
            assert fg_equal(a.m_prime, b.m_prime)

    def test_eps_zero_exact_seeding_keeps_phase1_grouping(self):
        # run_eacp seeds with initial_factor_colours_exact at eps = 0; colour
        # passing seeded by phase 1 at eps = 0, as before, ends in the same
        # groups, alignments and RV classes, with and without evidence
        models = [
            perturb(generate_fg(cfg), cfg)
            for cfg in (
                GenConfig(k=k, x=x, eps=0.1, seed=seed)
                for k in (8, 16, 32) for x in (0.1, 1.0) for seed in (0, 1)
            )
        ]
        rng = np.random.default_rng(54)
        models += [random_model(rng, copy_prob=0.8, copy_noise=0.0) for _ in range(40)]
        for fg in models:
            observed = fg.rvs[-1]
            colours, aligns = phase1_group(fg.factors, 0.0).seeds()
            for evidence in (Evidence(), Evidence(((observed.name, observed.range[0]),))):
                comp = run_eacp(fg, 0.0, evidence)
                cp = colour_pass(fg, colours, evidence, alignments=aligns, eps=0.0)
                assert comp.grouping == cp.grouping
                assert comp.rv_classes == cp.rv_classes
                assert comp.m_prime is fg


class TestStoredOnce:
    def test_one_table_per_group_alignment(self):
        # permuted noisy copies: groups whose modified members come in
        # several alignments
        rng = np.random.default_rng(61)
        shared = several = 0
        for _ in range(40):
            fg = random_model(rng, copy_prob=0.8, copy_noise=0.05)
            comp = run_eacp(fg, 0.1)
            for group in comp.grouping.groups:
                tables: dict = {}
                for m in group:
                    new = comp.m_prime.factor(m.factor).table
                    if new is fg.factor(m.factor).table:
                        continue
                    assert new.flags.c_contiguous and not new.flags.writeable
                    tables.setdefault(m.align, []).append(new)
                for same_align in tables.values():
                    assert all(t is same_align[0] for t in same_align)
                    shared += len(same_align) > 1
                several += len(tables) > 1
        assert shared > 0 and several > 0

    def test_grouping_is_the_colour_pass_grouping(self):
        models = [
            perturb(generate_fg(cfg), cfg)
            for cfg in (
                GenConfig(k=k, x=x, eps=0.1, seed=seed)
                for k in (8, 16, 32) for x in (0.1, 1.0) for seed in (0, 1)
            )
        ]
        rng = np.random.default_rng(62)
        models += [random_model(rng, copy_prob=0.8, copy_noise=0.05) for _ in range(40)]
        permuted = 0
        for fg in models:
            seedings = (
                (run_eacp(fg, 0.1), *phase1_group(fg.factors, 0.1).seeds(), 0.1),
                (run_eacp(fg, 0.0), *initial_factor_colours_exact(fg.factors), 0.0),
            )
            for comp, colours, alignments, eps in seedings:
                cp = colour_pass(fg, colours, Evidence(), alignments=alignments, eps=eps)
                assert comp.grouping == cp.grouping
                assert comp.n_groups() == len(cp.grouping.groups)
                permuted += any(
                    m.align != identity_alignment(len(m.align))
                    for g in comp.grouping.groups for m in g
                )
        assert permuted > 10


def _retained_bytes(fg, eps):
    """Bytes a run_eacp result keeps alive, after one warm-up run."""
    run_eacp(fg, eps)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        comp = run_eacp(fg, eps)  # noqa: F841  alive while measured
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return retained


class TestRetainedMemory:
    # bytes per input factor kept alive by one result, measured at 314
    # (x = 1.0) and 175 (x = 0.1) when the parfactor graph held one object
    # per group and per RV class; the bounds are 20% above. A result that
    # copied each group's mean table into every member kept 466 and 352.
    # With the columnar graph both are about 80.
    @pytest.mark.parametrize("x, bound", [(1.0, 377), (0.1, 210)])
    def test_result_stores_each_fact_once(self, x, bound):
        cfg = GenConfig(k=64, x=x, eps=0.1, seed=0)
        fg = perturb(generate_fg(cfg), cfg)
        assert _retained_bytes(fg, 0.1) / len(fg.factors) <= bound

    def test_columns_share_the_model(self):
        # the star-compress shape: every table perturbed, so nearly every
        # group is a singleton and per-group bookkeeping is what a result
        # keeps; one object per group and per RV class kept about 310 B
        cfg = GenConfig(k=128, x=1.0, eps=0.1, seed=0)
        fg = perturb(generate_fg(cfg), cfg)
        assert _retained_bytes(fg, 0.1) <= 100 * len(fg.factors)
        comp = run_eacp(fg, 0.1)
        pfg, factor = comp.pfg, comp.m_prime.factor
        own_args = own_tables = 0
        for name, args in zip(pfg.members, pfg.member_args):
            f = factor(name)
            assert name is f.name
            assert args is f.args or args != f.args
            own_args += args is f.args
        for group, table, crv in zip(pfg.groups(), pfg.tables, pfg.crvs):
            rep = factor(pfg.members[group.start])
            if crv is None and pfg.member_args[group.start] == rep.args:
                assert table is rep.table
                own_tables += 1
        assert own_args > len(fg.factors) // 2 and own_tables > len(pfg.tables) // 2
