"""Benchmark harness: seeded generation, perturbation, records, CSV export."""

from __future__ import annotations

import csv
import io
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import liftcomp.bench
from liftcomp import (
    CSV_COLUMNS,
    EPS_DOMAIN,
    ExperimentRecord,
    GenConfig,
    InvariantError,
    K_DOMAIN,
    Query,
    QueryOutcome,
    X_DOMAIN,
    bound_tight,
    emit_csv,
    fg_equal,
    generate_fg,
    modified_factor_count,
    perturb,
    prob_envelope,
    query_lifted_star,
    query_ve,
    run_eacp,
    run_experiment,
    run_grid,
    worst_case_fg,
)


class TestGenConfig:
    def test_grid_domains_enforced(self):
        GenConfig(k=2, x=0.5, eps=0.01, seed=0)
        with pytest.raises(InvariantError):
            GenConfig(k=3, x=0.5, eps=0.01, seed=0)
        with pytest.raises(InvariantError):
            GenConfig(k=2, x=0.55, eps=0.01, seed=0)
        with pytest.raises(InvariantError):
            GenConfig(k=2, x=0.5, eps=0.02, seed=0)

    def test_free_mode_relaxes_grid(self):
        GenConfig(k=3, x=0.37, eps=0.0, seed=0, free=True)
        with pytest.raises(InvariantError):
            GenConfig(k=0, x=0.5, eps=0.01, seed=0, free=True)
        with pytest.raises(InvariantError):
            GenConfig(k=2, x=1.5, eps=0.01, seed=0, free=True)
        with pytest.raises(InvariantError):
            GenConfig(k=2, x=0.5, eps=1.0, seed=0, free=True)

    @pytest.mark.parametrize("free", [False, True])
    @pytest.mark.parametrize(
        "field, value",
        [("k", True), ("k", 2.5), ("k", "2"), ("x", True), ("x", "0.5"),
         ("eps", "0.1"), ("eps", True), ("eps", None)],
    )
    def test_field_types_checked(self, free, field, value):
        fields = dict(k=2, x=0.5, eps=0.1, seed=0, free=free)
        GenConfig(**fields)
        fields[field] = value
        with pytest.raises(InvariantError):
            GenConfig(**fields)

    @pytest.mark.parametrize("free", [False, True])
    @pytest.mark.parametrize("x", [10**400, -(10**400), float("nan"), float("inf"), -0.5])
    def test_x_out_of_range_is_a_typed_error(self, free, x):
        with pytest.raises(InvariantError, match=r"x must lie in \[0, 1\]"):
            GenConfig(k=2, x=x, eps=0.1, seed=0, free=free)

    @pytest.mark.parametrize("flag", ["guarantee_pairwise", "free"])
    @pytest.mark.parametrize("value", ["no", 1, [], None])
    def test_flags_must_be_bools(self, flag, value):
        # a truthy non-bool such as "no" would make a free, off-grid cell
        with pytest.raises(InvariantError, match=f"{flag} must be True or False"):
            GenConfig(k=3, x=0.1, eps=0.1, seed=0, **{flag: value})

    @pytest.mark.parametrize("seed", [-1, 1.5, True, "3", None])
    def test_seed_checked(self, seed):
        with pytest.raises(InvariantError, match="seed"):
            GenConfig(k=2, x=0.5, eps=0.1, seed=seed)

    def test_domains_exported(self):
        assert 16 in K_DOMAIN
        assert 0.3 in X_DOMAIN
        assert 0.001 in EPS_DOMAIN


# each call runs in a child under a 512 MiB address-space limit: a size
# that is not refused ends there in a MemoryError, not on the machine
_HUGE_SIZES = [
    "worst_case_fg(10**400, 0.1)",
    "worst_case_fg(2**40, 0.1)",
    "generate_fg(GenConfig(k=10**400, x=0.5, eps=0.1, seed=0, free=True))",
    "generate_fg(GenConfig(k=2**40, x=0.5, eps=0.1, seed=0, free=True))",
]


@pytest.mark.parametrize("call", _HUGE_SIZES)
def test_huge_size_refused_before_allocation(call):
    code = (
        "import resource\n"
        "resource.setrlimit(resource.RLIMIT_AS, (2**29, 2**29))\n"
        "from liftcomp import GenConfig, LiftcompError, generate_fg, worst_case_fg\n"
        "try:\n"
        f"    {call}\n"
        "except LiftcompError as exc:\n"
        "    print(type(exc).__name__, exc)\n"
    )
    src = str(Path(liftcomp.__file__).resolve().parent.parent)
    paths = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    child = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(paths), "OPENBLAS_NUM_THREADS": "1"},
    )
    assert child.stdout.startswith("InvariantError"), child.stderr
    assert "needs more than 4194304 table entries" in child.stdout


def test_largest_sizes_pass_the_guard():
    # the cap is 2**22 entries: 2 * 1448**2 fits and 2 * 1449**2 does not;
    # k = 61680 chains of up to 17 factors, 4 entries each, fit and one
    # chain more does not (only the config is built here)
    with pytest.raises(InvariantError, match="worst_case_fg at this m needs more than"):
        worst_case_fg(1449, 0.1)
    GenConfig(k=61680, x=0.5, eps=0.1, seed=0, free=True)
    with pytest.raises(InvariantError, match="a star of this k needs more than"):
        GenConfig(k=61681, x=0.5, eps=0.1, seed=0, free=True)


class TestGenerate:
    def test_deterministic(self):
        cfg = GenConfig(k=4, x=0.5, eps=0.01, seed=7)
        assert fg_equal(generate_fg(cfg), generate_fg(cfg))

    def test_star_shape(self):
        cfg = GenConfig(k=8, x=0.5, eps=0.01, seed=3)
        fg = generate_fg(cfg)
        n_factors = len(fg.factors)
        assert n_factors % 8 == 0
        depth = n_factors // 8
        assert 2 <= depth <= 2 + int(math.log2(8))
        assert len(fg.rvs) == 1 + 8 * depth
        assert fg.has_rv("Hub")
        # chains are copies of one another
        f_att = {f.name: f for f in fg.factors if f.name.startswith("att")}
        assert len(f_att) == 8
        base = f_att["att1"].table
        assert all(np.array_equal(f.table, base) for f in f_att.values())

    def test_chains_share_base_tables(self):
        # one read-only array per chain position, shared by every chain
        fg = generate_fg(GenConfig(k=64, x=0.1, eps=0.1, seed=0))
        tables = {id(f.table): f.table for f in fg.factors}
        assert len(tables) == len(fg.factors) // 64 == 7
        assert not any(t.flags.writeable for t in tables.values())

    def test_seed_changes_model(self):
        a = generate_fg(GenConfig(k=4, x=0.5, eps=0.01, seed=1))
        b = generate_fg(GenConfig(k=4, x=0.5, eps=0.01, seed=2))
        same_shape = len(a.factors) == len(b.factors)
        assert not (same_shape and fg_equal(a, b))


class TestPerturb:
    def test_hits_exact_count(self):
        cfg = GenConfig(k=4, x=0.3, eps=0.1, seed=5)
        fg = generate_fg(cfg)
        out = perturb(fg, cfg)
        changed = sum(
            0 if np.array_equal(f.table, g.table) else 1
            for f, g in zip(fg.factors, out.factors)
        )
        assert changed == math.ceil(0.3 * len(fg.factors))

    def test_band_respected(self):
        cfg = GenConfig(k=8, x=1.0, eps=0.1, seed=6)
        fg = generate_fg(cfg)
        out = perturb(fg, cfg)
        for f, g in zip(fg.factors, out.factors):
            ratio = g.table / f.table
            assert np.all(ratio >= 1 - 0.1) and np.all(ratio <= 1 + 0.1)

    def test_pairwise_mode_halves_band(self):
        cfg = GenConfig(k=8, x=1.0, eps=0.1, seed=6, guarantee_pairwise=True)
        fg = generate_fg(cfg)
        out = perturb(fg, cfg)
        for f, g in zip(fg.factors, out.factors):
            ratio = g.table / f.table
            assert np.all(ratio >= 1 - 0.05) and np.all(ratio <= 1 + 0.05)

    def test_eps_zero_bit_exact(self):
        cfg = GenConfig(k=2, x=1.0, eps=0.0, seed=9, free=True)
        fg = generate_fg(cfg)
        assert fg_equal(fg, perturb(fg, cfg))

    def test_deterministic(self):
        cfg = GenConfig(k=4, x=0.6, eps=0.1, seed=11)
        fg = generate_fg(cfg)
        assert fg_equal(perturb(fg, cfg), perturb(fg, cfg))


class TestRunExperiment:
    def test_record_contents(self):
        cfg = GenConfig(k=4, x=0.5, eps=0.01, seed=13)
        rec = run_experiment(cfg, n_queries=3)
        assert rec.config == cfg
        assert rec.n_factors >= rec.n_groups >= 1
        assert rec.compression_ratio == rec.n_groups / rec.n_factors
        assert len(rec.queries) == 3
        for q in rec.queries:
            assert q.quotient == pytest.approx(q.p_compressed / q.p_ground, rel=1e-12)
        assert rec.t_eacp > 0 and rec.t_acp > 0 and rec.t_ground_query > 0

    def test_deterministic_modulo_timing(self):
        cfg = GenConfig(k=2, x=0.5, eps=0.1, seed=17)
        a = run_experiment(cfg, n_queries=4)
        b = run_experiment(cfg, n_queries=4)
        assert a.queries == b.queries
        assert a.n_groups == b.n_groups
        assert a.d_exact == b.d_exact
        assert a.bound_tight == b.bound_tight

    def test_unperturbed_quotients_are_one(self):
        cfg = GenConfig(k=4, x=1.0, eps=0.0, seed=19, free=True)
        rec = run_experiment(cfg, n_queries=5)
        assert all(q.quotient == 1.0 for q in rec.queries)
        assert rec.bound_tight == 0.0
        assert rec.d_exact == 0.0

    def test_exact_distance_within_certificate(self):
        for seed in range(4):
            cfg = GenConfig(k=2, x=0.5, eps=0.1, seed=seed, guarantee_pairwise=True)
            rec = run_experiment(cfg, n_queries=2)
            if rec.d_exact is not None and rec.bound_tight > 0.0:
                assert rec.d_exact <= rec.bound_tight + 1e-9

    def test_saturated_hub_marginal(self):
        # P(Hub=false) rounds to 1.0 here; the run answers every query and
        # times the lifted hub query
        rec = run_experiment(GenConfig(k=128, x=0.1, eps=0.1, seed=0), skip_exact=True)
        assert len(rec.queries) == 5
        assert isinstance(rec.t_lifted_query, float) and rec.t_lifted_query > 0.0

    @pytest.mark.parametrize(
        "ground, lifted, alpha",
        [
            pytest.param((0.5,) * 5, (0.25,) * 5, 8.0, id="0.5-0.25-8.0"),
            pytest.param((0.25,) * 5, (0.5,) * 5, None, id="0.25-0.5-None"),
            pytest.param((0.5,) * 5, (0.5,) * 5, None, id="0.5-0.5-None"),
            # read alone, the slow first ground reading would fill the cell
            pytest.param(
                (4.5, 0.25, 0.25, 0.25, 0.25), (0.5,) * 5, None, id="slow-first-ground-reading"
            ),
            # the fastest lifted reading beats the fastest ground one by 2.7%,
            # but the readings overlap, so the cell stays blank
            pytest.param(
                (0.795, 0.8, 0.81, 0.82, 0.83), (0.774, 0.79, 0.82, 0.86, 0.9), None,
                id="overlapping-readings",
            ),
        ],
    )
    def test_alpha_substitute(self, monkeypatch, ground, lifted, alpha):
        # the clock reads eacp 3 s, acp 1 s, then five readings of each hub
        # query, each from 0 so that it is exact; each query takes its
        # fastest reading, and alpha is (t_eacp - t_acp) / (t_ground -
        # t_lifted) when every lifted reading is faster than the fastest
        # ground one, and blank otherwise
        ticks = [0.0, 3.0, 10.0, 11.0]
        for seconds in ground + lifted:
            ticks += [0.0, seconds]
        readings = iter(ticks)
        clock = SimpleNamespace(perf_counter=readings.__next__)
        monkeypatch.setattr(liftcomp.bench, "time", clock)
        cfg = GenConfig(k=2, x=0.5, eps=0.1, seed=17)
        rec = run_experiment(cfg, n_queries=0, skip_exact=True)
        assert next(readings, None) is None
        assert (rec.t_eacp, rec.t_acp) == (3.0, 1.0)
        assert (rec.t_ground_query, rec.t_lifted_query) == (min(ground), min(lifted))
        assert rec.alpha_substitute == alpha
        (row,) = csv.DictReader(io.StringIO(emit_csv([rec]).decode("utf-8")))
        assert row["alpha_substitute"] == ("" if alpha is None else repr(alpha))

    def test_skip_exact(self):
        cfg = GenConfig(k=2, x=0.5, eps=0.1, seed=17)
        rec = run_experiment(cfg, n_queries=1, skip_exact=True)
        assert rec.d_exact is None

    def test_state_cap_skips_exact(self, monkeypatch):
        monkeypatch.setenv("LIFTCOMP_ENUM_CAP", "4")
        cfg = GenConfig(k=2, x=0.5, eps=0.1, seed=17)
        rec = run_experiment(cfg, n_queries=1)
        assert rec.d_exact is None

    def test_bound_counts_modified_factors(self):
        cfg = GenConfig(k=2, x=0.5, eps=0.1, seed=23)
        rec = run_experiment(cfg, n_queries=1)
        base = perturb(generate_fg(cfg), cfg)
        from liftcomp import run_eacp

        comp = run_eacp(base, cfg.eps)
        n_modified = sum(
            0 if np.array_equal(f.table, g.table) else 1
            for f, g in zip(base.factors, comp.m_prime.factors)
        )
        expected = bound_tight(n_modified, cfg.eps) if n_modified else 0.0
        assert rec.bound_tight == expected


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    k=st.sampled_from(K_DOMAIN),
    x=st.sampled_from(X_DOMAIN),
    eps=st.sampled_from(EPS_DOMAIN),
    seed=st.integers(0, 2**31 - 1),
)
def test_declared_domain(k, x, eps, seed):
    # run_experiment's library calls, skip_exact, on any cell and seed the
    # package declares. The declared domain holds no input that a typed
    # error is meant to refuse, so every call must answer, and any
    # exception, a LiftcompError included, fails the example.
    cfg = GenConfig(k=k, x=x, eps=eps, seed=seed)
    m = perturb(generate_fg(cfg), cfg)
    comp = run_eacp(m, eps)
    assert fg_equal(run_eacp(m, 0.0).m_prime, m)
    d = bound_tight(modified_factor_count(m, comp.m_prime), eps)
    lo, hi = math.exp(-d) - 1e-9, math.exp(d) + 1e-9
    for q in liftcomp.bench._sample_queries(m, cfg, 5):
        p = query_ve(m, q).distribution[q.value]
        assert lo <= query_ve(comp.m_prime, q).distribution[q.value] / p <= hi
    hub = Query(liftcomp.bench.HUB)
    ground = query_ve(m, hub).distribution
    compressed = query_ve(comp.m_prime, hub).distribution
    lifted = query_lifted_star(comp.pfg, hub.target, hub).distribution
    for label, p in ground.items():
        assert lo <= compressed[label] / p <= hi
        # the caller's view: the ground answer lies in the compressed one's envelope
        below, above = prob_envelope(compressed[label], d)
        assert below - 1e-9 <= p <= above + 1e-9
        assert abs(lifted[label] - compressed[label]) <= 1e-10


class TestGridAndCsv:
    def test_grid_sequential(self):
        configs = [GenConfig(k=2, x=0.5, eps=0.1, seed=s) for s in (0, 1)]
        records = run_grid(configs, n_queries=2)
        assert [r.config.seed for r in records] == [0, 1]

    def test_grid_parallel_matches_sequential(self):
        configs = [GenConfig(k=2, x=0.5, eps=0.1, seed=s) for s in (0, 1, 2)]
        seq = run_grid(configs, n_queries=2)
        par = run_grid(configs, n_queries=2, jobs=2)
        for a, b in zip(seq, par):
            assert a.queries == b.queries
            assert a.n_groups == b.n_groups

    @pytest.mark.parametrize("jobs", [0, -2, 1.5, True])
    def test_grid_rejects_bad_job_count(self, jobs):
        with pytest.raises(InvariantError, match="job count"):
            run_grid([GenConfig(k=2, x=0.5, eps=0.1, seed=0)], n_queries=1, jobs=jobs)

    @pytest.mark.parametrize("n_queries", [-3, -1, 1.5, 2.0, True, "2"])
    def test_rejects_bad_query_count(self, n_queries):
        cfg = GenConfig(k=2, x=0.5, eps=0.1, seed=0)
        with pytest.raises(InvariantError, match="query count"):
            run_grid([cfg], n_queries=n_queries)
        with pytest.raises(InvariantError, match="query count"):
            run_experiment(cfg, n_queries=n_queries)

    def test_grid_with_no_queries(self):
        configs = [GenConfig(k=2, x=0.5, eps=0.1, seed=0)]
        records = run_grid(configs, n_queries=0, skip_exact=True, jobs=1)
        assert records[0].queries == ()

    def test_csv_header_only_for_empty(self):
        data = emit_csv([])
        assert data.decode("utf-8") == ",".join(CSV_COLUMNS) + "\n"

    def test_csv_round_trip(self):
        configs = [GenConfig(k=2, x=0.5, eps=0.1, seed=s) for s in (0, 1)]
        records = run_grid(configs, n_queries=3)
        rows = list(csv.DictReader(io.StringIO(emit_csv(records).decode("utf-8"))))
        assert len(rows) == 6
        assert set(rows[0].keys()) == set(CSV_COLUMNS)
        first = rows[0]
        assert first["k"] == "2"
        assert float(first["quotient"]) == pytest.approx(
            records[0].queries[0].quotient, rel=1e-15
        )
        assert first["guarantee_pairwise"] == "false"

    def test_csv_bytes_of_hand_built_records(self):
        # a record with a query and one without, whose query cells are blank
        query = QueryOutcome(0, "Hub", "true", (("B1_1", "false"), ("B2_1", "true")),
                             0.25, 0.3, 1.2)
        rec = ExperimentRecord(GenConfig(k=2, x=0.5, eps=0.1, seed=7), 5, 4, 2, 0.5, (query,),
                               None, 0.125, 1.5, 0.5, 0.25, 0.125, 2.0)
        bare = replace(rec, queries=(), d_exact=0.0625, alpha_substitute=None)
        assert emit_csv([rec, bare]) == (
            ",".join(CSV_COLUMNS).encode() + b"\n"
            b"2,0.5,0.1,7,false,5,4,2,0.5,0,Hub,true,B1_1=false;B2_1=true,0.25,0.3,1.2,"
            b",0.125,1.5,0.5,0.25,0.125,2.0\n"
            b"2,0.5,0.1,7,false,5,4,2,0.5,,,,,,,,0.0625,0.125,1.5,0.5,0.25,0.125,\n"
        )

    def test_csv_blank_for_none(self):
        configs = [GenConfig(k=2, x=0.5, eps=0.1, seed=0)]
        records = run_grid(configs, n_queries=1, skip_exact=True)
        rows = list(csv.DictReader(io.StringIO(emit_csv(records).decode("utf-8"))))
        assert rows[0]["d_exact"] == ""

    def test_columns_match_schema_doc(self):
        import pathlib
        import re

        doc = pathlib.Path(__file__).resolve().parent.parent / "docs" / "schema.md"
        doc_cols = re.findall(r"^\| `([a-z_]+)`", doc.read_text(), re.M)
        assert tuple(doc_cols) == CSV_COLUMNS
