"""Acceptance criteria for the compression toolkit, one test per criterion.

Each test prints a single PASS/FAIL line (visible under pytest -s) and
enforces the stated numeric tolerances and runtime budgets. Tolerances
are part of the contract; do not loosen them here.
"""

from __future__ import annotations

import math
import statistics
import time
from contextlib import contextmanager

import numpy as np

from liftcomp import (
    EPS_DOMAIN,
    Evidence,
    GenConfig,
    Query,
    X_DOMAIN,
    bound_general,
    bound_tight,
    distance_exact,
    eps_equiv_factors,
    fg_equal,
    ground,
    pfg_equal,
    query_enumerate,
    query_lifted_star,
    query_ve,
    replace_tables,
    run_eacp,
    run_grid,
    worst_case_fg,
)
from liftcomp.equivalence import eps_equiv_arrays
from liftcomp.grouping import mean_of_tables

from conftest import (
    counting_model,
    exact_pipeline,
    phi3,
    random_model,
    sales_model,
    sales_model_three,
    star_model,
)


@contextmanager
def criterion(n: int, desc: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {n}: FAIL - {desc}")
        raise
    print(f"ACCEPTANCE {n}: PASS - {desc}")


def test_01_worked_example_end_to_end():
    with criterion(1, "worked example compresses to one group with the mean table in under 1s"):
        fg = sales_model()
        t0 = time.perf_counter()
        res = run_eacp(fg, 0.1)
        elapsed = time.perf_counter() - t0
        assert [[m.factor for m in g] for g in res.grouping.groups] == [["phi1", "phi2"]]
        expected = np.array([[0.775, 0.315], [0.49, 0.21]])
        for name in ("phi1", "phi2"):
            got = res.m_prime.factor(name).table
            assert np.max(np.abs(got - expected)) <= 4 * np.spacing(1.0)
        assert elapsed < 1.0


def test_02_conditional_query_pair():
    with criterion(2, "conditional query shifts 0.6098 -> 0.6126 within 5e-4"):
        fg = sales_model()
        q = Query("SalA", Evidence((("Rev", "high"),)))
        p = query_ve(fg, q)["high"]
        assert abs(p - 0.6098) <= 5e-4
        m_prime = run_eacp(fg, 0.1).m_prime
        p_prime = query_ve(m_prime, q)["high"]
        assert abs(p_prime - 0.6126) <= 5e-4


def test_03_pairwise_tolerance_is_not_transitive():
    with criterion(3, "phi1~phi2 and phi2~phi3 but phi1!~phi3 at eps=0.1"):
        fg = sales_model_three()
        f1 = fg.factor("phi1")
        f2 = fg.factor("phi2")
        f3 = fg.factor("phi3")
        assert eps_equiv_factors(f1, f2, 0.1) is not None
        assert eps_equiv_factors(f2, f3, 0.1) is not None
        assert eps_equiv_factors(f1, f3, 0.1) is None


def test_04_adversarial_model_attains_tight_bound():
    with criterion(4, "adversarial models attain the tight bound within 1e-9, each under 5s"):
        for m in (2, 3, 4):
            for eps in (0.01, 0.1):
                t0 = time.perf_counter()
                fg = worst_case_fg(m, eps)
                res = run_eacp(fg, eps)
                d = distance_exact(fg, res.m_prime).d_exact
                elapsed = time.perf_counter() - t0
                assert abs(d - bound_tight(m, eps)) <= 1e-9, (m, eps, d)
                assert elapsed < 5.0, (m, eps, elapsed)


def test_05_distance_never_exceeds_certificates():
    with criterion(5, "random-model distances stay under the certificates, under 60s"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(1005)

        # compression output against the tight certificate
        for _ in range(500):
            fg = random_model(rng, copy_noise=0.1)
            eps = float(rng.uniform(0.001, 0.2))
            res = run_eacp(fg, eps)
            n_modified = sum(
                0 if np.array_equal(f.table, g.table) else 1
                for f, g in zip(fg.factors, res.m_prime.factors)
            )
            d = distance_exact(fg, res.m_prime).d_exact
            cert = bound_tight(n_modified, eps) if n_modified else 0.0
            assert d <= cert + 1e-9, (eps, n_modified, d, cert)

        # arbitrary entrywise rescaling against the general certificate
        for _ in range(500):
            fg = random_model(rng)
            eps = float(rng.uniform(0.001, 0.2))
            n_hit = int(rng.integers(1, len(fg.factors) + 1))
            hit = rng.choice(len(fg.factors), size=n_hit, replace=False)
            tables = {}
            for idx in hit:
                f = fg.factors[int(idx)]
                tables[f.name] = f.table * rng.uniform(
                    1.0 - eps, 1.0 + eps, size=f.table.shape
                )
            other = replace_tables(fg, tables)
            n_modified = sum(
                0 if np.array_equal(f.table, g.table) else 1
                for f, g in zip(fg.factors, other.factors)
            )
            d = distance_exact(fg, other).d_exact
            cert = bound_general(n_modified, eps) if n_modified else 0.0
            assert d <= cert + 1e-9, (eps, n_modified, d, cert)

        assert time.perf_counter() - t0 < 60.0


def test_06_zero_tolerance_reduces_to_exact_pipeline():
    with criterion(6, "eps=0 run is bit-identical to the exact-equality pipeline on 200 models"):
        rng = np.random.default_rng(1006)
        for _ in range(200):
            fg = random_model(rng, copy_noise=0.0)
            a = run_eacp(fg, 0.0)
            b = exact_pipeline(fg)
            assert a.grouping == b.grouping
            assert pfg_equal(a.pfg, b.pfg)
            assert fg_equal(a.m_prime, b.m_prime)


def test_07_mean_table_properties():
    with criterion(7, "group means stay in tolerance, pairs obey the ratio cap, mean minimises squared loss"):
        rng = np.random.default_rng(1007)

        # the mean of a mutually tolerant group stays tolerant to each member
        for _ in range(200):
            eps = float(rng.uniform(0.01, 0.3))
            shape = tuple(2 for _ in range(int(rng.integers(1, 4))))
            base = rng.uniform(0.1, 1.0, size=shape)
            size = int(rng.integers(2, 7))
            tables = [base * rng.uniform(1.0, 1.0 + eps, size=shape) for _ in range(size)]
            mean = mean_of_tables(np.stack(tables))
            for t in tables:
                assert eps_equiv_arrays(mean[None], t[None], eps)[0]

        # tolerant scalar pairs are exactly the pairs with ratio <= 1+eps
        for _ in range(500):
            eps = float(rng.uniform(0.01, 0.5))
            a = float(rng.uniform(0.1, 10.0))
            r = float(rng.uniform(1.0, 1.0 + 2 * eps))
            b = a * r
            equivalent = eps_equiv_arrays(np.array([a]), np.array([b]), eps)[0]
            if equivalent:
                assert max(a, b) / min(a, b) <= (1 + eps) * (1 + 1e-9)
            else:
                assert max(a, b) / min(a, b) > (1 + eps) * (1 - 1e-9)

        # the mean minimises the summed squared deviation over all members
        for _ in range(200):
            shape = tuple(2 for _ in range(int(rng.integers(1, 4))))
            size = int(rng.integers(2, 7))
            tables = [rng.uniform(0.1, 1.0, size=shape) for _ in range(size)]
            mean = mean_of_tables(np.stack(tables))
            loss_mean = sum(float(np.sum((t - mean) ** 2)) for t in tables)
            direction = rng.normal(size=shape)
            for t_step in np.linspace(-0.5, 0.5, 101):
                if t_step == 0.0:
                    continue
                candidate = mean + t_step * direction
                loss = sum(float(np.sum((t - candidate) ** 2)) for t in tables)
                assert loss_mean < loss


def test_08_evaluators_agree_with_the_oracle():
    with criterion(8, "elimination matches enumeration and the lifted evaluator matches ground elimination"):
        rng = np.random.default_rng(1008)
        for _ in range(200):
            fg = random_model(rng)
            names = [rv.name for rv in fg.rvs]
            target = names[int(rng.integers(len(names)))]
            ev = Evidence()
            if len(names) > 1 and rng.random() < 0.5:
                other = [n for n in names if n != target]
                pick = other[int(rng.integers(len(other)))]
                ev = Evidence(((pick, ("t", "f")[int(rng.integers(2))]),))
            q = Query(target, ev)
            a = query_ve(fg, q)
            b = query_enumerate(fg, q)
            assert all(abs(a[k] - b[k]) <= 1e-10 for k in a.distribution)

        for i in range(50):
            k = (2, 4, 8)[i % 3]
            fg = star_model(k, depth=2 + (i % 2), seed=i)
            pfg = run_eacp(fg, 0.0).pfg
            q = Query("Hub")
            lifted = query_lifted_star(pfg, "Hub", q)
            ve = query_ve(ground(pfg), q)
            assert all(abs(lifted[key] - ve[key]) <= 1e-10 for key in lifted.distribution)


def test_09_benchmark_quotients_and_lifted_scaling():
    with criterion(9, "benchmark quotients stay in the certified band and lifted work is flat in k"):
        t0 = time.perf_counter()
        configs = [
            GenConfig(k=k, x=x, eps=eps, seed=0)
            for k in (2, 4, 8, 16)
            for x in X_DOMAIN
            for eps in EPS_DOMAIN
        ]
        records = run_grid(configs, n_queries=10, skip_exact=True)
        assert len(records) == 4 * len(X_DOMAIN) * len(EPS_DOMAIN)
        for rec in records:
            lo = math.exp(-rec.bound_tight) - 1e-9
            hi = math.exp(rec.bound_tight) + 1e-9
            for q in rec.queries:
                assert lo <= q.quotient <= hi, (rec.config, q)
        small_eps = [
            q.quotient
            for rec in records
            if rec.config.eps == 0.001
            for q in rec.queries
        ]
        assert 0.999 <= statistics.median(small_eps) <= 1.001
        assert time.perf_counter() - t0 < 600.0

        lifted_ops = []
        ve_ops = []
        for k in (2, 4, 8, 16):
            fg = star_model(k, depth=3)
            comp = run_eacp(fg, 0.0)
            lifted_ops.append(query_lifted_star(comp.pfg, "Hub", Query("Hub")).ops)
            ve_ops.append(query_ve(fg, Query("Hub")).ops)
        assert len(set(lifted_ops)) == 1, lifted_ops
        assert all(a < b for a, b in zip(ve_ops, ve_ops[1:])), ve_ops


def test_10_histogram_compaction_round_trip():
    with criterion(10, "symmetric factor compacts to the 6-row histogram and grounds back exactly"):
        fg = counting_model()
        res = run_eacp(fg, 0.0)
        crv, table = res.pfg.crvs[0], res.pfg.tables[0]
        assert crv is not None
        assert crv.positions == (1, 2)
        assert crv.histograms == ((2, 0), (1, 1), (0, 2))
        assert table.shape == (2, 3)
        assert table.size == 6
        assert np.array_equal(table, np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]))
        restored = ground(res.pfg)
        assert distance_exact(fg, restored).d_exact <= 1e-12
