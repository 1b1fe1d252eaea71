"""Experiment harness: seeded model generation, perturbation, measurement.

Models are stars: one Boolean hub with k structurally identical chains
hanging off it. All chains share the same base tables, so an unperturbed
model compresses to one parfactor per chain position regardless of k;
the x knob then re-randomises a fraction of factor tables entrywise
within (1 +/- eps), which is what the tolerance is meant to absorb.

Every random draw comes from a seeded generator keyed off (seed, stream)
so generation, perturbation, and query sampling are independently
reproducible. Records are deterministic apart from wall-clock fields.
"""

from __future__ import annotations

import csv
import io
import math
import time
from dataclasses import dataclass
from functools import partial
from typing import Callable, TypeVar

import numpy as np

from .bounds import bound_tight, distance_exact, modified_factor_count
from .eacp import run_eacp
from .equivalence import check_count, check_epsilon, check_positive_int, check_real
from .errors import EnumerationCapError, InvariantError
from .inference import Query, query_lifted_star, query_ve
from .model import (
    Evidence, Factor, FactorGraph, RandomVariable, check_build_size, replace_tables,
)

__all__ = [
    "K_DOMAIN",
    "X_DOMAIN",
    "EPS_DOMAIN",
    "GenConfig",
    "QueryOutcome",
    "ExperimentRecord",
    "generate_fg",
    "perturb",
    "run_experiment",
    "run_grid",
    "emit_csv",
    "CSV_COLUMNS",
]

K_DOMAIN = (2, 4, 8, 16, 32, 64, 128)
X_DOMAIN = tuple(round(0.1 * i, 1) for i in range(1, 11))
EPS_DOMAIN = (0.001, 0.01, 0.1)

HUB = "Hub"
BOOL = ("true", "false")

# each hub query is timed this many times; alpha_substitute is filled only
# when the readings do not overlap, so that no one reading decides it
_HUB_READINGS = 5


@dataclass(frozen=True)
class GenConfig:
    """Grid cell for one generated model."""

    k: int
    x: float
    eps: float
    seed: int
    guarantee_pairwise: bool = False
    free: bool = False

    def __post_init__(self) -> None:
        k = check_positive_int(self.k, "k")
        check_count(self.seed, "seed")
        x = check_real(self.x, "x", 1.0, closed=True)
        check_epsilon(self.eps)
        for flag in ("guarantee_pairwise", "free"):
            if type(getattr(self, flag)) is not bool:
                raise InvariantError(f"{flag} must be True or False, got {getattr(self, flag)!r}")
        # k chains of up to 2 + floor(log2 k) = k.bit_length() + 1 factors of 4 entries
        check_build_size(4 * k * (k.bit_length() + 1), "a star of this k")
        if self.free:
            return
        if self.k not in K_DOMAIN:
            raise InvariantError(f"k={self.k!r} outside grid {K_DOMAIN}")
        if not any(abs(x - grid_x) < 1e-9 for grid_x in X_DOMAIN):
            raise InvariantError(f"x={self.x!r} outside grid {X_DOMAIN}")
        if self.eps not in EPS_DOMAIN:
            raise InvariantError(f"eps={self.eps!r} outside grid {EPS_DOMAIN}")


def generate_fg(cfg: GenConfig) -> FactorGraph:
    """Star of k identical chains; chain length is seed-dependent, 2..2+log2(k)."""
    rng = np.random.default_rng([cfg.seed, 0])
    depth = 2 + int(rng.integers(0, int(math.floor(math.log2(cfg.k))) + 1))
    base = [rng.uniform(0.1, 1.0, size=(2, 2)) for _ in range(depth)]
    for table in base:
        table.flags.writeable = False  # frozen, so every chain's Factor shares it
    rvs = [RandomVariable(HUB, BOOL)]
    factors = []
    for i in range(1, cfg.k + 1):
        chain = [f"B{i}_{j}" for j in range(1, depth + 1)]
        rvs.extend(RandomVariable(name, BOOL) for name in chain)
        factors.append(Factor(f"att{i}", (HUB, chain[0]), base[0]))
        for j in range(depth - 1):
            factors.append(
                Factor(f"ch{i}_{j + 1}", (chain[j], chain[j + 1]), base[j + 1])
            )
    return FactorGraph(tuple(rvs), tuple(factors))


def perturb(fg: FactorGraph, cfg: GenConfig) -> FactorGraph:
    """Rescale ceil(x * |factors|) tables entrywise by U[1-eps, 1+eps].

    With guarantee_pairwise the noise band is halved to U[1-eps/2, 1+eps/2],
    which keeps typical perturbed pairs within mutual eps-equivalence.
    """
    rng = np.random.default_rng([cfg.seed, 1])
    n = len(fg.factors)
    n_hit = math.ceil(cfg.x * n)
    hit = set(rng.choice(n, size=n_hit, replace=False).tolist())
    half = 0.5 if cfg.guarantee_pairwise else 1.0
    lo, hi = 1.0 - cfg.eps * half, 1.0 + cfg.eps * half
    tables = {}
    for idx in sorted(hit):
        f = fg.factors[idx]
        tables[f.name] = f.table * rng.uniform(lo, hi, size=f.table.shape)
    return replace_tables(fg, tables)


@dataclass(frozen=True)
class QueryOutcome:
    index: int
    target: str
    value: str
    evidence: tuple[tuple[str, str], ...]
    p_ground: float
    p_compressed: float
    quotient: float


@dataclass(frozen=True, eq=False)
class ExperimentRecord:
    config: GenConfig
    n_rvs: int
    n_factors: int
    n_groups: int
    compression_ratio: float
    queries: tuple[QueryOutcome, ...]
    d_exact: float | None
    bound_tight: float
    t_eacp: float
    t_acp: float
    t_ground_query: float
    t_lifted_query: float
    alpha_substitute: float | None


def _sample_queries(
    fg: FactorGraph, cfg: GenConfig, n_queries: int
) -> list[Query]:
    rng = np.random.default_rng([cfg.seed, 2])
    names = [rv.name for rv in fg.rvs]
    queries = []
    for _ in range(n_queries):
        target = names[int(rng.integers(len(names)))]
        labels = fg.rv(target).range
        value = labels[int(rng.integers(len(labels)))]
        evidence = Evidence()
        if rng.random() < 0.5 and len(names) > 1:
            other = target
            while other == target:
                other = names[int(rng.integers(len(names)))]
            olabels = fg.rv(other).range
            evidence = Evidence(((other, olabels[int(rng.integers(len(olabels)))]),))
        queries.append(Query(target, evidence, value))
    return queries


_T = TypeVar("_T")


def _seconds(call: Callable[..., _T], *args: object) -> tuple[_T, float]:
    """The call's result and the seconds it took."""
    t0 = time.perf_counter()
    result = call(*args)
    return result, time.perf_counter() - t0


def run_experiment(
    cfg: GenConfig,
    n_queries: int = 5,
    skip_exact: bool = False,
) -> ExperimentRecord:
    n_queries = check_count(n_queries, "query count")
    base = generate_fg(cfg)
    m = perturb(base, cfg)

    comp, t_eacp = _seconds(run_eacp, m, cfg.eps)
    _, t_acp = _seconds(run_eacp, m, 0.0)   # the exact-equality ACP baseline

    n_factors = len(m.factors)
    n_groups = comp.n_groups()

    outcomes = []
    for qi, q in enumerate(_sample_queries(m, cfg, n_queries)):
        p = query_ve(m, q).distribution[q.value]
        p_prime = query_ve(comp.m_prime, q).distribution[q.value]
        outcomes.append(
            QueryOutcome(
                index=qi,
                target=q.target,
                value=q.value,
                evidence=q.evidence.items,
                p_ground=p,
                p_compressed=p_prime,
                quotient=p_prime / p,
            )
        )

    d_exact = None
    if not skip_exact:
        try:
            d_exact = distance_exact(m, comp.m_prime).d_exact
        except EnumerationCapError:
            pass  # above the cap: d_exact stays blank

    q_hub = Query(HUB)
    ground = [_seconds(query_ve, m, q_hub)[1] for _ in range(_HUB_READINGS)]
    lifted = [_seconds(query_lifted_star, comp.pfg, HUB, q_hub)[1] for _ in range(_HUB_READINGS)]
    t_ground, t_lifted = min(ground), min(lifted)

    alpha: float | None = None
    if max(lifted) < t_ground:
        alpha = (t_eacp - t_acp) / (t_ground - t_lifted)

    return ExperimentRecord(
        config=cfg,
        n_rvs=len(m.rvs),
        n_factors=n_factors,
        n_groups=n_groups,
        compression_ratio=n_groups / n_factors,
        queries=tuple(outcomes),
        d_exact=d_exact,
        bound_tight=bound_tight(modified_factor_count(m, comp.m_prime), cfg.eps),
        t_eacp=t_eacp,
        t_acp=t_acp,
        t_ground_query=t_ground,
        t_lifted_query=t_lifted,
        alpha_substitute=alpha,
    )


def run_grid(
    configs: list[GenConfig],
    n_queries: int = 5,
    skip_exact: bool = False,
    jobs: int = 1,
) -> list[ExperimentRecord]:
    """One record per config; jobs > 1 runs them in that many worker processes."""
    n_queries = check_count(n_queries, "query count")
    jobs = check_positive_int(jobs, "job count")
    run = partial(run_experiment, n_queries=n_queries, skip_exact=skip_exact)
    if jobs > 1:
        # imported here: the process pool machinery costs ~2 MB of memory
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(run, configs))
    return list(map(run, configs))


CSV_COLUMNS = (
    "k",
    "x",
    "eps",
    "seed",
    "guarantee_pairwise",
    "n_rvs",
    "n_factors",
    "n_groups",
    "compression_ratio",
    "query_index",
    "target",
    "target_value",
    "evidence",
    "p_ground",
    "p_compressed",
    "quotient",
    "d_exact",
    "bound_tight",
    "t_eacp",
    "t_acp",
    "t_ground_query",
    "t_lifted_query",
    "alpha_substitute",
)


def emit_csv(records: list[ExperimentRecord]) -> bytes:
    """One row per (record, query), query cells blank without one; header always present.

    Each column takes the config's, the record's or the query's field of
    its name; only the four cells whose name or format differs are built
    here. csv writes a float by its repr and None as a blank cell.
    """
    buf = io.StringIO()
    writer = csv.DictWriter(
        buf, CSV_COLUMNS, restval="", extrasaction="ignore", lineterminator="\n"
    )
    writer.writeheader()
    for rec in records:
        row = {
            **vars(rec.config),
            **vars(rec),
            "guarantee_pairwise": "true" if rec.config.guarantee_pairwise else "false",
        }
        queries = [
            {
                **vars(q),
                "query_index": q.index,
                "target_value": q.value,
                "evidence": ";".join(f"{rv}={val}" for rv, val in q.evidence),
            }
            for q in rec.queries
        ]
        for query in queries or [{}]:
            writer.writerow({**row, **query})
    return buf.getvalue().encode("utf-8")
