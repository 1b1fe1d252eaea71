"""The three workloads: seeded inputs, one measured pass, output checks.

Inputs come from liftcomp.bench.generate_fg/perturb and
liftcomp.bounds.worst_case_fg and are serialised with io.save_fg; the
measured code only ever sees models loaded back through io.load_fg.
Every library call goes through Run.call, which times it in reference
seconds (see probe.py), counts it as attempted in the pass's ledger, and
counts any LiftcompError it raises as a failure of its layer. The lifted
evaluator's UnsupportedTopologyError is the one exception: it means
"answer by VE instead" and is a lifted miss, not a failure.
"""

from __future__ import annotations

import hashlib
import math
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any

import numpy as np

from probe import Speed

EPS = 0.1
HUB = "Hub"
STAR_KS = (16, 64, 128)
# every generated star keeps this many links per chain (see _star)
STAR_DEPTH = 3
# (x, stars per k); more stars per k average out seed-to-seed differences
STARS = {"star-compress": (1.0, 1), "star-query": (0.1, 3)}
# sampled queries per model, on top of the hub marginal of every star
SAMPLED_QUERIES = {"star-compress": 5, "star-query": 12, "certify": 2}
WORST_CASE_MS = (2, 3, 4, 5, 6)
FREE_STARS = ((4, 4), (5, 4))   # (k, depth): 2^17 and 2^21 joint states
FREE_STAR_X = 0.1
PROB_TOL = 1e-10
DIST_TOL = 1e-9

WORKLOADS = ("star-compress", "star-query", "certify")

FALLBACK = object()


@dataclass
class Model:
    label: str
    data: bytes
    eps: float
    star: bool
    worst_case: bool = False
    fg: Any = None
    queries: list = field(default_factory=list)


@dataclass
class PassResult:
    # reference seconds per (category, model index, query index or -1):
    # compress, acp, certify (bound_set + distance_exact), query (certified
    # answer), ground (VE on the input), oracle (enumeration)
    times: dict[tuple[str, int, int], float] = field(default_factory=dict)
    wall_s: float = 0.0
    probe_s: float = 0.0   # median probe during the pass
    factors: int = 0
    groups: int = 0
    modified: int = 0
    lifted_attempts: int = 0
    lifted_hits: int = 0
    attempted: int = 0
    failures: Counter = field(default_factory=Counter)
    errors: Counter = field(default_factory=Counter)
    compressions: list = field(default_factory=list)

    def total(self, category: str | None = None) -> float:
        """Reference seconds in one category, or in all of them."""
        return sum(v for (cat, _, _), v in self.times.items() if category in (None, cat))

    def samples_ms(self, category: str) -> list[float]:
        return [v * 1e3 for (cat, _, _), v in self.times.items() if cat == category]

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


def _star(lc, depth: int, rng: np.random.Generator, k: int, **config):
    """First model seed drawn from rng whose star has `depth` links per chain.

    generate_fg draws the chain depth from the model seed; holding it fixed
    keeps the amount of work the same for every workload seed. The choice
    looks only at the depth, never at how any query on the model behaves.
    """
    while True:
        cfg = lc.bench.GenConfig(k=k, eps=EPS, seed=int(rng.integers(2**31)), **config)
        base = lc.bench.generate_fg(cfg)
        if len(base.factors) == k * depth:
            return cfg, lc.bench.perturb(base, cfg)


def build_models(lc, workload: str, seed: int) -> list[Model]:
    """The workload's fixed input, derived from the workload seed alone."""
    save = lc.io.save_fg
    stream = WORKLOADS.index(workload)
    models: list[Model] = []
    if workload in STARS:
        x, per_k = STARS[workload]
        for k in STAR_KS:
            rng = np.random.default_rng([seed, stream, k])
            for _ in range(per_k):
                cfg, fg = _star(lc, STAR_DEPTH, rng, k, x=x)
                models.append(
                    Model(f"star k={k} x={x} seed={cfg.seed}", save(fg), EPS, star=True)
                )
    elif workload == "certify":
        for eps in lc.bench.EPS_DOMAIN:
            for m in WORST_CASE_MS:
                fg = lc.bounds.worst_case_fg(m, eps)
                models.append(
                    Model(f"worst_case m={m} eps={eps}", save(fg), eps, star=False, worst_case=True)
                )
        for k, depth in FREE_STARS:
            rng = np.random.default_rng([seed, stream, k])
            # halved noise keeps each perturbed table in its group, so the
            # group count does not swing with the seed
            cfg, fg = _star(
                lc, depth, rng, k, x=FREE_STAR_X, free=True, guarantee_pairwise=True
            )
            models.append(Model(f"free star k={k} seed={cfg.seed}", save(fg), EPS, star=True))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return models


def sample_queries(lc, model: Model, seed: int, index: int, workload: str) -> list:
    """Hub marginal (stars) plus seeded queries, half of them with evidence."""
    Query, Evidence = lc.inference.Query, lc.model.Evidence
    fg = model.fg
    rng = np.random.default_rng([seed, 3, index])
    n = SAMPLED_QUERIES[workload]
    names = [rv.name for rv in fg.rvs]
    queries = [Query(HUB, value=fg.rv(HUB).range[0])] if model.star else []
    for _ in range(n):
        target = names[int(rng.integers(len(names)))]
        labels = fg.rv(target).range
        value = labels[int(rng.integers(len(labels)))]
        evidence = Evidence()
        if rng.random() < 0.5:
            other = target
            while other == target:
                other = names[int(rng.integers(len(names)))]
            olabels = fg.rv(other).range
            evidence = Evidence(((other, olabels[int(rng.integers(len(olabels)))]),))
        queries.append(Query(target, evidence, value))
    return queries


class Run:
    """Operation ledger and output checks for one benchmark process."""

    def __init__(self, lc, models: list[Model], workload: str, speed: Speed) -> None:
        self.lc = lc
        self.speed = speed
        self.models = models
        self.workload = workload
        self.tracer = None
        self.error = lc.errors.LiftcompError
        self.unsupported = lc.errors.UnsupportedTopologyError
        self.problems: list[str] = []
        self.p = PassResult()
        self.first: PassResult | None = None

    def call(self, layer: str, fn, *args, fallback=()):
        """(result, reference seconds); result is None on a LiftcompError."""
        self.p.attempted += 1
        before = self.speed.due()
        start = perf_counter()
        try:
            result = fn(*args)
        except fallback:
            result = FALLBACK
        except self.error as exc:
            result = None
            self.p.failures[layer] += 1
            self.p.errors[f"{layer}: {type(exc).__name__}: {str(exc)[:100]}"] += 1
        return result, self.speed.scale(perf_counter() - start, before)

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)

    @contextmanager
    def unmeasured(self):
        """Keep output checks out of the trace."""
        was = self.tracer is not None and self.tracer.enabled
        if was:
            self.tracer.enabled = False
        try:
            yield
        finally:
            if was:
                self.tracer.enabled = True

    # -- one pass ---------------------------------------------------------

    def run_pass(self) -> PassResult:
        self.p = PassResult()
        first = len(self.speed.samples)
        start = perf_counter()
        for index, model in enumerate(self.models):
            self._model(index, model)
        self.p.wall_s = perf_counter() - start
        self.p.probe_s = self.speed.since(first)
        if self.first is None:
            self.first = self.p
        self.check(
            (self.p.attempted, self.p.errors) == (self.first.attempted, self.first.errors),
            f"a pass failed {dict(self.p.errors)} of {self.p.attempted} operations, "
            f"the first pass {dict(self.first.errors)} of {self.first.attempted}",
        )
        return self.p

    def _time(self, category: str, model: int, query: int, seconds: float) -> None:
        key = (category, model, query)
        self.p.times[key] = self.p.times.get(key, 0.0) + seconds

    def _model(self, index: int, model: Model) -> None:
        lc, p = self.lc, self.p
        comp, seconds = self.call("eacp", lc.eacp.run_eacp, model.fg, model.eps)
        self._time("compress", index, -1, seconds)
        _, seconds = self.call("eacp", lc.eacp.run_acp, model.fg)
        self._time("acp", index, -1, seconds)
        p.compressions.append(comp)
        if comp is None:
            return
        p.factors += len(model.fg.factors)
        p.groups += comp.n_groups()
        modified = sum(
            not np.array_equal(f.table, g.table)
            for f, g in zip(model.fg.factors, comp.m_prime.factors)
        )
        p.modified += modified
        d = 0.0
        if modified:
            bounds, seconds = self.call("bounds", lc.bounds.bound_set, modified, model.eps)
            self._time("certify", index, -1, seconds)
            if bounds is None:
                return
            d = bounds.d_tight
        self._check_compression(model, comp)
        if self.workload == "certify":
            report, seconds = self.call(
                "bounds", lc.bounds.distance_exact, model.fg, comp.m_prime
            )
            self._time("certify", index, -1, seconds)
            if report is not None:
                self._check_distance(model, report.d_exact, d)
        for qi, q in enumerate(model.queries):
            self._query(index, qi, model, comp, q, d)

    def _query(self, index: int, qi: int, model: Model, comp, q, d: float) -> None:
        lc, p = self.lc, self.p
        answer, envelope, latency = FALLBACK, None, 0.0
        lifted = model.star and q.target == HUB
        if lifted:
            p.lifted_attempts += 1
            answer, seconds = self.call(
                "inference", lc.inference.query_lifted_star, comp.pfg, HUB, q,
                fallback=self.unsupported,
            )
            latency += seconds
            lifted = answer is not FALLBACK and answer is not None
            p.lifted_hits += lifted
        if answer is FALLBACK:
            answer, seconds = self.call("inference", lc.inference.query_ve, comp.m_prime, q)
            latency += seconds
        if answer is not None:
            envelope, seconds = self.call(
                "bounds", lc.bounds.prob_envelope, answer[q.value], d
            )
            latency += seconds
        self._time("query", index, qi, latency)
        ground, seconds = self.call("inference", lc.inference.query_ve, model.fg, q)
        self._time("ground", index, qi, seconds)
        oracle = None
        if self.workload == "certify":
            oracle, seconds = self.call("inference", lc.inference.query_enumerate, model.fg, q)
            self._time("oracle", index, qi, seconds)
        with self.unmeasured():
            self._check_query(
                model, comp, q, d, answer if lifted else None, answer, envelope, ground, oracle
            )

    # -- output checks ----------------------------------------------------

    def _check_compression(self, model: Model, comp) -> None:
        members = sorted(m.factor for g in comp.grouping.groups for m in g)
        self.check(
            members == sorted(f.name for f in model.fg.factors),
            f"{model.label}: final grouping does not partition the factors",
        )
        worst = max(comp.per_group_max_rel_dev.values(), default=0.0)
        self.check(
            worst <= model.eps * (1.0 + 1e-9),
            f"{model.label}: mean update moved an entry by {worst!r} > eps",
        )

    def _check_distance(self, model: Model, d_exact: float, d_tight: float) -> None:
        self.check(
            d_exact <= d_tight + DIST_TOL,
            f"{model.label}: d_exact {d_exact!r} exceeds d_tight {d_tight!r}",
        )
        if model.worst_case:
            self.check(
                abs(d_exact - d_tight) <= DIST_TOL,
                f"{model.label}: d_exact {d_exact!r} does not attain d_tight {d_tight!r}",
            )

    def _check_query(self, model, comp, q, d, lifted, answer, envelope, ground, oracle) -> None:
        where = f"{model.label} P({q.target}={q.value} | {q.evidence.items})"
        if lifted is not None:
            reference, _ = self.call("inference", self.lc.inference.query_ve, comp.m_prime, q)
            if reference is not None:
                self.check(
                    _max_diff(lifted, reference) <= PROB_TOL,
                    f"{where}: lifted answer differs from VE on m_prime",
                )
        if answer is not None and ground is not None:
            p_true = ground[q.value]
            ratio = answer[q.value] / p_true
            self.check(
                math.exp(-d) - DIST_TOL <= ratio <= math.exp(d) + DIST_TOL,
                f"{where}: quotient {ratio!r} outside the band of d={d!r}",
            )
            if envelope is not None:
                self.check(
                    envelope[0] - PROB_TOL <= p_true <= envelope[1] + PROB_TOL,
                    f"{where}: true probability {p_true!r} outside envelope {envelope!r}",
                )
        if oracle is not None and ground is not None:
            self.check(
                _max_diff(oracle, ground) <= PROB_TOL,
                f"{where}: enumeration and VE disagree",
            )

    # -- output digest ----------------------------------------------------

    def digest(self) -> str:
        """sha256 over phase-1 and final groupings, alignments and m_prime tables."""
        h = hashlib.sha256()
        with self.unmeasured():
            for model, comp in zip(self.models, self.p.compressions):
                h.update(model.label.encode())
                if comp is None:
                    h.update(b"compression failed")
                    continue
                try:
                    phase1 = self.lc.grouping.phase1_group(model.fg.factors, model.eps)
                except self.error as exc:
                    phase1 = None
                    h.update(repr(exc).encode())
                for grouping in (phase1, comp.grouping):
                    for group in grouping.groups if grouping is not None else ():
                        h.update(repr([(m.factor, m.align) for m in group]).encode())
                    h.update(b";")
                for f in comp.m_prime.factors:
                    h.update(f"{f.name}{f.table.shape}".encode())
                    h.update(np.ascontiguousarray(f.table).tobytes())
        return h.hexdigest()


def _max_diff(a, b) -> float:
    return max(abs(a[label] - b[label]) for label in a.distribution)
