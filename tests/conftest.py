"""Shared fixtures: worked-example models and seeded random model generators."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from liftcomp import Factor, FactorGraph, GenConfig, RandomVariable, generate_fg, perturb

HL = ("high", "low")


def sales_model() -> FactorGraph:
    """Two sales variables tied to one revenue variable by near-equal tables."""
    rvs = (
        RandomVariable("SalA", HL),
        RandomVariable("SalB", HL),
        RandomVariable("Rev", HL),
    )
    phi1 = Factor("phi1", ("SalA", "Rev"), np.array([[0.75, 0.33], [0.48, 0.22]]))
    phi2 = Factor("phi2", ("SalB", "Rev"), np.array([[0.8, 0.3], [0.5, 0.2]]))
    return FactorGraph(rvs, (phi1, phi2))


def phi3() -> Factor:
    """Third sales table: within tolerance of phi2 but not of phi1 at 0.1."""
    return Factor("phi3", ("SalC", "Rev"), np.array([[0.84, 0.31], [0.51, 0.22]]))


def sales_model_three() -> FactorGraph:
    base = sales_model()
    rvs = base.rvs + (RandomVariable("SalC", HL),)
    return FactorGraph(rvs, base.factors + (phi3(),))


def counting_model() -> FactorGraph:
    """One factor symmetric in its last two arguments; compacts to 6 rows."""
    rvs = (
        RandomVariable("Rev", HL),
        RandomVariable("ComA", HL),
        RandomVariable("ComB", HL),
    )
    table = np.array([1.0, 2.0, 2.0, 3.0, 4.0, 5.0, 5.0, 6.0]).reshape(2, 2, 2)
    return FactorGraph(rvs, (Factor("phi1", ("Rev", "ComA", "ComB"), table),))


def random_model(
    rng: np.random.Generator,
    max_rvs: int = 10,
    max_factors: int = 8,
    copy_prob: float = 0.35,
    copy_noise: float = 0.0,
) -> FactorGraph:
    """Small binary-RV model; some factors are (noisy) arg-permuted copies.

    copy_noise = 0 duplicates tables bit-exactly, which exercises the
    exact-equality grouping paths; a positive value rescales the copy
    entrywise by U[1-copy_noise, 1+copy_noise].
    """
    n_rvs = int(rng.integers(2, max_rvs + 1))
    names = [f"V{i}" for i in range(n_rvs)]
    rvs = tuple(RandomVariable(n, ("t", "f")) for n in names)
    n_factors = int(rng.integers(1, max_factors + 1))
    factors: list[Factor] = []
    for i in range(n_factors):
        if factors and rng.random() < copy_prob:
            src = factors[int(rng.integers(len(factors)))]
            arity = len(src.args)
            args = tuple(
                names[j] for j in rng.choice(n_rvs, size=arity, replace=False)
            )
            table = src.table
            if copy_noise > 0.0:
                table = table * rng.uniform(
                    1.0 - copy_noise, 1.0 + copy_noise, size=table.shape
                )
            perm = rng.permutation(arity)
            table = np.transpose(table, tuple(int(p) for p in perm))
            factors.append(Factor(f"f{i}", args, table))
        else:
            arity = int(rng.integers(1, min(3, n_rvs) + 1))
            args = tuple(
                names[j] for j in rng.choice(n_rvs, size=arity, replace=False)
            )
            table = rng.uniform(0.1, 1.0, size=(2,) * arity)
            factors.append(Factor(f"f{i}", args, table))
    used = {a for f in factors for a in f.args}
    rvs = tuple(rv for rv in rvs if rv.name in used)
    return FactorGraph(rvs, tuple(factors))


def mixed_range_model(rng):
    """Up to 6 RVs of 2, 3, 4 or 12 labels (some untouched) and factors of
    arity 1-3 whose arguments come in random order."""
    n = int(rng.integers(1, 7))
    sizes = [int(s) for s in rng.choice((2, 3, 4, 12), size=n)]
    while math.prod(sizes) > 2**15:
        sizes[sizes.index(max(sizes))] = 2
    names = [f"V{i}" for i in range(n)]
    rvs = tuple(
        RandomVariable(name, tuple(f"l{j}" for j in range(size)))
        for name, size in zip(names, sizes)
    )
    factors = []
    for i in range(int(rng.integers(1, 7))):
        args = [int(j) for j in rng.choice(n, size=int(rng.integers(1, min(3, n) + 1)), replace=False)]
        table = rng.uniform(0.1, 2.0, size=[sizes[j] for j in args])
        factors.append(Factor(f"f{i}", tuple(names[j] for j in args), table))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")   # untouched RVs are part of the sample
        return FactorGraph(rvs, tuple(factors))


def star_model(k: int, depth: int, seed: int = 0) -> FactorGraph:
    """Hub with k identical chains of the given depth; tables shared."""
    rng = np.random.default_rng(seed)
    base = [rng.uniform(0.1, 1.0, size=(2, 2)) for _ in range(depth)]
    rvs = [RandomVariable("Hub", ("t", "f"))]
    factors = []
    for i in range(1, k + 1):
        chain = [f"B{i}_{j}" for j in range(1, depth + 1)]
        rvs.extend(RandomVariable(n, ("t", "f")) for n in chain)
        factors.append(Factor(f"att{i}", ("Hub", chain[0]), base[0]))
        for j in range(depth - 1):
            factors.append(Factor(f"ch{i}_{j+1}", (chain[j], chain[j + 1]), base[j + 1]))
    return FactorGraph(tuple(rvs), tuple(factors))


def counted_star(k: int, noise: float = 0.0, seed: int = 0) -> FactorGraph:
    """Hub with k branches Hub-A_i, Hub-B_i (one shared table) and A_i-B_i.

    The A_i-B_i table is symmetric, so A_i and B_i share a colour and the
    group of those tables compacts to a histogram over both positions
    (CrvSpec(positions=(0, 1))). noise > 0 rescales every entry by
    U[1-noise, 1+noise] (the A_i-B_i tables re-symmetrised), which stays
    within eps = 0.1 for noise up to about 0.04. The Hub-A table is near
    [[x, y], [y, x]] and the A-B table near [[p, q], [q, p]], so each
    branch sends the hub a near-even message and the hub marginal stays
    well inside (0, 1) up to k = 128; the two tables lie on different
    scales, so eps-grouping never mixes them.
    """
    rng = np.random.default_rng(seed)
    x, y = rng.uniform(0.2, 0.8, size=2)
    att = np.array([[x, y], [y, x * rng.uniform(0.99, 1.01)]])
    p, q = rng.uniform(2.0, 4.0, size=2)
    link = np.array([[p, q], [q, p]])

    def jitter(table: np.ndarray) -> np.ndarray:
        return table * rng.uniform(1 - noise, 1 + noise, size=table.shape) if noise else table

    rvs = [RandomVariable("Hub", ("t", "f"))]
    factors = []
    for i in range(1, k + 1):
        rvs += [RandomVariable(f"A{i}", ("t", "f")), RandomVariable(f"B{i}", ("t", "f"))]
        factors.append(Factor(f"ha{i}", ("Hub", f"A{i}"), jitter(att)))
        factors.append(Factor(f"hb{i}", ("Hub", f"B{i}"), jitter(att)))
        pair = jitter(link)
        factors.append(Factor(f"ab{i}", (f"A{i}", f"B{i}"), (pair + pair.T) / 2))
    return FactorGraph(tuple(rvs), tuple(factors))


def free_star(k: int, depth: int, eps: float = 0.1) -> FactorGraph:
    """Perturbed free star (x = 0.1) from the first seed whose chains have `depth` links.

    The shape of the benchmark's enumerable stars: k=4 and k=5 at depth 4
    have 2^17 and 2^21 joint states.
    """
    seed = 0
    while True:
        cfg = GenConfig(k=k, x=0.1, eps=eps, seed=seed, free=True, guarantee_pairwise=True)
        base = generate_fg(cfg)
        if len(base.factors) == k * depth:
            return perturb(base, cfg)
        seed += 1


def partition_colours(fg: FactorGraph, result) -> tuple[list, list]:
    """(rv, class number) and (factor, group number) pairs of a colour pass, in model order.

    Colour c is group or class c, numbered in first-member order.
    """
    class_of = {name: c for c, names in enumerate(result.rv_classes) for name in names}
    group_of = {m.factor: g for g, group in enumerate(result.grouping.groups) for m in group}
    return (
        [(rv.name, class_of[rv.name]) for rv in fg.rvs],
        [(f.name, group_of[f.name]) for f in fg.factors],
    )


def _one_table(entries: str) -> str:
    return (
        '{"rvs": [{"name": "X", "range": ["a", "b"]}], '
        '"factors": [{"name": "f", "args": ["X"], "table": [' + entries + "]}]}"
    )


# model files that float() and json.loads reject with OverflowError,
# ValueError and RecursionError, each with a pattern its ModelFormatError matches
UNPARSEABLE_MODELS = {
    "past-float64": (_one_table("1, 1" + "9" * 400), r"^factors\[0\]\.table\[1\]: "),
    "past-digit-limit": (_one_table("1, " + "1" * 5000), "^model: invalid JSON"),
    "nested-100000": ("[" * 100_000 + "]" * 100_000, "^model: invalid JSON"),
}


@pytest.fixture
def sales():
    return sales_model()


@pytest.fixture
def sales_three():
    return sales_model_three()


@pytest.fixture
def counting():
    return counting_model()
