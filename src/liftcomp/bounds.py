"""Distance certificates for compressed models.

The distance between the original and compressed distributions is the
log-ratio span d = ln(max_r psi'(r)/psi(r)) - ln(min_r psi'(r)/psi(r)),
computed on unnormalized potential products so the partition functions
cancel and never have to be tracked. distance_exact enumerates it;
bound_general and bound_tight certify it from the factor count m and the
tolerance eps alone, and modified_factor_count reads m off the two
models. The tight bound exploits that every updated table is a group
mean, which couples the attainable extremes; worst_case_fg builds the
adversarial model that attains it exactly and anchors the formula tests.

A distance d converts into interval guarantees: posterior odds of any
conditional query move by at most e^{+/-d}, and prob_envelope transports
that to probabilities. Formulas are evaluated in log space (log1p,
expm1) so small eps keeps full precision at large m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .equivalence import check_count, check_epsilon, check_positive_int, check_real
from .errors import InvariantError
from .model import Factor, FactorGraph, RandomVariable, joint_slabs
from .model import joint_table  # noqa: F401  perfbench/run.py looks this name up

__all__ = [
    "BoundSet",
    "DistanceReport",
    "bound_general",
    "bound_tight",
    "bound_set",
    "distance_exact",
    "modified_factor_count",
    "odds_envelope",
    "prob_envelope",
    "worst_case_fg",
]


def bound_general(m: int, eps: float) -> float:
    """m * (ln(1+eps) - ln(1-eps)): every entry ratio lies in [1-eps, 1+eps]."""
    m = check_count(m, "modified-factor count")
    eps = check_epsilon(eps)
    return m * (math.log1p(eps) - math.log1p(-eps))


def bound_tight(m: int, eps: float) -> float:
    """m * ln((1 + (m-1)/m * eps) * (1+eps) / (1 + eps/m)).

    Updated tables are group means, so one entry sitting at the (1+eps)
    extreme drags the mean of its group along; the attainable per-factor
    ratio extremes shrink to alpha1 = (1+eps/m)/(1+eps) from below and
    alpha2 = 1+(m-1)/m*eps from above. At m = 1 the expression is 0: a
    lone factor can only be averaged with itself. At m = 0 nothing was
    modified and the bound is 0.
    """
    m = check_count(m, "modified-factor count")
    eps = check_epsilon(eps)
    if m == 0:
        return 0.0
    inner = math.log1p((m - 1) / m * eps) + math.log1p(eps) - math.log1p(eps / m)
    return m * inner


@dataclass(frozen=True)
class BoundSet:
    """Both certificates plus the per-factor ratio extremes they rest on.

    m = 0 is the compression that modified no table: both certificates
    are 0 and both ratio extremes are 1.
    """

    m: int
    eps: float
    d_general: float
    d_tight: float
    alpha1: float
    alpha2: float

    def __post_init__(self) -> None:
        if not self.alpha1 <= 1.0 <= self.alpha2:
            raise InvariantError("ratio extremes must straddle 1")
        if self.m > 0 and self.eps > 0.0:
            middle = 2 * self.m * math.log1p(self.eps)
            if not self.d_tight < middle < self.d_general:
                raise InvariantError(
                    "bound chain violated: expected d_tight < 2m*ln(1+eps) < d_general"
                )


def bound_set(m: int, eps: float) -> BoundSet:
    m = check_count(m, "modified-factor count")
    eps = check_epsilon(eps)
    if m == 0:
        return BoundSet(0, eps, 0.0, 0.0, 1.0, 1.0)
    alpha1 = (1.0 + eps / m) / (1.0 + eps)
    alpha2 = 1.0 + (m - 1) / m * eps
    return BoundSet(m, eps, bound_general(m, eps), bound_tight(m, eps), alpha1, alpha2)


@dataclass(frozen=True)
class DistanceReport:
    """Exact distance with the assignments attaining the ratio extremes."""

    d_exact: float
    max_ratio: float
    min_ratio: float
    argmax_assignment: dict[str, str]
    argmin_assignment: dict[str, str]

    def __post_init__(self) -> None:
        check_real(self.d_exact, "distance", math.inf)
        if not (math.isfinite(self.max_ratio) and math.isfinite(self.min_ratio)):
            raise InvariantError(
                f"ratio extremes must be finite, got {self.max_ratio!r} and {self.min_ratio!r}"
            )


def distance_exact(m1: FactorGraph, m2: FactorGraph) -> DistanceReport:
    """Enumerate max and min of psi2/psi1 over all joint states.

    Both models must declare the same random variables with the same
    ranges; factorisations may differ. The joints are never held whole:
    m1 is walked in joint_slabs' slabs, and m2's slab with the same RVs
    held is divided into each, so each slab is built beside one other
    slab at most. On ties the first extreme in row-major order of m1's
    RVs wins, as over the full joint. Raises EnumerationCapError through
    joint_table when the state space exceeds the enumeration cap, and
    InvariantError when some ratio is not finite and positive because a
    joint product overflowed or underflowed float64.
    """
    names1 = [rv.name for rv in m1.rvs]
    names2 = [rv.name for rv in m2.rvs]
    if sorted(names1) != sorted(names2):
        raise InvariantError("models declare different random variables")
    for rv in m1.rvs:
        if m2.rv(rv.name).range != rv.range:
            raise InvariantError(
                f"rv {rv.name!r} has different ranges in the two models"
            )
    hi_idx = lo_idx = ()
    max_ratio, min_ratio = -math.inf, math.inf
    for held, ratio in joint_slabs(m1, {}):
        # with the same RVs held, m2's states fit in one slab
        ((_, slab2),) = joint_slabs(m2, held)
        slab2 = slab2.transpose(np.argsort([m1.rv_position(n) for n in names2 if n not in held]))
        # both slabs are fresh arrays, so the ratio can overwrite m1's
        with np.errstate(over="ignore", invalid="ignore"):   # checked just below
            np.divide(slab2, ratio, out=ratio)
        hi = np.unravel_index(int(np.argmax(ratio)), ratio.shape)
        lo = np.unravel_index(int(np.argmin(ratio)), ratio.shape)
        slab_max, slab_min = float(ratio[hi]), float(ratio[lo])
        # m2's slab goes here and m1's once the next one is built, so each
        # build runs beside one other slab; freeing both here made
        # distance_exact over the certify models 2x slower, as the allocator
        # gave the pages back and faulted them in again
        del slab2
        if not 0.0 < slab_min <= slab_max < math.inf:
            raise InvariantError(
                f"ratio extremes {slab_min!r} and {slab_max!r} are not finite and "
                "positive: the joint product left the float64 range"
            )
        if slab_max > max_ratio:
            max_ratio, hi_idx = slab_max, (*held.values(), *hi)
        if slab_min < min_ratio:
            min_ratio, lo_idx = slab_min, (*held.values(), *lo)
    return DistanceReport(
        d_exact=math.log(max_ratio) - math.log(min_ratio),
        max_ratio=max_ratio,
        min_ratio=min_ratio,
        argmax_assignment={rv.name: rv.range[k] for rv, k in zip(m1.rvs, hi_idx)},
        argmin_assignment={rv.name: rv.range[k] for rv, k in zip(m1.rvs, lo_idx)},
    )


def modified_factor_count(original: FactorGraph, updated: FactorGraph) -> int:
    """m for the certificates: factors whose tables differ between the two models.

    The models must hold the same factor names with the same arguments, as
    a compression's input and m_prime do; otherwise InvariantError.
    """
    if sorted(f.name for f in original.factors) != sorted(f.name for f in updated.factors):
        raise InvariantError("models must share factor names to infer the modified count")
    count = 0
    for f in original.factors:
        g = updated.factor(f.name)
        if f.args != g.args:
            raise InvariantError(f"factor {f.name!r} has different arguments in the two models")
        if not np.array_equal(f.table, g.table):
            count += 1
    return count


def odds_envelope(d: float) -> tuple[float, float]:
    """Posterior odds of any conditional query move by a factor in this band."""
    d = check_real(d, "distance", math.inf)
    try:
        return (math.exp(-d), math.exp(d))
    except OverflowError:
        raise InvariantError(f"odds envelope e^{d!r} exceeds the float64 range") from None


def _prob_shift(p: float, t: float) -> float:
    # p*e^t / (p*(e^t - 1) + 1), stable for small |t| via expm1; where e^t
    # overflows, the same value as p / (p + (1-p)*e^-t), whose denominator
    # stays >= p
    try:
        return p * math.exp(t) / (p * math.expm1(t) + 1.0)
    except OverflowError:
        return p / (p + (1.0 - p) * math.exp(-t))


def prob_envelope(p: float, d: float) -> tuple[float, float]:
    """Interval containing the true probability when the model reports p.

    p lies in [0, 1]. A reported 1.0 is a marginal that rounded up to 1
    (say 1 - 5.5e-19), so its interval runs from the envelope of the float
    just below 1 up to 1.0. Likewise a reported 0.0 is a marginal that
    rounded down to 0 (say e^-921), so its interval runs from 0.0 up to
    the envelope of the smallest positive float.
    """
    if not 0.0 <= p <= 1.0:
        raise InvariantError(f"probability must lie in [0, 1], got {p!r}")
    d = check_real(d, "distance", math.inf)
    if p == 1.0:
        return (_prob_shift(math.nextafter(1.0, 0.0), -d), 1.0)
    if p == 0.0:
        return (0.0, _prob_shift(math.nextafter(0.0, 1.0), d))
    return (_prob_shift(p, -d), _prob_shift(p, d))


def worst_case_fg(m: int, eps: float) -> FactorGraph:
    """Adversarial model whose exact distance attains bound_tight(m, eps).

    m unary factors over m fresh RVs sharing a 2m-label range. Factor i
    inflates row j by (1+eps) exactly when j == i in the lower half or
    j - m != i in the upper half; base values are the row numbers. All m
    factors are pairwise eps-equivalent, so compression merges them into
    one group whose mean realises the extreme per-state ratios on the
    diagonal (minimum) and shifted diagonal (maximum) simultaneously.
    """
    m = check_positive_int(m, "modified-factor count")
    eps = check_epsilon(eps)
    if m < 2:
        raise InvariantError("adversarial construction needs at least 2 factors")
    labels = tuple(f"r{j}" for j in range(1, 2 * m + 1))
    rvs = tuple(RandomVariable(f"R{i}", labels) for i in range(1, m + 1))
    factors = []
    for i in range(1, m + 1):
        rows = np.empty(2 * m, dtype=np.float64)
        for j in range(1, 2 * m + 1):
            inflate = (j <= m and j == i) or (j > m and j - m != i)
            rows[j - 1] = j * (1.0 + eps) if inflate else float(j)
        factors.append(Factor(f"phi{i}", (f"R{i}",), rows))
    return FactorGraph(rvs, tuple(factors))
