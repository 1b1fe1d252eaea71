"""Epsilon-equivalence tests, argument alignment, and commutativity detection.

Two positive potentials a, b are eps-equivalent when each lies in the
other's multiplicative band. With hi = max(a, b), lo = min(a, b) and the
caps (c1, c2) = ((1+eps)(1+s), (1-eps)(1-s)) from `_band`, the test is

    hi <= lo*c1  and  lo >= hi*c2.

Because c1 >= 1 >= c2 and rounding is monotone, this is the same as the
four one-sided tests a <= b*c1, b <= a*c1, a >= b*c2 and b >= a*c2; for
eps < 1 it says max(a,b)/min(a,b) <= 1+eps, which is what makes the
mean-update deviation bounds work. For eps > 0 the slack s = 1e-12 keeps
rounded decimal inputs from flipping on the edge; at eps = 0, s = 0 and
the test is bit equality. The relation is symmetric and reflexive but
NOT transitive, and no code here may assume otherwise.

The test has two forms. eps_equiv_arrays applies it entrywise to two
tables of one shape. eps_band_mask applies it to one table, or to a
stack of candidate tables, against a stack of envelopes: a stack row
holds the entrywise minimum and maximum of one set of tables, and the
mask decides from those two tables alone, exactly as eps_equiv_arrays
against every member would (the grouping module docstring gives the
argument). The factor form, eps_equiv_factors, is band_matches on a
one-row BandStack.

Two factors are eps-equivalent when some permutation of argument
positions aligns their tables entrywise under that test. band_matches
tests the range-compatible permutations together and keeps the first
hit in lexicographic order, so the identity wins whenever it is valid.
Both seedings enumerate permutations through _permutations, which
enforces ARITY_CAP = 8: it raises ArityCapError for a larger arity.

An alignment `perm` is a tuple with the meaning of Def-style
permutations: position j of the right-hand factor receives the left
factor's coordinate perm[j]. `aligned_table(t, perm)` therefore views
the right factor's table in the left factor's frame.

commutative_blocks is the one commutativity test: it partitions a
table's axes into blocks whose pairwise swaps keep the table
eps-equivalent, allowing a swap only between axes with equal range
labels. The caller passes the table in whatever frame it needs (acp
passes each class representative in its group frame).
"""

from __future__ import annotations

import operator
from bisect import bisect_left
from functools import lru_cache
from itertools import permutations
from numbers import Integral, Real
from typing import Iterable

import numpy as np

from .errors import ArityCapError, InvariantError
from .model import Factor

__all__ = [
    "REL_SLACK",
    "ARITY_CAP",
    "Alignment",
    "BandStack",
    "check_epsilon",
    "identity_alignment",
    "invert_alignment",
    "aligned_table",
    "unaligned_table",
    "aligned_args",
    "eps_equiv_arrays",
    "eps_equiv_factors",
    "eps_band_mask",
    "band_matches",
    "commutative_blocks",
]

REL_SLACK = 1e-12
ARITY_CAP = 8

Alignment = tuple[int, ...]


def check_epsilon(eps: float) -> float:
    """eps as a float: a real, non-bool 0 <= eps < 1, which keeps (1-eps) positive."""
    return check_real(eps, "epsilon", 1.0)


def check_real(value: float, what: str, below: float) -> float:
    """value as a float, for a real, non-bool 0 <= value < below."""
    # a float skips the check against the Real ABC, which is slow
    if type(value) is not float and (isinstance(value, bool) or not isinstance(value, Real)):
        raise InvariantError(f"{what} must be a real number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:   # an int or fraction past float64 fails the range check
        value = float("inf") if value > 0 else -float("inf")
    if not 0.0 <= value < below:
        raise InvariantError(f"{what} must lie in [0, {below:g}), got {value}")
    return value


def check_count(value: int, what: str) -> int:
    """value as an int, for an integral, non-bool value >= 0."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < 0:
        raise InvariantError(f"{what} must be a non-negative int, got {value!r}")
    return operator.index(value)


def check_positive_int(value: int, what: str) -> int:
    """value as an int, for an integral, non-bool value >= 1."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < 1:
        raise InvariantError(f"{what} must be a positive int, got {value!r}")
    return operator.index(value)


# alignments are cached so that the ones stored in groupings are shared
@lru_cache(maxsize=64)
def identity_alignment(arity: int) -> Alignment:
    return tuple(range(arity))


@lru_cache(maxsize=ARITY_CAP + 1)
def _permutations(arity: int) -> tuple[Alignment, ...]:
    """Every permutation of range(arity), in lexicographic order.

    Both seedings search through this one enumerator, so it is where
    ARITY_CAP is enforced: ArityCapError above it. The cache answers
    every later call of an allowed arity without the check.
    """
    if arity > ARITY_CAP:
        raise ArityCapError(f"arity {arity} exceeds permutation search cap {ARITY_CAP}")
    return tuple(permutations(range(arity)))


def invert_alignment(perm: Alignment) -> Alignment:
    inv = [0] * len(perm)
    for j, p in enumerate(perm):
        inv[p] = j
    return tuple(inv)


def _inverse(perm: Alignment, arity: int) -> Alignment | None:
    """None for the identity, the common case, tested first; else the inverse of perm.

    InvariantError unless perm is a permutation of range(arity).
    """
    if perm == identity_alignment(arity):
        return None
    if len(perm) != arity or sorted(perm) != list(range(arity)):
        raise InvariantError(f"invalid alignment {perm} for arity {arity}")
    return invert_alignment(perm)


def aligned_table(table: np.ndarray, perm: Alignment) -> np.ndarray:
    """View `table` in the left frame: result[i_0..] = table[i_perm[0], ...].

    The identity alignment returns `table` itself, not a new view object
    (compression results keep one table per factor).
    """
    inv = _inverse(perm, table.ndim)
    return table if inv is None else np.transpose(table, inv)


def unaligned_table(table: np.ndarray, perm: Alignment) -> np.ndarray:
    """Inverse of aligned_table: push a left-frame table back to the member frame."""
    return table if _inverse(perm, table.ndim) is None else np.transpose(table, perm)


def aligned_args(args: tuple[str, ...], perm: Alignment) -> tuple[str, ...]:
    """Member argument names reordered into the left (representative) frame."""
    inv = _inverse(perm, len(args))
    return args if inv is None else tuple(args[i] for i in inv)


def _slack(eps: float) -> float:
    # no slack at eps = 0, so the zero-tolerance test is bit equality
    return REL_SLACK if eps > 0.0 else 0.0


def _band(eps: float) -> tuple[float, float]:
    """Upper and lower ratio caps (c1, c2) of the entrywise band test."""
    slack = _slack(eps)
    return (1.0 + eps) * (1.0 + slack), (1.0 - eps) * (1.0 - slack)


def eps_equiv_arrays(x: np.ndarray, y: np.ndarray, eps: float) -> bool:
    """Entrywise band test over two equal-shape arrays."""
    eps = check_epsilon(eps)
    if x.shape != y.shape:
        raise InvariantError(f"shape mismatch {x.shape} vs {y.shape}")
    c1, c2 = _band(eps)
    hi = np.maximum(x, y)
    lo = np.minimum(x, y)
    return bool(np.all(hi <= lo * c1) and np.all(lo >= hi * c2))


def eps_band_mask(lo: np.ndarray, hi: np.ndarray, table: np.ndarray, eps: float) -> np.ndarray:
    """Per row of the (lo, hi) stack: is `table` eps-equivalent to every table it spans?

    lo and hi have shape (rows,) + shape and hold the entrywise minimum
    and maximum of each row's tables. A candidate a passes against a row
    exactly when a <= lo*c1, hi <= a*c1, lo >= a*c2 and a >= hi*c2, with
    c1, c2 the caps eps_equiv_arrays uses. `table` is one candidate of
    that shape, giving a (rows,) mask, or a stack of candidates of shape
    (candidates,) + shape, giving a (candidates, rows) mask.
    """
    c1, c2 = _band(eps)
    if table.ndim == lo.ndim:
        table = table[:, None]
    ok = (table <= lo * c1) & (hi <= table * c1) & (lo >= table * c2) & (table >= hi * c2)
    return ok.all(axis=tuple(range(ok.ndim - lo.ndim + 1, ok.ndim)))


def put_row(rows: np.ndarray, n: int, table: np.ndarray) -> np.ndarray:
    """rows with `table` stored as row n, in a buffer of twice the length when rows is full."""
    if n == len(rows):
        rows = np.concatenate([rows, np.empty_like(rows)])
    rows[n] = table
    return rows


class BandStack:
    """Envelopes of one table shape, one row per key, tested in one call.

    Each row starts as a single table (append) and may be widened by more
    tables of the same shape (widen); lo and hi are the filled rows, which
    band_matches tests against.
    """

    def __init__(self, shape: tuple[int, ...]) -> None:
        self.shape = shape
        self.keys: list[int] = []
        self._lo = np.empty((4,) + shape)
        self._hi = np.empty((4,) + shape)

    @property
    def lo(self) -> np.ndarray:
        return self._lo[: len(self.keys)]

    @property
    def hi(self) -> np.ndarray:
        return self._hi[: len(self.keys)]

    def append(self, key: int, table: np.ndarray) -> int:
        row = len(self.keys)
        self._lo = put_row(self._lo, row, table)
        self._hi = put_row(self._hi, row, table)
        self.keys.append(key)
        return row

    def widen(self, row: int, table: np.ndarray) -> None:
        np.minimum(self._lo[row], table, out=self._lo[row])
        np.maximum(self._hi[row], table, out=self._hi[row])

    def rows_from(self, key: int) -> BandStack:
        """The rows of keys >= key, sharing this stack's memory; keys must ascend."""
        row = bisect_left(self.keys, key)
        out = BandStack(self.shape)
        out.keys = self.keys[row:]
        out._lo, out._hi = self.lo[row:], self.hi[row:]
        return out


def _range_compatible(shape1: tuple[int, ...], shape2: tuple[int, ...], perm: Alignment) -> bool:
    # position j of the right factor takes the left coordinate perm[j]
    return all(shape2[j] == shape1[perm[j]] for j in range(len(perm)))


def eps_equiv_factors(f1: Factor, f2: Factor, eps: float) -> Alignment | None:
    """Witness alignment of f2 onto f1 under the entrywise test, or None.

    band_matches against a one-row stack holding f1: the lexicographically
    first witness, None on an arity mismatch, ArityCapError (from
    _permutations) above ARITY_CAP.
    """
    stack = BandStack(f1.table.shape)
    stack.append(0, f1.table)
    return band_matches(f2.table, [stack], eps).get(0)


# largest stack of one table's views, in table entries; above it (arity 6
# and up on binary ranges) views are tested one at a time to bound memory
_GATHER_ENTRIES = 4096


@lru_cache(maxsize=256)
def _fitting_views(
    frame: tuple[int, ...], shape: tuple[int, ...]
) -> tuple[tuple[Alignment, ...], np.ndarray | None]:
    """Range-compatible permutations in lexicographic order, and a gather index.

    Indexing a flat table of `shape` with the index stacks its views in
    `frame` under those permutations. The index is None when at most one
    permutation fits, or when the stack would exceed _GATHER_ENTRIES.
    """
    perms = tuple(p for p in _permutations(len(shape)) if _range_compatible(frame, shape, p))
    size = int(np.prod(shape))
    if len(perms) < 2 or len(perms) * size > _GATHER_ENTRIES:
        return perms, None
    flat = np.arange(size).reshape(shape)
    index = np.stack([aligned_table(flat, p) for p in perms])
    index.flags.writeable = False
    return perms, index


def band_matches(
    table: np.ndarray, stacks: Iterable[BandStack], eps: float
) -> dict[int, Alignment]:
    """Key -> first lexicographic alignment putting `table` inside that key's envelope.

    Only stacks of the table's arity are searched. Each takes one
    eps_band_mask call on the table's views under every range-compatible
    permutation at once (one call per permutation when they are too many
    to stack), and each row keeps its first hit in lexicographic order.
    Arity above ARITY_CAP is refused, by _permutations, as soon as one
    such stack exists.
    """
    eps = check_epsilon(eps)
    arity = table.ndim
    found: dict[int, Alignment] = {}
    for stack in stacks:
        if len(stack.shape) != arity:
            continue
        perms, index = _fitting_views(stack.shape, table.shape)
        if not perms:
            continue
        if index is not None:
            hits = eps_band_mask(stack.lo, stack.hi, table.reshape(-1)[index], eps)
        else:
            hits = np.array(
                [eps_band_mask(stack.lo, stack.hi, aligned_table(table, p), eps) for p in perms]
            )
        first = hits.argmax(axis=0)
        for row in np.flatnonzero(hits.any(axis=0)):
            found[stack.keys[row]] = perms[first[row]]
    return found


def commutative_blocks(
    table: np.ndarray, eps: float, ranges: tuple[tuple[str, ...], ...]
) -> tuple[tuple[int, ...], ...]:
    """Greedy clique partition of a table's axes under the pairwise swap test.

    `ranges` holds the range labels of each axis. Two axes pass the swap
    test when their labels are equal and swapping them yields an
    eps-equivalent table. Each axis in turn joins the first block all of
    whose axes it passes with, or opens a new block. Pairwise
    transpositions rather than all block permutations: with eps > 0 the
    relation is not transitive, matching the pairwise grouping stance
    used everywhere else. Blocks are disjoint, cover all axes, and are
    listed by first axis.
    """
    eps = check_epsilon(eps)
    if len(ranges) != table.ndim:
        raise InvariantError(f"ranges arity {len(ranges)} != table arity {table.ndim}")

    def swap_ok(i: int, j: int) -> bool:
        return ranges[i] == ranges[j] and eps_equiv_arrays(table, np.swapaxes(table, i, j), eps)

    blocks: list[list[int]] = []
    for j in range(table.ndim):
        for block in blocks:
            if all(swap_ok(j, b) for b in block):
                block.append(j)
                break
        else:
            blocks.append([j])
    return tuple(map(tuple, blocks))
