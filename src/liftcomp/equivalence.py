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

The test has three forms. eps_equiv_arrays applies it entrywise to two
stacks of equal-shape tables, row against row, with one verdict per
row. eps_band_mask applies it to one candidate table against a stack of
envelopes: a stack row holds the entrywise minimum lo and maximum hi of
one set of tables, and the mask decides from those two tables alone,
exactly as eps_equiv_arrays against every member would (the grouping
module docstring gives the argument); it is the reference form, and
eacp's mean update uses it. A BandStack keeps its envelopes under one
eps pre-scaled, so BandStack.passes makes eps_band_mask's four
comparisons as one; its docstring gives the argument that the verdicts
stay eps_band_mask's. The factor form, eps_equiv_factors, is
band_matches on a one-row BandStack.

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

commutative_blocks is the one commutativity test. It takes tables that
share one range labelling, as a sequence or a stack, and partitions each
table's axes into blocks whose pairwise swaps keep the table
eps-equivalent, allowing a swap only between axes with equal range
labels. Each swap is decided for the whole stack in one eps_equiv_arrays
call, the package's only call of it; a labelling without two equal
ranges needs no test and no stack. The caller passes the tables in
whatever frame it needs: acp passes its class representatives in their
group frames, one sequence per range labelling, and a single table as a
list of one.
"""

from __future__ import annotations

import copy
import operator
from bisect import bisect_left
from functools import lru_cache
from itertools import permutations
from numbers import Integral, Real
from typing import Iterable, Sequence

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


def check_real(value: float, what: str, below: float, *, closed: bool = False) -> float:
    """value as a float, for a real, non-bool 0 <= value < below (<= below when closed)."""
    # a float skips the check against the Real ABC, which is slow
    if type(value) is not float and (isinstance(value, bool) or not isinstance(value, Real)):
        raise InvariantError(f"{what} must be a real number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:   # an int or fraction past float64 fails the range check
        value = float("inf") if value > 0 else -float("inf")
    if not (0.0 <= value <= below if closed else 0.0 <= value < below):
        end = "]" if closed else ")"
        raise InvariantError(f"{what} must lie in [0, {below:g}{end}, got {value}")
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


def eps_equiv_arrays(x: np.ndarray, y: np.ndarray, eps: float) -> np.ndarray:
    """Per row of two equal-shape stacks of tables: the entrywise band test, one bool a row.

    x and y have shape (rows,) + shape; row r of the result says whether
    x[r] and y[r] are eps-equivalent entry by entry.
    """
    eps = check_epsilon(eps)
    if x.ndim == 0 or x.shape != y.shape:
        raise InvariantError(f"shape mismatch {x.shape} vs {y.shape}: need two stacks of tables")
    c1, c2 = _band(eps)
    hi = np.maximum(x, y)
    lo = np.minimum(x, y)
    ok = (hi <= lo * c1) & (lo >= hi * c2)
    return ok.all(axis=tuple(range(1, ok.ndim)))


def eps_band_mask(lo: np.ndarray, hi: np.ndarray, table: np.ndarray, eps: float) -> np.ndarray:
    """Per row of the (lo, hi) stack: is `table` eps-equivalent to every table it spans?

    lo and hi have shape (rows,) + shape and hold the entrywise minimum
    and maximum of each row's tables; `table` is one candidate of that
    shape. It passes against a row exactly when a <= lo*c1, hi <= a*c1,
    lo >= a*c2 and a >= hi*c2, with c1, c2 the caps eps_equiv_arrays uses.
    """
    c1, c2 = _band(eps)
    ok = (table <= lo * c1) & (hi <= table * c1) & (lo >= table * c2) & (table >= hi * c2)
    return ok.all(axis=tuple(range(1, ok.ndim)))


def put_row(rows: np.ndarray, n: int, table: np.ndarray) -> np.ndarray:
    """rows with `table` stored as row n, in a buffer of twice the length when rows is full."""
    if n == len(rows):
        rows = np.concatenate([rows, np.empty_like(rows)])
    rows[n] = table
    return rows


class BandStack:
    """Envelopes of one table shape under one eps, one row per key, tested in one call.

    Each row starts as a single table (append) and may be widened by more
    tables of the same shape (widen). A row holds the entrywise minimum lo
    and maximum hi of its tables in the form the band test reads: a
    (4, size) block (lo*c1, lo, -hi, -hi*c2) of flat tables, with c1, c2
    the caps of _band(eps). A flat table v passes a row exactly when
    (v, v*c2, -v*c1, -v) <= row entrywise, the four one-sided comparisons
    of eps_band_mask in one.

    The stored products are exact and so are the verdicts. Negation is
    exact, and rounded multiplication by a positive constant is monotone,
    so fl(min(x, y)*c) = min(fl(x*c), fl(y*c)): one np.minimum with
    (t*c1, t, -t, -t*c2) gives bit for bit the row that lo and hi of the
    widened envelope would, and each comparison is the one eps_band_mask
    makes. A product that overflows to inf compares as it does there, so
    it gives the same verdict.

    env holds the filled rows; lo is a view of them and hi the negation of one.
    """

    def __init__(self, shape: tuple[int, ...], eps: float) -> None:
        c1, c2 = _band(check_epsilon(eps))
        self.shape = shape
        self.keys: list[int] = []
        self._view_scale = np.array([[1.0], [c2], [-c1], [-1.0]])     # (v, v*c2, -v*c1, -v)
        self._member_scale = np.array([[c1], [1.0], [-1.0], [-c2]])   # (t*c1, t, -t, -t*c2)
        self._env = np.empty((4, 4, int(np.prod(shape))))
        self.env = self._env[:0]

    @property
    def lo(self) -> np.ndarray:
        return self.env[:, 1].reshape((-1,) + self.shape)

    @property
    def hi(self) -> np.ndarray:
        return -self.env[:, 2].reshape((-1,) + self.shape)

    def append(self, key: int, table: np.ndarray) -> int:
        row = len(self.keys)
        self._env = put_row(self._env, row, table.reshape(1, -1) * self._member_scale)
        self.env = self._env[: row + 1]
        self.keys.append(key)
        return row

    def widen(self, row: int, table: np.ndarray) -> None:
        np.minimum(self._env[row], table.reshape(1, -1) * self._member_scale, out=self._env[row])

    def passes(self, views: np.ndarray) -> np.ndarray:
        """Per view and row: does the row's envelope take the view? (..., size) -> (..., rows).

        views are flat tables in C order, one or a stack of them.
        """
        return (views[..., None, None, :] * self._view_scale <= self.env).all(axis=(-2, -1))

    def rows_from(self, key: int) -> BandStack:
        """The rows of keys >= key, sharing this stack's memory; keys must ascend."""
        row = bisect_left(self.keys, key)
        out = copy.copy(self)
        out.keys = self.keys[row:]
        out._env = out.env = self.env[row:]
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
    stack = BandStack(f1.table.shape, eps)
    stack.append(0, f1.table)
    return band_matches(f2.table, [stack]).get(0)


# largest stack of one table's views, in table entries; above it (arity 6
# and up on binary ranges) views are tested one at a time to bound memory
_GATHER_ENTRIES = 4096


@lru_cache(maxsize=256)
def _fitting_views(
    frame: tuple[int, ...], shape: tuple[int, ...]
) -> tuple[tuple[Alignment, ...], np.ndarray | None]:
    """Range-compatible permutations in lexicographic order, and a gather index.

    Indexing a flat table of `shape` with the index stacks its views in
    `frame` under those permutations, each flat in C order. The index is
    None when no permutation fits, or when the views would exceed
    _GATHER_ENTRIES.
    """
    perms = tuple(p for p in _permutations(len(shape)) if _range_compatible(frame, shape, p))
    size = int(np.prod(shape))
    if not perms or len(perms) * size > _GATHER_ENTRIES:
        return perms, None
    flat = np.arange(size).reshape(shape)
    index = np.stack([aligned_table(flat, p).reshape(-1) for p in perms])
    index.flags.writeable = False
    return perms, index


def band_matches(table: np.ndarray, stacks: Iterable[BandStack]) -> dict[int, Alignment]:
    """Key -> first lexicographic alignment putting `table` inside that key's envelope.

    Only stacks of the table's arity are searched, each under its own eps.
    Each takes one BandStack.passes call on the table's views under every
    range-compatible permutation at once (one call per permutation when
    they are too many to stack), and each row keeps its first hit in
    lexicographic order. Arity above ARITY_CAP is refused, by
    _permutations, as soon as one such stack exists.
    """
    arity = table.ndim
    found: dict[int, Alignment] = {}
    for stack in stacks:
        if len(stack.shape) != arity:
            continue
        perms, index = _fitting_views(stack.shape, table.shape)
        if index is not None:
            hits = stack.passes(table.reshape(-1)[index])
        elif perms:
            hits = np.array([stack.passes(aligned_table(table, p).reshape(-1)) for p in perms])
        else:
            continue
        first = hits.argmax(axis=0)
        for row in hits.any(axis=0).nonzero()[0]:
            found[stack.keys[row]] = perms[first[row]]
    return found


@lru_cache(maxsize=256)
def _swap_pairs(ranges: tuple[tuple[str, ...], ...]) -> tuple[tuple[int, int], ...]:
    """Axis pairs (i, j), i < j, with equal range labels, ordered by j, then i."""
    return tuple((i, j) for j in range(len(ranges)) for i in range(j) if ranges[i] == ranges[j])


@lru_cache(maxsize=1024)
def _greedy_blocks(arity: int, pairs: tuple, passed: tuple) -> tuple[tuple[int, ...], ...]:
    """Each axis in turn joins the first block it passes the swap test with entirely.

    pairs are _swap_pairs of the ranges; passed holds each pair's verdict, a bool.
    """
    swaps = {pair for pair, ok in zip(pairs, passed) if ok}
    blocks: list[list[int]] = []
    for j in range(arity):
        for block in blocks:
            if all((b, j) in swaps for b in block):
                block.append(j)
                break
        else:
            blocks.append([j])
    return tuple(map(tuple, blocks))


def commutative_blocks(
    tables: Sequence[np.ndarray] | np.ndarray, eps: float, ranges: tuple[tuple[str, ...], ...]
) -> list[tuple[tuple[int, ...], ...]]:
    """Per table: the greedy clique partition of its axes under the swap test.

    `tables` is a sequence of tables or a stack of shape (rows,) + shape,
    and `ranges` holds the range labels of each axis, shared by every
    table, whose shape they must fix. Two axes pass the swap test when
    their labels are equal and swapping them yields an eps-equivalent
    table. Only a labelling with such a pair stacks the tables and tests
    each pair for the whole stack in one eps_equiv_arrays call; any other
    gives every table singleton blocks with no copy. Each axis in turn
    joins the first block all of whose axes it passes with, or opens a
    new block.
    Pairwise transpositions rather than all block permutations: with
    eps > 0 the relation is not transitive, matching the pairwise
    grouping stance used everywhere else. Blocks are disjoint, cover all
    axes, and are listed by first axis.
    """
    eps = check_epsilon(eps)
    shape = tuple(map(len, ranges))
    for table in tables:
        if table.shape != shape:
            if table.ndim != len(shape):
                raise InvariantError(f"ranges arity {len(shape)} != table arity {table.ndim}")
            raise InvariantError(f"table shape {table.shape} != range sizes {shape}")
    pairs = _swap_pairs(ranges)
    if not pairs or len(tables) == 0:
        return [_greedy_blocks(len(shape), (), ())] * len(tables)
    tables = np.stack(tables)
    verdicts = [eps_equiv_arrays(tables, np.swapaxes(tables, i + 1, j + 1), eps).tolist()
                for i, j in pairs]
    return [_greedy_blocks(len(shape), pairs, row) for row in zip(*verdicts)]
