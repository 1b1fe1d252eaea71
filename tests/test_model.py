"""Core model types, joint evaluation, and file round-trips."""

from __future__ import annotations

import json
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liftcomp import (
    DEFAULT_ENUM_CAP,
    EPS_DOMAIN,
    EnumerationCapError,
    Evidence,
    Factor,
    FactorGraph,
    InvariantError,
    ModelFormatError,
    Query,
    RandomVariable,
    colour_pass,
    fg_equal,
    joint_table,
    load_evidence,
    load_fg,
    replace_tables,
    resolve_cap,
    run_eacp,
    save_fg,
    save_pfg,
    worst_case_fg,
)
from liftcomp.model import _kinds, clamp

from conftest import (
    UNPARSEABLE_MODELS,
    counting_model,
    free_star,
    mixed_range_model,
    random_model,
    sales_model,
)


class TestRandomVariable:
    def test_basic(self):
        rv = RandomVariable("R", ("a", "b", "c"))
        assert rv.size == 3
        assert rv.index_of("b") == 1

    def test_rejects_short_range(self):
        with pytest.raises(InvariantError):
            RandomVariable("R", ("a",))

    def test_rejects_duplicate_labels(self):
        with pytest.raises(InvariantError):
            RandomVariable("R", ("a", "a"))

    def test_unknown_label(self):
        with pytest.raises(InvariantError):
            RandomVariable("R", ("a", "b")).index_of("z")

    def test_rejects_empty_name(self):
        with pytest.raises(InvariantError, match="random variable name must be non-empty"):
            RandomVariable("", ("a", "b"))

    @pytest.mark.parametrize("name", [5, None, b"X", ("X",)])
    def test_name_must_be_a_str(self, name):
        with pytest.raises(InvariantError, match="name must be non-empty and a str"):
            RandomVariable(name, ("a", "b"))

    @pytest.mark.parametrize("labels", [None, "ab", (1, 2), ("a", 2), ("a", ""), {"a", "b"}])
    def test_range_must_be_a_tuple_or_list_of_strs(self, labels):
        # Evidence takes only str labels, so an rv over (1, 2) could never be observed
        with pytest.raises(InvariantError, match="range must be a tuple or list of non-empty strs"):
            RandomVariable("X", labels)

    def test_list_range_is_kept_as_a_tuple(self):
        assert RandomVariable("X", ["a", "b"]).range == ("a", "b")


class TestFactor:
    def test_rejects_no_args(self):
        with pytest.raises(InvariantError, match="at least one argument"):
            Factor("c", (), np.array(2.0))

    def test_rejects_empty_name(self):
        with pytest.raises(InvariantError, match="factor name must be non-empty"):
            Factor("", ("X",), np.ones(2))

    @pytest.mark.parametrize("name", [5, None, ("f",)])
    def test_name_must_be_a_str(self, name):
        with pytest.raises(InvariantError, match="name must be non-empty and a str"):
            Factor(name, ("X",), np.ones(2))

    @pytest.mark.parametrize("args", [None, "X", ("X", 3), ("",), iter(["X"])])
    def test_args_must_be_a_tuple_or_list_of_strs(self, args):
        with pytest.raises(InvariantError, match="args must be a tuple or list of non-empty strs"):
            Factor("f", args, np.ones(2))

    @pytest.mark.parametrize("table", [
        np.array([1 + 1j, 2]),   # numpy would keep [1., 2.] with a ComplexWarning
        "x", {}, [[1], [2, 3]], 10**400, [1, 10**400], [True, False], None, [b"a", b"b"],
    ])
    def test_table_must_be_int_or_float(self, table):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvariantError, match="table must be int or float"):
                Factor("f", ("X",), table)

    def test_rejects_duplicate_args(self):
        with pytest.raises(InvariantError):
            Factor("f", ("X", "X"), np.ones((2, 2)))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(InvariantError):
            Factor("f", ("X", "Y"), np.ones(4))

    def test_rejects_nonpositive(self):
        with pytest.raises(InvariantError):
            Factor("f", ("X",), np.array([1.0, 0.0]))
        with pytest.raises(InvariantError):
            Factor("f", ("X",), np.array([1.0, -2.0]))

    def test_rejects_nonfinite(self):
        with pytest.raises(InvariantError):
            Factor("f", ("X",), np.array([1.0, np.inf]))

    @pytest.mark.parametrize("entries", [
        [1.0, 2.0], [np.nan, 1.0], [1.0, np.nan], [np.inf, 1.0], [1.0, -np.inf],
        [0.0, 1.0], [-0.0, 1.0], [1.0, -2.0], [np.nan, np.inf], [-np.inf, np.inf],
        [5e-324, 1.7976931348623157e308], [], [[np.nan, 1.0], [2.0, 0.0]],
        [[1.0, 2.0], [3.0, np.inf]], [[1.0, 2.0], [3.0, 4.0]],
    ])
    def test_accepts_exactly_positive_finite_tables(self, entries):
        table = np.array(entries, dtype=np.float64)
        args = ("X", "Y")[: table.ndim]
        valid = bool(np.all(np.isfinite(table)) and np.all(table > 0.0))
        if valid:
            assert Factor("f", args, table).table.tobytes() == table.tobytes()
        else:
            with pytest.raises(InvariantError, match="strictly positive and finite"):
                Factor("f", args, table)

    def test_table_is_readonly(self):
        f = Factor("f", ("X",), np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            f.table[0] = 3.0

    def test_callers_array_stays_writeable(self):
        # a C-contiguous float64 array needs no conversion; the factor must
        # still not freeze the caller's own array
        t = np.array([[1.0, 2.0], [3.0, 4.0]])
        f = Factor("f", ("X", "Y"), t)
        assert t.flags.writeable
        assert not f.table.flags.writeable
        assert f.table.tobytes() == t.tobytes()
        t[0, 0] = 5.0
        with pytest.raises(ValueError):
            f.table[0, 0] = 6.0

    def test_writing_callers_array_leaves_table(self):
        t = np.array([[1.0, 2.0], [3.0, 4.0]])
        f = Factor("f", ("X", "Y"), t)
        t[0, 0] = -5.0
        assert f.table.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_view_of_writeable_base_is_copied(self):
        base = np.array([[1.0, 2.0], [3.0, 4.0]])
        view = base.view()
        view.flags.writeable = False
        f = Factor("f", ("X", "Y"), view)
        assert f.table is not view and not np.shares_memory(f.table, base)
        base[0, 0] = 5.0
        assert f.table[0, 0] == 1.0

    def test_other_dtypes_are_converted(self):
        for t in (np.array([[1, 2], [3, 4]]), np.array([[1.0, 2.0], [3.0, 4.0]], np.float32),
                  [[1.0, 2.0], [3.0, 4.0]]):
            f = Factor("f", ("X", "Y"), t)
            assert f.table.dtype == np.float64
            assert f.table.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_frozen_array_is_shared(self):
        t = np.array([[1.0, 2.0], [3.0, 4.0]])
        t.flags.writeable = False
        assert Factor("f", ("X", "Y"), t).table is t
        # the same array frozen but not C-contiguous is copied
        assert Factor("f", ("X", "Y"), t.T).table is not t.T

    def test_row_major_layout(self):
        # last argument varies fastest in the file's flat listing
        t = np.array([[1.0, 2.0], [3.0, 4.0]])
        f = Factor("f", ("X", "Y"), t)
        rvs = (RandomVariable("X", ("a", "b")), RandomVariable("Y", ("a", "b")))
        doc = json.loads(save_fg(FactorGraph(rvs, (f,))))
        assert doc["factors"][0]["table"] == [1.0, 2.0, 3.0, 4.0]
        assert f.table[0, 1] == 2.0


class TestFactorGraph:
    def test_duplicate_rv_names(self):
        rvs = (RandomVariable("X", ("a", "b")), RandomVariable("X", ("a", "b")))
        with pytest.raises(InvariantError):
            FactorGraph(rvs, ())

    def test_undeclared_arg(self):
        rvs = (RandomVariable("X", ("a", "b")),)
        f = Factor("f", ("Y",), np.ones(2))
        with pytest.raises(InvariantError):
            FactorGraph(rvs, (f,))

    def test_shape_vs_ranges(self):
        rvs = (RandomVariable("X", ("a", "b", "c")),)
        f = Factor("f", ("X",), np.ones(2))
        with pytest.raises(InvariantError):
            FactorGraph(rvs, (f,))

    def test_isolated_rv_warns(self):
        rvs = (RandomVariable("X", ("a", "b")), RandomVariable("Y", ("a", "b")))
        f = Factor("f", ("X",), np.ones(2))
        with pytest.warns(UserWarning):
            FactorGraph(rvs, (f,))

    def test_lookup(self, sales):
        assert sales.rv("Rev").size == 2
        assert sales.factor("phi1").arity == 2
        assert sales.rv_position("SalB") == 1
        assert sales.shape == (2, 2, 2)
        assert sales.state_count() == 8


def full_shape_joint(fg):
    """Reference: every factor broadcast-multiplied into the full joint shape."""
    joint = np.ones(fg.shape, dtype=np.float64)
    n = len(fg.rvs)
    for f in fg.factors:
        axes = [fg.rv_position(arg) for arg in f.args]
        expand = [1] * n
        for axis, size in zip(axes, f.table.shape):
            expand[axis] = size
        moved = np.transpose(f.table, tuple(np.argsort(axes)))
        dest = sorted(axes)
        joint *= moved.reshape([expand[i] if i in dest else 1 for i in range(n)])
    return joint


def sequential_joint(fg):
    """Reference: each state's factor entries gathered and multiplied in declaration order."""
    grid = np.indices(fg.shape, sparse=True)
    value = np.ones(fg.shape, dtype=np.float64)
    for f in fg.factors:
        value = value * f.table[tuple(grid[fg.rv_position(arg)] for arg in f.args)]
    return value


def assert_joint_bit_identical(fg):
    joint = joint_table(fg)
    assert joint.shape == fg.shape and joint.flags.c_contiguous
    assert joint.tobytes() == full_shape_joint(fg).tobytes()
    assert joint.tobytes() == sequential_joint(fg).tobytes()


class TestJointEvaluation:
    def test_partition_function_value(self, sales):
        assert joint_table(sales).sum() == pytest.approx(1.874, abs=1e-12)

    def test_joint_table_matches_bruteforce(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            fg = random_model(rng, max_rvs=5, max_factors=5)
            joint = joint_table(fg)
            for idx in np.ndindex(fg.shape):
                by_hand = 1.0
                for f in fg.factors:
                    by_hand *= f.table[tuple(idx[fg.rv_position(arg)] for arg in f.args)]
                assert joint[idx] == pytest.approx(by_hand, rel=1e-12)

    def test_joint_table_bytes_on_random_models(self):
        rng = np.random.default_rng(2024)
        unsorted = isolated = 0
        for _ in range(300):
            fg = mixed_range_model(rng)
            assert_joint_bit_identical(fg)
            unsorted += any(
                [fg.rv_position(a) for a in f.args] != sorted(fg.rv_position(a) for a in f.args)
                for f in fg.factors
            )
            touched = {a for f in fg.factors for a in f.args}
            isolated += any(rv.name not in touched for rv in fg.rvs)
        # the sample holds both layouts the kernel must handle
        assert unsorted > 50 and isolated > 50

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
    def test_joint_table_bytes_on_worst_case(self, m):
        for eps in (EPS_DOMAIN[0], EPS_DOMAIN[-1]):
            assert_joint_bit_identical(worst_case_fg(m, eps))

    @pytest.mark.parametrize("k", [4, 5])
    def test_joint_table_bytes_on_free_stars(self, k):
        assert_joint_bit_identical(free_star(k, 4))

    def test_held_slab_bytes_match_full_joint_slice(self):
        rng = np.random.default_rng(77)
        all_held_factor = zero_d = 0
        for _ in range(300):
            fg = mixed_range_model(rng)
            joint = joint_table(fg)
            held_rvs = [rv for rv in fg.rvs if rng.random() < 0.5]
            held = {rv.name: int(rng.integers(rv.size)) for rv in held_rvs}
            slab = joint_table(fg, held)
            cell = tuple(held.get(rv.name, slice(None)) for rv in fg.rvs)
            assert slab.shape == joint[cell].shape and slab.flags.c_contiguous
            assert slab.tobytes() == joint[cell].tobytes()
            all_held_factor += any(set(f.args) <= held.keys() for f in fg.factors)
            zero_d += slab.ndim == 0
        assert all_held_factor > 50 and zero_d > 10

    def test_clamp_shares_what_it_does_not_fix(self, sales):
        # with no argument held the caller's tuple and array come back,
        # not a view; a held RV outside the arguments holds none of them
        for held in ({}, {"Nope": 0}):
            for f in sales.factors:
                args, table = clamp(f.args, f.table, held)
                assert args is f.args and table is f.table
        f = sales.factors[0]
        args, table = clamp(f.args, f.table, {f.args[0]: 1})
        assert args == f.args[1:] and table.base is f.table
        assert table.tobytes() == f.table[1].tobytes()

    def test_held_rvs_checked(self, sales):
        with pytest.raises(InvariantError):
            joint_table(sales, {"Nope": 0})
        with pytest.raises(InvariantError):
            joint_table(sales, {"Rev": 2})
        with pytest.raises(InvariantError):
            joint_table(sales, {"Rev": -1})

    @pytest.mark.parametrize("k", [0.5, 1.0, True, "1", None])
    def test_held_index_must_be_an_int(self, sales, k):
        with pytest.raises(InvariantError, match="held index"):
            joint_table(sales, {"Rev": k})


class TestEnumerationCap:
    def test_cap_raises(self, sales, monkeypatch):
        monkeypatch.setenv("LIFTCOMP_ENUM_CAP", "4")
        with pytest.raises(EnumerationCapError):
            joint_table(sales)

    def test_cap_checked_before_any_allocation(self, monkeypatch):
        # 2^22 states against a 2^20 cap: building any prefix past the cap
        # first would trace megabytes
        rvs = tuple(RandomVariable(f"V{i}", ("a", "b")) for i in range(22))
        factors = tuple(
            Factor(f"f{i}", (f"V{i}", f"V{i + 1}"), np.full((2, 2), 0.5)) for i in range(21)
        )
        fg = FactorGraph(rvs, factors)
        monkeypatch.setenv("LIFTCOMP_ENUM_CAP", str(2**20))
        tracemalloc.start()
        try:
            with pytest.raises(EnumerationCapError):
                joint_table(fg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**16

    def test_cap_counts_held_rvs(self, sales, monkeypatch):
        # the cap bounds the whole joint, not the slab
        monkeypatch.setenv("LIFTCOMP_ENUM_CAP", "4")
        with pytest.raises(EnumerationCapError):
            joint_table(sales, {"SalA": 0, "SalB": 1})

    def test_cap_env_override(self, sales, monkeypatch):
        monkeypatch.setenv("LIFTCOMP_ENUM_CAP", "4")
        assert resolve_cap() == 4
        with pytest.raises(EnumerationCapError):
            joint_table(sales)

    def test_default_cap(self):
        assert resolve_cap() == DEFAULT_ENUM_CAP

    @pytest.mark.parametrize("value", ["abc", "1.5", "", "0", "-4"])
    def test_cap_env_must_be_a_positive_integer(self, monkeypatch, value):
        monkeypatch.setenv("LIFTCOMP_ENUM_CAP", value)
        with pytest.raises(InvariantError, match="LIFTCOMP_ENUM_CAP must be a positive integer"):
            resolve_cap()


class TestEvidence:
    def test_duplicate_rv_rejected(self):
        with pytest.raises(InvariantError):
            Evidence((("X", "a"), ("X", "b")))

    def test_validate_against(self, sales):
        Evidence((("Rev", "high"),)).validate_against(sales)
        with pytest.raises(InvariantError):
            Evidence((("Nope", "high"),)).validate_against(sales)
        with pytest.raises(InvariantError):
            Evidence((("Rev", "nope"),)).validate_against(sales)

    def test_bool(self):
        assert not Evidence()
        assert Evidence((("X", "a"),))

    @pytest.mark.parametrize(
        "items", ["A=b", (("A",),), (("A", "b", "c"),), ("ab",), (None,), 3, None]
    )
    def test_rejects_malformed_pairs(self, items):
        with pytest.raises(InvariantError, match="pairs"):
            Evidence(items)

    @pytest.mark.parametrize(
        "pair", [("Hub", None), ("Hub", 1), (1, "true"), ("Hub", ""), (b"Hub", "true")]
    )
    def test_names_and_labels_must_be_non_empty_strs(self, pair):
        # nothing is coerced: str(None) or str(1) could match a real label
        with pytest.raises(InvariantError, match="pairs"):
            Evidence((pair,))

    @pytest.mark.parametrize("evidence", [(("SalA", "high"),), {"SalA": "high"}, None])
    @pytest.mark.parametrize("caller", ["Query", "run_eacp", "colour_pass"])
    def test_callers_require_an_evidence(self, sales, caller, evidence):
        calls = {
            "Query": lambda: Query("Rev", evidence),
            "run_eacp": lambda: run_eacp(sales, 0.1, evidence),
            "colour_pass": lambda: colour_pass(
                sales, {"phi1": 0, "phi2": 0}, evidence,
                alignments={"phi1": (0, 1), "phi2": (0, 1)}, eps=0.0,
            ),
        }
        with pytest.raises(InvariantError, match="must be an Evidence"):
            calls[caller]()


class TestIndex:
    def model(self):
        # declared out of name order; "D" is in no scope
        rvs = tuple(RandomVariable(n, ("a", "b")) for n in ("C", "A", "D", "B"))
        factors = (
            Factor("f0", ("C", "A"), np.ones((2, 2))),
            Factor("f1", ("B",), np.ones(2)),
            Factor("f2", ("A", "B", "C"), np.ones((2, 2, 2))),
        )
        with pytest.warns(UserWarning, match="isolated rvs"):
            return FactorGraph(rvs, factors)

    def test_numbers_follow_sorted_names(self):
        index = self.model()._index
        assert index.number == {"A": 0, "B": 1, "C": 2, "D": 3}
        assert index.args == ((2, 0), (1,), (0, 1, 2))

    def test_holders_follow_declaration_order(self):
        index = self.model()._index
        assert index.holders == ((0, 2), (1, 2), (0, 2), ())
        assert [sorted(nb) for nb in index.neighbours] == [[1, 2], [0, 2], [0, 1], []]

    def test_isolated_rv_has_no_holders(self):
        fg = self.model()
        assert fg._index.holders[fg._index.number["D"]] == ()
        assert fg._index.neighbours[fg._index.number["D"]] == ()

    def test_replace_tables_shares_the_index(self, sales):
        new = replace_tables(sales, {"phi1": np.full((2, 2), 0.5)})
        assert new._index is sales._index

    def test_seeded_degrees_and_heap(self):
        index = self.model()._index
        assert index.degree == tuple(len(nb) for nb in index.neighbours) == (2, 2, 2, 0)
        n = len(index.degree)
        assert sorted(index.seed) == sorted(d * n + v for v, d in enumerate(index.degree))
        assert all(
            index.seed[i] <= index.seed[c]
            for i in range(n) for c in (2 * i + 1, 2 * i + 2) if c < n
        )

    def test_replace_tables_shares_seeds_and_kinds(self):
        fg = self.model()
        # a transposed view of the old shape: the factor copies it C-ordered
        tables = {"f1": np.full(2, 0.5), "f2": np.full((2, 2, 2), 0.5).transpose(2, 0, 1)}
        new = replace_tables(fg, tables)
        assert new._index.degree is fg._index.degree
        assert new._index.seed is fg._index.seed
        assert new._kinds is fg._kinds
        assert list(new._kinds) == _kinds([f.table for f in new.factors], {})

    def test_kinds_follow_layouts(self):
        # tables of one shape share a layout: a factor holds its table in
        # C order, be it given a transposed view
        assert len(set(self.model()._kinds)) == 3
        twin = FactorGraph(
            (RandomVariable("A", ("a", "b")), RandomVariable("B", ("a", "b"))),
            (
                Factor("g0", ("A", "B"), np.ones((2, 2))),
                Factor("g1", ("B", "A"), np.arange(1.0, 5.0).reshape(2, 2).T),
                Factor("g2", ("A",), np.ones(2)),
            ),
        )
        assert twin._kinds[0] == twin._kinds[1] != twin._kinds[2]


class TestReplaceTables:
    def test_structure_preserved(self, sales):
        new = replace_tables(sales, {"phi1": np.full((2, 2), 0.5)})
        assert new.factor("phi1").table[0, 0] == 0.5
        assert new.factor("phi2").table is sales.factor("phi2").table
        assert [f.name for f in new.factors] == [f.name for f in sales.factors]

    def test_unknown_factor(self, sales):
        with pytest.raises(InvariantError):
            replace_tables(sales, {"nope": np.ones((2, 2))})

    def test_shape_change_rejected(self, sales):
        with pytest.raises(InvariantError):
            replace_tables(sales, {"phi1": np.ones((2, 3))})

    def test_indexes_follow_new_tables(self, sales):
        new = replace_tables(sales, {"phi1": np.full((2, 2), 0.5)})
        assert new.factor("phi1") is new.factors[0]
        assert sales.factor("phi1").table[0, 0] == 0.75
        assert new.rv("Rev") is sales.rv("Rev")


    def test_lookup_finds_replaced_factor(self, sales):
        new = replace_tables(sales, {"phi2": np.full((2, 2), 0.5)})
        assert new.factor("phi2") is new.factors[1]
        assert new.factor("phi2").table.tolist() == [[0.5, 0.5], [0.5, 0.5]]
        assert new.factor("phi1") is sales.factor("phi1")
        with pytest.raises(InvariantError, match="unknown factor 'nope'"):
            new.factor("nope")


class TestFgEqual:
    def test_reflexive(self, sales):
        assert fg_equal(sales, sales)

    def test_detects_table_change(self, sales):
        other = replace_tables(sales, {"phi1": sales.factor("phi1").table * (1 + 1e-16)})
        assert fg_equal(sales, other)  # multiplying by (1+1e-16) rounds to identity
        other2 = replace_tables(sales, {"phi1": sales.factor("phi1").table * (1 + 1e-12)})
        assert not fg_equal(sales, other2)

    def test_detects_structure_change(self, sales):
        phi1, phi2 = sales.factors
        extra = Factor("phi3", ("Rev",), np.ones(2))
        assert not fg_equal(sales, FactorGraph(sales.rvs, (phi1, phi2, extra)))
        renamed = FactorGraph(sales.rvs, (phi1, Factor("phi3", phi2.args, phi2.table)))
        assert not fg_equal(sales, renamed)
        flipped = FactorGraph(sales.rvs, (phi1, Factor("phi2", phi2.args[::-1], phi2.table.T)))
        assert not fg_equal(sales, flipped)


_X = {"name": "X", "range": ["a", "b"]}
_F = {"name": "f", "args": ["X"], "table": [1.0, 2.0]}


_RV = '{"name": "X", "range": ["a", "b"]}'


def _model(rvs: list[str], factors: list[str]) -> str:
    """A model file from JSON fragments, which may hold NaN, Infinity or huge ints."""
    return '{"rvs": [%s], "factors": [%s]}' % (", ".join(rvs), ", ".join(factors))


def _fac(table: str, args: str = '["X"]', name: str = '"f"') -> str:
    return '{"name": %s, "args": %s, "table": %s}' % (name, args, table)


# each malformed file and load_fg's exact message for it
MALFORMED_MODELS = [
    pytest.param(
        _model([_RV], [_fac("[1.0, true]")]),
        'factors[0].table[1]: expected a number',
        id='table-bool',
    ),
    pytest.param(
        _model([_RV], [_fac('[1.0, "2"]')]),
        'factors[0].table[1]: expected a number',
        id='table-string',
    ),
    pytest.param(
        _model([_RV], [_fac("[null, 1.0]")]),
        'factors[0].table[0]: expected a number',
        id='table-null',
    ),
    pytest.param(
        _model([_RV], [_fac("[[1.0], 2.0]")]),
        'factors[0].table[0]: expected a number',
        id='table-nested',
    ),
    pytest.param(
        _model([_RV], [_fac("[1.0, 1" + "0" * 400 + "]")]),
        'factors[0].table[1]: number outside the float64 range',
        id='table-huge-int',
    ),
    pytest.param(
        _model([_RV], [_fac("[1" + "0" * 400 + ", false]")]),
        'factors[0].table[0]: number outside the float64 range',
        id='table-huge-int-then-bool',
    ),
    pytest.param(
        _model([_RV], [_fac("[NaN, 1.0]")]),
        "factors[0]: factor 'f': table entries must be strictly positive and finite",
        id='table-nan',
    ),
    pytest.param(
        _model([_RV], [_fac("[1.0, Infinity]")]),
        "factors[0]: factor 'f': table entries must be strictly positive and finite",
        id='table-infinity',
    ),
    pytest.param(
        _model([_RV], [_fac("[-Infinity, 1.0]")]),
        "factors[0]: factor 'f': table entries must be strictly positive and finite",
        id='table-minus-infinity',
    ),
    pytest.param(
        _model([_RV], [_fac("[0, 1.0]")]),
        "factors[0]: factor 'f': table entries must be strictly positive and finite",
        id='table-zero',
    ),
    pytest.param(
        _model([_RV], [_fac("1.0")]),
        'factors[0].table: expected an array, got float',
        id='table-not-array',
    ),
    pytest.param(
        _model([_RV], ['{"name": "f", "args": ["X"]}']),
        'factors[0].table: expected an array, got NoneType',
        id='table-missing',
    ),
    pytest.param(
        _model([_RV], [_fac("[1.0, 2.0, 3.0]")]),
        'factors[0].table: length 3 != expected 2 (product of argument range sizes)',
        id='table-too-long',
    ),
    pytest.param(
        _model([_RV], [_fac("[1.0]")]),
        'factors[0].table: length 1 != expected 2 (product of argument range sizes)',
        id='table-too-short',
    ),
    pytest.param(
        _model([_RV], [_fac("[2.0]", args="[]")]),
        "factors[0]: factor 'f': needs at least one argument",
        id='args-empty',
    ),
    pytest.param(
        _model([_RV], [_fac("[1.0, 2.0]", args='[""]')]),
        'factors[0].args[0]: must be non-empty',
        id='args-empty-string',
    ),
    pytest.param(
        _model([_RV], [_fac("[1.0, 2.0]", args="[1]")]),
        'factors[0].args[0]: expected a string, got int',
        id='args-non-string',
    ),
    pytest.param(
        _model([_RV], [_fac("[1.0, 2.0]", args='["Y"]')]),
        "factors[0].args[0]: undeclared rv 'Y'",
        id='args-undeclared',
    ),
    pytest.param(
        _model([_RV], [_fac("[1.0, 2.0]", args='["Y", 1]')]),
        'factors[0].args[1]: expected a string, got int',
        id='args-undeclared-then-non-string',
    ),
    pytest.param(
        _model([_RV], [_fac("[1.0, 2.0]", args='[["X"]]')]),
        'factors[0].args[0]: expected a string, got list',
        id='args-nested',
    ),
    pytest.param(
        _model([_RV], [_fac("[true]", args='["Y"]')]),
        "factors[0].args[0]: undeclared rv 'Y'",
        id='args-undeclared-bad-table',
    ),
    pytest.param(
        _model(['{"name": "X", "range": ["a", ""]}'], []),
        'rvs[0].range[1]: must be non-empty',
        id='rv-label-empty',
    ),
    pytest.param(
        _model([_RV], [_fac("[1.0, 2.0]", args='"X"')]),
        'factors[0].args: expected an array, got str',
        id='args-not-array',
    ),
    pytest.param(
        _model([_RV], [_fac("[1, 2, 3, 4]", args='["X", "X"]')]),
        "factors[0]: factor 'f': argument RVs are not distinct",
        id='args-repeated',
    ),
    pytest.param(
        _model([_RV], ['{"args": ["X"], "table": [1.0, 2.0]}']),
        'factors[0].name: expected a string, got NoneType',
        id='factor-name-missing',
    ),
    pytest.param(
        _model([_RV], [_fac("[1.0, 2.0]", name='""')]),
        'factors[0].name: must be non-empty',
        id='factor-name-empty',
    ),
    pytest.param(
        _model([_RV], ['["f"]']),
        'factors[0]: expected an object, got list',
        id='factor-not-object',
    ),
    pytest.param(
        _model([_RV], [_fac("[1.0, 2.0]"), _fac("[1.0, 2.0]")]),
        "$: duplicate factor name 'f'",
        id='duplicate-factor',
    ),
    pytest.param(
        _model([_RV, _RV], [_fac("[1.0, 2.0]")]),
        "$: duplicate rv name 'X'",
        id='duplicate-rv',
    ),
    pytest.param(
        _model(['"X"'], []),
        'rvs[0]: expected an object, got str',
        id='rv-not-object',
    ),
    pytest.param(
        _model(['{"name": 3, "range": ["a", "b"]}'], []),
        'rvs[0].name: expected a string, got int',
        id='rv-name-non-string',
    ),
    pytest.param(
        _model(['{"name": "", "range": ["a", "b"]}'], []),
        'rvs[0].name: must be non-empty',
        id='rv-name-empty',
    ),
    pytest.param(
        _model(['{"name": "X", "range": "ab"}'], []),
        'rvs[0].range: expected an array, got str',
        id='rv-range-not-array',
    ),
    pytest.param(
        _model(['{"name": "X", "range": ["a", 2]}'], []),
        'rvs[0].range[1]: expected a string, got int',
        id='rv-label-non-string',
    ),
    pytest.param(
        _model(['{"name": "X", "range": ["a"]}'], []),
        "rvs[0]: rv 'X': range needs at least 2 labels, got 1",
        id='rv-one-label',
    ),
    pytest.param(
        _model(['{"name": "X", "range": ["a", "a"]}'], []),
        "rvs[0]: rv 'X': range labels are not distinct",
        id='rv-repeated-labels',
    ),
    pytest.param(
        "[]",
        '$: expected an object, got list',
        id='doc-not-object',
    ),
    pytest.param(
        '{"rvs": {}, "factors": []}',
        'rvs: expected an array, got dict',
        id='rvs-not-array',
    ),
    pytest.param(
        '{"rvs": []}',
        "$: missing key 'factors'",
        id='factors-missing',
    ),
]


class TestIo:
    def test_round_trip(self, sales):
        data = save_fg(sales)
        back = load_fg(data)
        assert fg_equal(sales, back)

    def test_round_trip_random(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            fg = random_model(rng, max_rvs=6, max_factors=6)
            assert fg_equal(fg, load_fg(save_fg(fg)))

    def test_malformed_json(self):
        with pytest.raises(ModelFormatError):
            load_fg(b"{nope")

    def test_missing_key_has_path(self):
        with pytest.raises(ModelFormatError, match="factors"):
            load_fg(b'{"rvs": []}')

    def test_bad_table_length_has_path(self):
        doc = {
            "rvs": [{"name": "X", "range": ["a", "b"]}],
            "factors": [{"name": "f", "args": ["X"], "table": [1.0, 2.0, 3.0]}],
        }
        with pytest.raises(ModelFormatError, match=r"factors\[0\]"):
            load_fg(json.dumps(doc))

    def test_rejects_bool_entries(self):
        doc = {
            "rvs": [{"name": "X", "range": ["a", "b"]}],
            "factors": [{"name": "f", "args": ["X"], "table": [1.0, True]}],
        }
        with pytest.raises(ModelFormatError):
            load_fg(json.dumps(doc))

    def test_rejects_nonpositive_table(self):
        doc = {
            "rvs": [{"name": "X", "range": ["a", "b"]}],
            "factors": [{"name": "f", "args": ["X"], "table": [1.0, 0.0]}],
        }
        with pytest.raises(ModelFormatError):
            load_fg(json.dumps(doc))

    @pytest.mark.parametrize("data, message", MALFORMED_MODELS)
    def test_malformed_model_message(self, data, message):
        with pytest.raises(ModelFormatError) as caught:
            load_fg(data)
        assert str(caught.value) == message

    @pytest.mark.parametrize("name", sorted(UNPARSEABLE_MODELS))
    def test_unparseable_numbers_and_nesting(self, name):
        data, message = UNPARSEABLE_MODELS[name]
        with pytest.raises(ModelFormatError, match=message):
            load_fg(data)

    # the model's own checks, reported at the entry that breaks them
    @pytest.mark.parametrize(
        "rvs, factors, path",
        [
            pytest.param([{"name": "X", "range": ["a"]}], [], r"rvs\[0\]", id="one-label-range"),
            pytest.param(
                [{"name": "X", "range": ["a", "a"]}], [], r"rvs\[0\]", id="repeated-labels"
            ),
            pytest.param([_X, _X], [_F], r"\$", id="duplicate-rv"),
            # the table fits the second declaration; the repeat is the error
            pytest.param(
                [_X, {"name": "X", "range": ["a", "b", "c"]}],
                [{**_F, "table": [1.0, 2.0, 3.0]}],
                r"\$",
                id="duplicate-rv-other-size",
            ),
            pytest.param(
                [_X], [{**_F, "args": [], "table": [2.0]}], r"factors\[0\]", id="no-arguments"
            ),
            pytest.param([_X], [_F, _F], r"\$", id="duplicate-factor"),
            pytest.param(
                [_X],
                [{"name": "f", "args": ["X", "X"], "table": [1.0] * 4}],
                r"factors\[0\]",
                id="repeated-arguments",
            ),
            pytest.param(
                [_X], [{**_F, "table": [float("nan"), 1.0]}], r"factors\[0\]", id="nan-entry"
            ),
        ],
    )
    def test_model_checks_at_entry_path(self, rvs, factors, path):
        with pytest.raises(ModelFormatError, match=f"^{path}: "):
            load_fg(json.dumps({"rvs": rvs, "factors": factors}))

    def test_loaded_tables_are_built_once(self, sales):
        # each table is one frozen array owning its data, which Factor shares
        for f in load_fg(save_fg(sales)).factors:
            assert f.table.flags.owndata and not f.table.flags.writeable

    def test_save_preserves_exact_floats(self):
        # repr round-trip: every float comes back bit-identical
        rng = np.random.default_rng(14)
        fg = random_model(rng, max_rvs=4, max_factors=4)
        back = load_fg(save_fg(fg))
        for f, g in zip(fg.factors, back.factors):
            assert np.array_equal(f.table, g.table)

    def test_evidence_malformed(self):
        with pytest.raises(ModelFormatError):
            load_evidence(b'{"evidence": [{"rv": "X"}]}')
        with pytest.raises(ModelFormatError, match=r"^\$: missing key 'evidence'$"):
            load_evidence(b'{"observed": []}')

    def test_pfg_file_lists_counted_positions(self, sales):
        # ComA and ComB commute in phi1: its parfactor counts them, one
        # histogram row per multiset of their labels
        (counted,) = json.loads(save_pfg(run_eacp(counting_model(), 0.1).pfg))["parfactors"]
        assert counted["crv"] == {"positions": [1, 2], "histograms": [[2, 0], [1, 1], [0, 2]]}
        (plain,) = json.loads(save_pfg(run_eacp(sales, 0.1).pfg))["parfactors"]
        assert plain["crv"] is None

    @pytest.mark.parametrize("data", [None, 5, ["{}"], memoryview(b"{}")])
    def test_data_must_be_text_or_bytes(self, data):
        with pytest.raises(ModelFormatError, match="^model: expected text or bytes"):
            load_fg(data)
        with pytest.raises(ModelFormatError, match="^evidence: expected text or bytes"):
            load_evidence(data)

    def test_bytearray_is_read_as_bytes(self, sales):
        assert fg_equal(load_fg(bytearray(save_fg(sales))), sales)
        assert load_evidence(bytearray(b'{"evidence": []}')) == Evidence()

    def test_invalid_utf8(self):
        with pytest.raises(ModelFormatError, match="^model: not valid UTF-8"):
            load_fg(b'{"rvs": [], "factors": [], "note": "\xff"}')
        with pytest.raises(ModelFormatError, match="^evidence: not valid UTF-8"):
            load_evidence(b'{"evidence": ["\xff"]}')


@settings(max_examples=60, deadline=None)
@given(
    labels=st.lists(
        st.text(alphabet="abcdef", min_size=1, max_size=3), min_size=2, max_size=5, unique=True
    ),
    values=st.lists(st.floats(0.01, 100.0), min_size=2, max_size=5),
)
def test_unary_partition_is_table_sum(labels, values):
    n = min(len(labels), len(values))
    if n < 2:
        return
    rv = RandomVariable("X", tuple(labels[:n]))
    f = Factor("f", ("X",), np.array(values[:n]))
    fg = FactorGraph((rv,), (f,))
    assert joint_table(fg).sum() == pytest.approx(float(np.sum(values[:n])), rel=1e-12)
