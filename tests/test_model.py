"""Core model types, joint evaluation, and file round-trips."""

from __future__ import annotations

import json
import math
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
    RandomVariable,
    fg_equal,
    joint_table,
    load_evidence,
    load_fg,
    replace_tables,
    resolve_cap,
    save_fg,
    worst_case_fg,
)

from conftest import UNPARSEABLE_MODELS, free_star, random_model, sales_model


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


class TestFactor:
    def test_rejects_no_args(self):
        with pytest.raises(InvariantError, match="at least one argument"):
            Factor("c", (), np.array(2.0))

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

    def test_cap_env_override(self, sales, monkeypatch):
        monkeypatch.setenv("LIFTCOMP_ENUM_CAP", "4")
        assert resolve_cap() == 4
        with pytest.raises(EnumerationCapError):
            joint_table(sales)

    def test_default_cap(self):
        assert resolve_cap() == DEFAULT_ENUM_CAP


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


class TestFgEqual:
    def test_reflexive(self, sales):
        assert fg_equal(sales, sales)

    def test_detects_table_change(self, sales):
        other = replace_tables(sales, {"phi1": sales.factor("phi1").table * (1 + 1e-16)})
        assert fg_equal(sales, other)  # multiplying by (1+1e-16) rounds to identity
        other2 = replace_tables(sales, {"phi1": sales.factor("phi1").table * (1 + 1e-12)})
        assert not fg_equal(sales, other2)


_X = {"name": "X", "range": ["a", "b"]}
_F = {"name": "f", "args": ["X"], "table": [1.0, 2.0]}


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
