"""Core model types, joint evaluation, and file round-trips."""

from __future__ import annotations

import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liftcomp import (
    DEFAULT_ENUM_CAP,
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
    save_evidence,
    save_fg,
)
from liftcomp.model import all_assignments, eval_joint, joint_probability, partition_function

from conftest import random_model, sales_model


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

    def test_row_major_layout(self):
        # last argument varies fastest in the flattened order
        t = np.array([[1.0, 2.0], [3.0, 4.0]])
        f = Factor("f", ("X", "Y"), t)
        assert f.flat().tolist() == [1.0, 2.0, 3.0, 4.0]
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


class TestJointEvaluation:
    def test_partition_function_value(self, sales):
        assert partition_function(sales) == pytest.approx(1.874, abs=1e-12)

    def test_eval_joint_value(self, sales):
        a = {"SalA": "high", "SalB": "high", "Rev": "high"}
        assert eval_joint(sales, a) == pytest.approx(0.75 * 0.8, abs=1e-15)

    def test_joint_probability(self, sales):
        a = {"SalA": "high", "SalB": "high", "Rev": "high"}
        assert joint_probability(sales, a) == pytest.approx(0.6 / 1.874, rel=1e-12)

    def test_eval_joint_requires_full_assignment(self, sales):
        with pytest.raises(InvariantError):
            eval_joint(sales, {"SalA": "high"})

    def test_joint_table_matches_bruteforce(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            fg = random_model(rng, max_rvs=5, max_factors=5)
            joint = joint_table(fg)
            for a in all_assignments(fg):
                idx = tuple(fg.rv(rv.name).index_of(a[rv.name]) for rv in fg.rvs)
                by_hand = 1.0
                for f in fg.factors:
                    pos = tuple(fg.rv(arg).index_of(a[arg]) for arg in f.args)
                    by_hand *= f.table[pos]
                assert joint[idx] == pytest.approx(by_hand, rel=1e-12)

    def test_partition_is_sum_over_assignments(self):
        rng = np.random.default_rng(12)
        fg = random_model(rng, max_rvs=5, max_factors=5)
        z = sum(eval_joint(fg, a) for a in all_assignments(fg))
        assert partition_function(fg) == pytest.approx(z, rel=1e-10)

    def test_all_assignments_row_major(self, sales):
        first = list(itertools.islice(all_assignments(sales), 3))
        assert first[0] == {"SalA": "high", "SalB": "high", "Rev": "high"}
        # last declared rv flips fastest
        assert first[1] == {"SalA": "high", "SalB": "high", "Rev": "low"}
        assert first[2] == {"SalA": "high", "SalB": "low", "Rev": "high"}


class TestEnumerationCap:
    def test_cap_raises(self, sales):
        with pytest.raises(EnumerationCapError):
            joint_table(sales, cap=4)

    def test_cap_env_override(self, sales, monkeypatch):
        monkeypatch.setenv("LIFTCOMP_ENUM_CAP", "4")
        assert resolve_cap(None) == 4
        with pytest.raises(EnumerationCapError):
            partition_function(sales)

    def test_cap_argument_beats_env(self, monkeypatch):
        monkeypatch.setenv("LIFTCOMP_ENUM_CAP", "4")
        assert resolve_cap(100) == 100

    def test_default_cap(self):
        assert resolve_cap(None) == DEFAULT_ENUM_CAP


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

    def test_save_preserves_exact_floats(self):
        # repr round-trip: every float comes back bit-identical
        rng = np.random.default_rng(14)
        fg = random_model(rng, max_rvs=4, max_factors=4)
        back = load_fg(save_fg(fg))
        for f, g in zip(fg.factors, back.factors):
            assert np.array_equal(f.table, g.table)

    def test_evidence_round_trip(self):
        ev = Evidence((("Rev", "high"), ("SalA", "low")))
        assert load_evidence(save_evidence(ev)).as_dict() == ev.as_dict()

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
    assert partition_function(fg) == pytest.approx(float(np.sum(values[:n])), rel=1e-12)
