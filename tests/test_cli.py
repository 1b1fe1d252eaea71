"""Command-line interface: flows, payload shapes, exit codes, file outputs."""

from __future__ import annotations

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import liftcomp
from liftcomp import (
    CSV_COLUMNS, Factor, FactorGraph, RandomVariable, fg_equal, load_fg, save_fg,
)
from liftcomp.cli import main

from conftest import UNPARSEABLE_MODELS, sales_model, star_model


@pytest.fixture
def sales_path(tmp_path, sales):
    path = tmp_path / "sales.json"
    path.write_bytes(save_fg(sales))
    return path


def run_cli(capsys, *argv: str):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _run_module(*argv: str) -> subprocess.CompletedProcess:
    """`python -m liftcomp.cli` in a child that imports the liftcomp under test."""
    src = str(Path(liftcomp.__file__).resolve().parent.parent)
    paths = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return subprocess.run(
        [sys.executable, "-m", "liftcomp.cli", *argv],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(paths)},
    )


class TestCompress:
    def test_end_to_end(self, capsys, tmp_path, sales_path, sales):
        out_dir = tmp_path / "out"
        code, out, err = run_cli(
            capsys, "compress", "--model", str(sales_path), "--eps", "0.1",
            "--out", str(out_dir),
        )
        assert code == 0
        report = json.loads(out)
        assert report["n_factors"] == 2
        assert report["n_groups"] == 1
        assert report["groups"][0]["members"] == ["phi1", "phi2"]
        assert report["groups"][0]["max_rel_dev"] <= 0.1
        assert report["rv_classes"] == [["SalA", "SalB"], ["Rev"]]
        assert "compressed 2 factors into 1 groups" in err

        m_prime = load_fg((out_dir / "m_prime.json").read_bytes())
        expected = np.array([[0.775, 0.315], [0.49, 0.21]])
        assert np.max(np.abs(m_prime.factor("phi1").table - expected)) <= 4 * np.spacing(1.0)

        pfg = json.loads((out_dir / "pfg.json").read_text())
        assert {"rv_classes", "parfactors"} <= set(pfg)
        assert pfg["parfactors"][0]["count"] == 2

    def test_zero_eps_idempotent_output(self, capsys, tmp_path, sales_path, sales):
        out_dir = tmp_path / "zero"
        code, out, _ = run_cli(
            capsys, "compress", "--model", str(sales_path), "--eps", "0.0",
            "--out", str(out_dir),
        )
        assert code == 0
        m_prime = load_fg((out_dir / "m_prime.json").read_bytes())
        assert fg_equal(sales, m_prime)

    def test_evidence_file(self, capsys, tmp_path, sales_path):
        ev_path = tmp_path / "ev.json"
        ev_path.write_bytes(json.dumps({"evidence": [{"rv": "SalA", "value": "high"}]}).encode())
        code, out, _ = run_cli(
            capsys, "compress", "--model", str(sales_path), "--eps", "0.1",
            "--evidence", str(ev_path), "--out", str(tmp_path / "ev_out"),
        )
        assert code == 0
        assert json.loads(out)["n_groups"] == 2

    def test_malformed_model_exit_1(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"rvs": []}')
        code, _, err = run_cli(
            capsys, "compress", "--model", str(bad), "--eps", "0.1",
            "--out", str(tmp_path),
        )
        assert code == 1
        assert "factors" in err

    def test_missing_file_exit_1(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "compress", "--model", str(tmp_path / "nope.json"),
            "--eps", "0.1", "--out", str(tmp_path),
        )
        assert code == 1
        assert "cannot read" in err

    def test_bad_eps_exit_2(self, capsys, tmp_path, sales_path):
        code, _, err = run_cli(
            capsys, "compress", "--model", str(sales_path), "--eps", "1.5",
            "--out", str(tmp_path),
        )
        assert code == 2

    def test_out_naming_a_file_exit_1(self, capsys, tmp_path, sales_path):
        code, out, err = run_cli(
            capsys, "compress", "--model", str(sales_path), "--eps", "0.1",
            "--out", str(sales_path),
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: cannot write") and len(err.splitlines()) == 1


class TestQuery:
    def test_ve_conditional_pair(self, capsys, sales_path, tmp_path):
        code, out, _ = run_cli(
            capsys, "query", "--model", str(sales_path), "--target", "SalA",
            "--evidence", "Rev=high", "--value", "high",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["method"] == "ve"
        assert payload["p"] == pytest.approx(0.6097560975609756, abs=5e-4)

        out_dir = tmp_path / "q"
        run_cli(capsys, "compress", "--model", str(sales_path), "--eps", "0.1",
                "--out", str(out_dir))
        code, out, _ = run_cli(
            capsys, "query", "--model", str(out_dir / "m_prime.json"),
            "--target", "SalA", "--evidence", "Rev=high", "--value", "high",
        )
        assert code == 0
        assert json.loads(out)["p"] == pytest.approx(0.6126482213438735, abs=5e-4)

    def test_enum_matches_ve(self, capsys, sales_path):
        _, out_ve, _ = run_cli(
            capsys, "query", "--model", str(sales_path), "--target", "Rev",
            "--method", "ve",
        )
        _, out_enum, _ = run_cli(
            capsys, "query", "--model", str(sales_path), "--target", "Rev",
            "--method", "enum",
        )
        d_ve = json.loads(out_ve)["distribution"]
        d_enum = json.loads(out_enum)["distribution"]
        assert d_ve.keys() == d_enum.keys()
        for k in d_ve:
            assert d_ve[k] == pytest.approx(d_enum[k], abs=1e-12)

    def test_lifted_matches_ve(self, capsys, tmp_path):
        star = star_model(4, 2, seed=5)
        path = tmp_path / "star.json"
        path.write_bytes(save_fg(star))
        _, out_l, _ = run_cli(
            capsys, "query", "--model", str(path), "--target", "Hub",
            "--method", "lifted",
        )
        _, out_v, _ = run_cli(
            capsys, "query", "--model", str(path), "--target", "Hub",
        )
        lifted = json.loads(out_l)
        ve = json.loads(out_v)
        assert lifted["method"] == "lifted-star"
        for k, v in ve["distribution"].items():
            assert lifted["distribution"][k] == pytest.approx(v, abs=1e-10)
        assert lifted["ops"] < ve["ops"]

    def test_unknown_target_exit_2(self, capsys, sales_path):
        code, _, err = run_cli(
            capsys, "query", "--model", str(sales_path), "--target", "Nope",
        )
        assert code == 2
        assert "Nope" in err

    def test_malformed_evidence_pair_exit_2(self, capsys, sales_path):
        code, _, err = run_cli(
            capsys, "query", "--model", str(sales_path), "--target", "SalA",
            "--evidence", "Revhigh",
        )
        assert code == 2
        assert "RV=value" in err

    def test_enum_cap_env(self, capsys, sales_path, monkeypatch):
        monkeypatch.setenv("LIFTCOMP_ENUM_CAP", "4")
        code, _, err = run_cli(
            capsys, "query", "--model", str(sales_path), "--target", "SalA",
            "--method", "enum",
        )
        assert code == 2
        assert "cap" in err.lower()


class TestBound:
    def test_closed_form(self, capsys):
        code, out, err = run_cli(capsys, "bound", "--m", "10", "--eps", "0.01")
        assert code == 0
        payload = json.loads(out)
        assert payload["m"] == 10
        assert payload["d_general"] == pytest.approx(0.2000, abs=5e-4)
        assert payload["d_tight"] < payload["d_general"]
        glo, ghi = payload["odds_envelopes"]["general"]
        tlo, thi = payload["odds_envelopes"]["tight"]
        assert glo < tlo <= 1.0 <= thi < ghi
        assert payload["distance"] is None

    def test_distance_between_models(self, capsys, tmp_path, sales_path):
        out_dir = tmp_path / "cmp"
        run_cli(capsys, "compress", "--model", str(sales_path), "--eps", "0.1",
                "--out", str(out_dir))
        code, out, _ = run_cli(
            capsys, "bound", "--eps", "0.1", "--model", str(sales_path),
            "--compressed", str(out_dir / "m_prime.json"),
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["m"] == 2  # both tables changed
        assert payload["distance"]["d_exact"] <= payload["d_tight"] + 1e-9
        assert set(payload["distance"]["argmax_assignment"]) == {"SalA", "SalB", "Rev"}

    def test_envelope_overflow_exits_2(self, capsys):
        # d_general is about 4013 here, and e^4013 is past the float64 range
        code, out, err = run_cli(capsys, "bound", "--m", "20000", "--eps", "0.1")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "float64" in err

    def test_joint_overflow_prints_only_its_error(self, tmp_path):
        # unary tables [1e200, 2e200] on four RVs: the joint overflows; a
        # child process, so that a numpy warning would reach its stderr
        rvs = tuple(RandomVariable(f"V{i}", ("a", "b")) for i in range(4))
        paths = []
        for name, first in (("a", 1e200), ("b", 1.1e200)):
            table = np.array([first, 2e200])
            fg = FactorGraph(rvs, tuple(Factor(f"f{i}", (f"V{i}",), table) for i in range(4)))
            paths.append(tmp_path / f"{name}.json")
            paths[-1].write_bytes(save_fg(fg))
        proc = _run_module(
            "bound", "--eps", "0.1", "--model", str(paths[0]), "--compressed", str(paths[1])
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error:") and "float64 range" in proc.stderr
        assert proc.stderr.count("\n") == 1

    def test_requires_m_or_models(self, capsys):
        code, _, err = run_cli(capsys, "bound", "--eps", "0.1")
        assert code == 2
        assert "--m" in err

    @pytest.mark.parametrize("flag", ["--model", "--compressed"])
    @pytest.mark.parametrize("m", [[], ["--m", "2"]])
    def test_model_flags_come_together(self, capsys, sales_path, flag, m):
        code, out, err = run_cli(capsys, "bound", "--eps", "0.1", *m, flag, str(sales_path))
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "--model" in err and "--compressed" in err

    def test_above_cap_skips_distance(self, capsys, tmp_path, sales_path, monkeypatch):
        out_dir = tmp_path / "cmp"
        run_cli(capsys, "compress", "--model", str(sales_path), "--eps", "0.1",
                "--out", str(out_dir))
        monkeypatch.setenv("LIFTCOMP_ENUM_CAP", "4")
        code, out, err = run_cli(
            capsys, "bound", "--eps", "0.1", "--model", str(sales_path),
            "--compressed", str(out_dir / "m_prime.json"),
        )
        assert code == 0
        assert "skipping d_exact" in err
        payload = json.loads(out)
        assert payload["m"] == 2
        assert payload["distance"] is None

    def test_models_over_different_rvs_exit_2(self, capsys, tmp_path, sales_path, monkeypatch):
        other = tmp_path / "other.json"
        other.write_bytes(save_fg(star_model(2, 2)))
        monkeypatch.setenv("LIFTCOMP_ENUM_CAP", "4")
        code, out, err = run_cli(
            capsys, "bound", "--m", "1", "--eps", "0.1", "--model", str(sales_path),
            "--compressed", str(other),
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "different random variables" in err

    def test_inferred_m_needs_matching_factors(self, capsys, tmp_path, sales_path, sales):
        phi1, phi2 = sales.factors
        other = tmp_path / "renamed.json"
        other.write_bytes(save_fg(liftcomp.FactorGraph(
            sales.rvs, (phi1, liftcomp.Factor("other", phi2.args, phi2.table))
        )))
        code, out, err = run_cli(
            capsys, "bound", "--eps", "0.1", "--model", str(sales_path),
            "--compressed", str(other),
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "factor names" in err and "pass --m" in err

    @pytest.mark.parametrize("inferred", [False, True])
    def test_m_zero_bad_eps_exit_2(self, capsys, sales_path, inferred):
        source = ["--model", str(sales_path), "--compressed", str(sales_path)]
        code, out, err = run_cli(
            capsys, "bound", "--eps", "1.5", *(source if inferred else ["--m", "0"])
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "eps" in err

    def test_m_zero_degenerate(self, capsys, sales_path, tmp_path):
        other = tmp_path / "same.json"
        other.write_bytes(sales_path.read_bytes())
        code, out, _ = run_cli(
            capsys, "bound", "--eps", "0.1", "--model", str(sales_path),
            "--compressed", str(other),
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["m"] == 0
        assert payload["d_tight"] == 0.0
        assert payload["distance"]["d_exact"] == 0.0


class TestBench:
    def test_csv_to_file(self, capsys, tmp_path):
        out = tmp_path / "grid.csv"
        code, _, err = run_cli(
            capsys, "bench", "--k", "2", "--x", "0.5", "--eps", "0.1",
            "--queries", "2", "--out", str(out),
        )
        assert code == 0
        rows = list(csv.DictReader(out.open()))
        assert len(rows) == 2
        assert set(rows[0]) == set(CSV_COLUMNS)
        assert "wrote 1 records" in err

    def test_out_in_missing_directory_exit_1(self, capsys, tmp_path):
        out = tmp_path / "missing" / "grid.csv"
        code, stdout, err = run_cli(
            capsys, "bench", "--k", "2", "--x", "0.5", "--eps", "0.1",
            "--queries", "1", "--skip-exact", "--out", str(out),
        )
        assert code == 1
        assert stdout == ""
        assert err.startswith("error: cannot write") and len(err.splitlines()) == 1
        assert not out.parent.exists()

    def test_csv_to_stdout(self, capsys):
        code, out, _ = run_cli(
            capsys, "bench", "--k", "2", "--x", "1.0", "--eps", "0.1",
            "--queries", "1", "--skip-exact",
        )
        assert code == 0
        assert out.startswith(",".join(CSV_COLUMNS))

    @pytest.mark.parametrize("flags, what", [
        (("--queries", "-3"), "query count"),
        (("--jobs", "0"), "job count"),
        (("--jobs", "-2"), "job count"),
    ])
    def test_bad_counts_exit_2(self, capsys, flags, what):
        code, out, err = run_cli(
            capsys, "bench", "--k", "2", "--x", "0.5", "--eps", "0.1", "--skip-exact", *flags,
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and what in err

    def test_zero_queries_emit_one_row(self, capsys):
        code, out, _ = run_cli(
            capsys, "bench", "--k", "2", "--x", "0.5", "--eps", "0.1",
            "--queries", "0", "--skip-exact",
        )
        assert code == 0
        rows = list(csv.DictReader(out.splitlines()))
        assert len(rows) == 1 and rows[0]["query_index"] == ""

    def test_off_grid_rejected_without_free(self, capsys):
        code, _, _ = run_cli(
            capsys, "bench", "--k", "3", "--x", "0.5", "--eps", "0.1",
        )
        assert code == 2

    def test_off_grid_with_free(self, capsys):
        code, out, _ = run_cli(
            capsys, "bench", "--k", "3", "--x", "0.5", "--eps", "0.0",
            "--queries", "1", "--free",
        )
        assert code == 0
        rows = list(csv.DictReader(out.splitlines()))
        assert rows[0]["quotient"] == "1.0"


class TestInspect:
    def test_summary(self, capsys, sales_path):
        code, out, _ = run_cli(capsys, "inspect", "--model", str(sales_path))
        assert code == 0
        payload = json.loads(out)
        assert payload["n_rvs"] == 3
        assert payload["n_factors"] == 2
        assert payload["state_count"] == 8
        assert payload["factors"][0] == {
            "name": "phi1", "args": ["SalA", "Rev"], "shape": [2, 2],
        }

    @pytest.mark.parametrize("name", sorted(UNPARSEABLE_MODELS))
    def test_unparseable_model_exit_1(self, capsys, tmp_path, name):
        path = tmp_path / "bad.json"
        path.write_text(UNPARSEABLE_MODELS[name][0])
        code, out, err = run_cli(capsys, "inspect", "--model", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_factor_without_arguments_exit_1(self, capsys, tmp_path):
        path = tmp_path / "constant.json"
        path.write_text(json.dumps({
            "rvs": [{"name": "X", "range": ["a", "b"]}],
            "factors": [{"name": "c", "args": [], "table": [2.0]}],
        }))
        code, out, err = run_cli(capsys, "inspect", "--model", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "factors[0]" in err and err.count("\n") == 1

    def test_env_cap_reported(self, capsys, sales_path, monkeypatch):
        monkeypatch.setenv("LIFTCOMP_ENUM_CAP", "4096")
        _, out, _ = run_cli(capsys, "inspect", "--model", str(sales_path))
        assert json.loads(out)["enum_cap"] == 4096


class TestConsoleScript:
    def test_installed_entry_point(self, tmp_path, sales):
        path = tmp_path / "m.json"
        path.write_bytes(save_fg(sales))
        proc = _run_module("inspect", "--model", str(path))
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["n_factors"] == 2
