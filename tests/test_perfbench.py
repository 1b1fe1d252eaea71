"""The benchmark harness still finds every liftcomp name it traces."""

from __future__ import annotations

import importlib
import os
from pathlib import Path
from types import SimpleNamespace

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_harness_installs_and_restores(monkeypatch):
    # importing run pins OMP/OPENBLAS/MKL_NUM_THREADS to 1 in os.environ;
    # numpy is already loaded here, and monkeypatch puts the old values back
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        if var in os.environ:
            monkeypatch.setenv(var, os.environ[var])
        else:
            monkeypatch.delenv(var, raising=False)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    run = importlib.import_module("run")
    spans = importlib.import_module("spans")

    # the modules already imported here; run.import_liftcomp would re-import them
    lc = SimpleNamespace(
        **{name: importlib.import_module(f"liftcomp.{name}") for name in run.MODULES}
    )
    before = {name: dict(vars(getattr(lc, name))) for name in run.MODULES}
    tracer = spans.Tracer()
    run.install(tracer, lc)  # AttributeError when a traced name is gone
    patched = {
        (name, attr)
        for name in run.MODULES
        for attr, obj in vars(getattr(lc, name)).items()
        if before[name].get(attr) is not obj
    }
    tracer.uninstall()

    for attr in ("phase1_group", "initial_factor_colours_exact", "colour_pass",
                 "exact_crv_positions", "construct_pfg", "eps_equiv_arrays"):
        assert ("eacp", attr) in patched
    for name in run.MODULES:
        after = vars(getattr(lc, name))
        for attr, obj in before[name].items():
            assert after[attr] is obj, f"liftcomp.{name}.{attr} not restored"
