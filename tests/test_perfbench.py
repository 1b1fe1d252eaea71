"""The benchmark harness still finds every liftcomp name it traces, and runs a pass."""

from __future__ import annotations

import importlib
import os
from pathlib import Path
from types import SimpleNamespace

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def run(monkeypatch):
    """perfbench/run.py as a module."""
    # importing run pins OMP/OPENBLAS/MKL_NUM_THREADS to 1 in os.environ;
    # numpy is already loaded here, and monkeypatch puts the old values back
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        if var in os.environ:
            monkeypatch.setenv(var, os.environ[var])
        else:
            monkeypatch.delenv(var, raising=False)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("run")


def _liftcomp(run) -> SimpleNamespace:
    # the modules already imported here; run.import_liftcomp would re-import them
    return SimpleNamespace(
        **{name: importlib.import_module(f"liftcomp.{name}") for name in run.MODULES}
    )


def test_harness_installs_and_restores(run):
    spans = importlib.import_module("spans")
    lc = _liftcomp(run)
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


def _models(run, lc, workload: str, seed: int) -> list:
    # what run.main does before measuring, without writing .bench_out/
    models = run.build_models(lc, workload, seed)
    for i, model in enumerate(models):
        model.fg = lc.io.load_fg(model.data)
        model.queries = run.sample_queries(lc, model, seed, i, workload)
    return models


# seed-1 output digests (groupings, alignments, m_prime tables) of the
# benchmark's workloads: a change that claims identical outputs keeps them
DIGESTS = {
    "certify": "928b8b6a827a08f209cf61af9fb0a54379b6b725c7cc54dddbfd21932fc4030d",
    "star-compress": "092becdc5bd8da1e714dd117e7849ea76adca212b10213bfb50e43679e677978",
    "star-query": "400f2f6bfd26c05b7b10da963866510c92b44912f0a7477d44b3ebca2e628ea5",
}


@pytest.mark.parametrize("workload", ["certify", "star-compress", "star-query"])
def test_one_untraced_pass(run, workload):
    # a library change that breaks the harness fails here
    lc = _liftcomp(run)
    bench_run = run.Run(lc, _models(run, lc, workload, 1), workload, run.Speed())
    result = bench_run.run_pass()
    assert bench_run.problems == []
    assert bench_run.digest() == DIGESTS[workload]
    if workload != "certify":
        # seed 1: every hub query is answered lifted, and no operation fails
        assert result.lifted_hits == result.lifted_attempts > 0
        assert result.failed == 0, dict(result.errors)


def test_saturated_hub_answers_are_certified(run):
    # on seed 6, two star-query hub answers round to P = 1.0; each still
    # gets an envelope, and no operation fails
    lc = _liftcomp(run)
    bench_run = run.Run(lc, _models(run, lc, "star-query", 6), "star-query", run.Speed())
    result = bench_run.run_pass()
    assert bench_run.problems == []
    assert result.failed == 0, dict(result.errors)


def test_one_traced_pass(run):
    # what run.traced_run does for one traced pass: a change to what a traced
    # function returns, or to a name it is looked up by, fails here
    spans = importlib.import_module("spans")
    lc = _liftcomp(run)
    bench_run = run.Run(lc, _models(run, lc, "star-compress", 1), "star-compress", run.Speed())
    tracer = spans.Tracer()
    run.install(tracer, lc)
    bench_run.tracer = tracer
    tracer.enabled = True
    try:
        result = bench_run.run_pass()
    finally:
        tracer.enabled = False
        tracer.uninstall()
        bench_run.tracer = None
    assert bench_run.problems == []
    metrics = run.layer_metrics(tracer, result)
    for name in ("equivalence.eps_equiv_arrays_calls", "acp.colour_rounds", "inference.ve_ops"):
        assert metrics[name][0] > 0, name
