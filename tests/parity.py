"""Print sha256 digests of every library output on the benchmark's inputs.

For each perfbench workload and seed it rebuilds the workload's models
and queries with perfbench/workloads.py and hashes what the library
makes of them:

- the phase-1 and final groupings, with their alignments;
- the updated model m_prime, table bytes included, and the columns of
  the parfactor graph;
- every query_ve answer on the input and on m_prime, and every lifted
  hub answer, as float.hex of log_distribution plus ops;
- on certify, the DistanceReport of distance_exact(input, m_prime).

A typed library error is hashed as an output too. It prints one line
per workload and seed, then one digest over all of them; two checkouts
whose outputs are bit-identical print identical lines. It measures no
time and writes no file, bytecode caches included. It reads the library
and perfbench/ of the checkout it sits in; to check another checkout,
run a copy placed in that checkout's tests/ directory:

    python tests/parity.py                 # seeds 1-10, all workloads
    python tests/parity.py --seeds 1 2     # fewer seeds
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import sys
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parents[1]
# the liftcomp modules workloads.py and this script read, as lc.<name>
MODULES = ("bench", "bounds", "eacp", "errors", "grouping", "inference", "io", "model")


def _attempt(lc, fn, *args):
    """fn(*args), or the LiftcompError it raises."""
    try:
        return fn(*args)
    except lc.errors.LiftcompError as exc:
        return exc


def _put(h, *parts) -> None:
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
        h.update(b"\0")


def _error(h, result) -> bool:
    """Hash result if it is an error; whether it was one."""
    if isinstance(result, Exception):
        _put(h, type(result).__name__, str(result))
        return True
    return False


def _grouping(h, grouping) -> None:
    if not _error(h, grouping):
        _put(h, [[(m.factor, m.align) for m in group] for group in grouping.groups])


def _model(h, fg) -> None:
    for f in fg.factors:
        _put(h, f.name, f.args, f.table.shape, f.table.tobytes(order="C"))


def _pfg(h, pfg) -> None:
    _put(h, [(rv.name, rv.range) for rv in pfg.rvs], pfg.class_ends.tobytes())
    _put(h, pfg.members, pfg.member_args, pfg.group_ends.tobytes(), pfg.crvs)
    for table in pfg.tables:
        _put(h, table.shape, table.tobytes(order="C"))


def _answer(h, answer) -> None:
    if not _error(h, answer):
        logs = answer.log_distribution
        _put(h, [(label, float.hex(v)) for label, v in logs.items()], answer.ops)


def _report(h, report) -> None:
    if not _error(h, report):
        ratios = (report.d_exact, report.max_ratio, report.min_ratio)
        _put(h, [float.hex(v) for v in ratios])
        _put(h, report.argmax_assignment, report.argmin_assignment)


def digest(lc, workloads, workload: str, seed: int) -> str:
    """One workload's outputs on one seed's inputs, as a sha256 hex digest."""
    h = hashlib.sha256()
    for index, model in enumerate(workloads.build_models(lc, workload, seed)):
        fg = model.fg = lc.io.load_fg(model.data)
        _put(h, model.label)
        _grouping(h, _attempt(lc, lc.grouping.phase1_group, fg.factors, model.eps))
        comp = _attempt(lc, lc.eacp.run_eacp, fg, model.eps)
        if _error(h, comp):
            continue
        _grouping(h, comp.grouping)
        _model(h, comp.m_prime)
        _pfg(h, comp.pfg)
        if workload == "certify":
            _report(h, _attempt(lc, lc.bounds.distance_exact, fg, comp.m_prime))
        for q in workloads.sample_queries(lc, model, seed, index, workload):
            _put(h, q)
            for source in (fg, comp.m_prime):
                _answer(h, _attempt(lc, lc.inference.query_ve, source, q))
            if model.star and q.target == workloads.HUB:
                lifted = _attempt(lc, lc.inference.query_lifted_star, comp.pfg, q.target, q)
                _answer(h, lifted)
    return h.hexdigest()


def main(argv: list[str] | None = None) -> None:
    sys.dont_write_bytecode = True   # leave no __pycache__ in perfbench/ or src/
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    workloads = importlib.import_module("workloads")
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    args = parser.parse_args(argv)
    lc = SimpleNamespace(**{name: importlib.import_module(f"liftcomp.{name}") for name in MODULES})
    total = hashlib.sha256()
    for workload in workloads.WORKLOADS:
        for seed in args.seeds:
            line = f"{workload} seed={seed} {digest(lc, workloads, workload, seed)}"
            total.update(line.encode())
            print(line, flush=True)
    print(f"all {total.hexdigest()}")


if __name__ == "__main__":
    main()
