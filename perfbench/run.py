"""liftcomp benchmark: compression, certified queries and exact certification.

Run from the root of a checkout:

    python3 perfbench/run.py --workload star-query --seed 1 --seconds 30 --trace 0

One process, one workload. It loads the workload's seeded models, repeats
full passes over them until --seconds would be exceeded, checks every
answer, and prints a report followed by one JSON line with the
end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
Times are reference seconds (see probe.py). End-to-end times are
medians over passes; latency percentiles are over every answer of every
pass. The traced run alternates untraced and traced passes, so it can
report the tracing overhead. Full results, spans included, go to .bench_out/.
It exits 1 when an output check fails and 2 when liftcomp cannot be
imported from src/. See perfbench/README.md for the metrics.
"""

import os

# pinned before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import collections
import importlib
import json
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

from probe import REFERENCE_S, Speed
from spans import Tracer
from workloads import WORKLOADS, Run, build_models, sample_queries

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_REPS = 7
MODULES = (
    "errors", "model", "equivalence", "grouping", "acp", "eacp",
    "bounds", "inference", "io", "bench",
)


def import_liftcomp() -> SimpleNamespace:
    """Fresh import of liftcomp from src/ (numpy stays loaded)."""
    for name in [n for n in sys.modules if n == "liftcomp" or n.startswith("liftcomp.")]:
        del sys.modules[name]
    package = importlib.import_module("liftcomp")
    if Path(package.__file__).resolve().parent != ROOT / "src" / "liftcomp":
        raise ImportError(f"liftcomp imported from {package.__file__}, not src/")
    return SimpleNamespace(**{n: sys.modules[f"liftcomp.{n}"] for n in MODULES})


def setup(models, speed: Speed) -> tuple[SimpleNamespace, list[float]]:
    """Import liftcomp and load every model, SETUP_REPS times; keep the last."""
    times = []
    for _ in range(SETUP_REPS):
        before = speed.probe()
        start = perf_counter()
        lc = import_liftcomp()
        fgs = [lc.io.load_fg(m.data) for m in models]
        times.append(speed.scale(perf_counter() - start, before))
    for model, fg in zip(models, fgs):
        model.fg = fg
    return lc, times


def measure(step, seconds: float, at_least: int = 1) -> list:
    """Run passes until the next one would end after `seconds`."""
    results = []
    start = perf_counter()
    while True:
        results.append(step())
        late = perf_counter() - start + results[-1].wall_s > seconds
        if late and len(results) >= at_least:
            return results


def install(tracer: Tracer, lc) -> None:
    """Spans and counters on the names liftcomp's callers look up."""

    def add(key, amount):
        return lambda counts, args, result: counts.update({key: amount(args, result)})

    def split(args, result):
        return len(result.grouping.groups) - len(set(args[1].values()))

    tracer.span(lc.io, "load_fg", "io.load_fg")
    tracer.span(lc.eacp, "run_eacp", "eacp.run_eacp")
    tracer.span(lc.eacp, "run_acp", "eacp.run_acp")
    tracer.span(
        lc.eacp, "phase1_group", "grouping.phase1_group",
        add("grouping.phase1_groups", lambda a, r: len(r.groups)),
    )
    tracer.span(lc.eacp, "initial_factor_colours_exact", "acp.initial_factor_colours_exact")
    tracer.span(lc.eacp, "colour_pass", "acp.colour_pass", lambda c, a, r: c.update(
        {"acp.colour_rounds": r.state.iteration, "acp.groups_split": split(a, r)}
    ))
    tracer.span(lc.eacp, "exact_crv_positions", "acp.exact_crv_positions")
    tracer.span(lc.eacp, "construct_pfg", "acp.construct_pfg")
    tracer.span(lc.inference, "query_ve", "inference.query_ve",
                add("inference.ve_ops", lambda a, r: r.ops))
    tracer.span(lc.inference, "query_lifted_star", "inference.query_lifted_star",
                add("inference.lifted_ops", lambda a, r: r.ops))
    tracer.span(lc.inference, "query_enumerate", "inference.query_enumerate")
    for module in (lc.bounds, lc.inference):
        tracer.span(module, "joint_table", "model.joint_table",
                    add("model.joint_states", lambda a, r: r.size))
    tracer.span(lc.bounds, "distance_exact", "bounds.distance_exact")
    tracer.span(lc.bounds, "bound_set", "bounds.bound_set")
    tracer.span(lc.bounds, "prob_envelope", "bounds.prob_envelope")
    for module in (lc.equivalence, lc.grouping, lc.eacp):
        tracer.count(module, "eps_equiv_arrays", "equivalence.eps_equiv_arrays_calls")
    tracer.count(lc.acp, "eps_equiv_factors", "equivalence.eps_equiv_factors_calls")


def layer_metrics(tracer: Tracer, p) -> dict[str, tuple[float, str]]:
    """Per-layer numbers of one traced pass: self times and counts."""
    scale = REFERENCE_S / p.probe_s
    t = collections.Counter({k: seconds * scale for k, seconds in tracer.self_times().items()})
    c = tracer.totals()
    ve_ops = c["inference.ve_ops"]
    return {
        "grouping.phase1_group_s": (t["grouping.phase1_group"], "s"),
        "grouping.phase1_groups": (c["grouping.phase1_groups"], "count"),
        "equivalence.eps_equiv_arrays_calls": (c["equivalence.eps_equiv_arrays_calls"], "count"),
        "acp.initial_factor_colours_exact_s": (t["acp.initial_factor_colours_exact"], "s"),
        "equivalence.eps_equiv_factors_calls": (c["equivalence.eps_equiv_factors_calls"], "count"),
        "acp.colour_pass_s": (t["acp.colour_pass"], "s"),
        "acp.colour_rounds": (c["acp.colour_rounds"], "count"),
        "acp.groups_split": (c["acp.groups_split"], "count"),
        "acp.exact_crv_positions_s": (t["acp.exact_crv_positions"], "s"),
        "acp.construct_pfg_s": (t["acp.construct_pfg"], "s"),
        "eacp.run_eacp_self_s": (t["eacp.run_eacp"], "s"),
        "eacp.modified_factors": (p.modified, "count"),
        "inference.query_ve_s": (t["inference.query_ve"], "s"),
        "inference.ve_ops": (ve_ops, "count"),
        "inference.ve_us_per_op": (
            t["inference.query_ve"] / ve_ops * 1e6 if ve_ops else 0.0, "us/op"
        ),
        "inference.query_lifted_star_s": (t["inference.query_lifted_star"], "s"),
        "inference.lifted_ops": (c["inference.lifted_ops"], "count"),
        "inference.lifted_hit_rate": (
            p.lifted_hits / p.lifted_attempts if p.lifted_attempts else 0.0, "ratio"
        ),
        "inference.failures": (p.failures["inference"], "count"),
        "eacp.failures": (p.failures["eacp"], "count"),
        "model.joint_table_s": (t["model.joint_table"], "s"),
        "model.joint_states": (c["model.joint_states"], "count"),
        "model.joint_computed_bytes": (8 * c["model.joint_states"], "bytes"),
        "bounds.distance_exact_s": (t["bounds.distance_exact"], "s"),
        "inference.query_enumerate_s": (t["inference.query_enumerate"], "s"),
    }


def end_to_end(passes, setup_times) -> dict[str, tuple[float, str]]:
    """The bounded end-to-end metrics of BENCHMARK.json, from untraced passes."""
    queries = [ms for p in passes for ms in p.samples_ms("query")]
    ground = [ms for p in passes for ms in p.samples_ms("ground")]
    last = passes[-1]
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "compress_s": (statistics.median(p.total("compress") for p in passes), "s"),
        "acp_s": (statistics.median(p.total("acp") for p in passes), "s"),
        "query_p50_ms": (statistics.median(queries), "ms"),
        "query_p90_ms": (statistics.quantiles(queries, n=10)[8], "ms"),
        "ground_query_p50_ms": (statistics.median(ground), "ms"),
        "pass_s": (statistics.median(p.total() for p in passes), "s"),
        "groups_per_factor": (last.groups / last.factors, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def git_commit() -> str:
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def traced_run(run: Run, lc, models, seconds: float, spans: list[dict]):
    """Untraced and traced passes, alternating so both see the same machine.

    Returns the per-layer metrics (medians over traced passes), the
    untraced passes and the traced ones.
    """
    tracer = Tracer()
    load_times = []
    install(tracer, lc)
    for window in range(SETUP_REPS):
        tracer.reset()
        before = run.speed.probe()
        tracer.enabled = True
        for model in models:
            lc.io.load_fg(model.data)
        tracer.enabled = False
        load_times.append(run.speed.scale(tracer.self_times()["io.load_fg"], before))
        spans += tracer.export(f"setup-{window}")
    tracer.uninstall()
    layers: list[dict] = []
    untraced: list = []
    traced: list = []

    def step():
        if len(untraced) <= len(traced):
            untraced.append(run.run_pass())
            return untraced[-1]
        install(tracer, lc)
        run.tracer = tracer
        tracer.reset()
        tracer.enabled = True
        try:
            traced.append(run.run_pass())
        finally:
            tracer.enabled = False
            tracer.uninstall()
            run.tracer = None
        layers.append(layer_metrics(tracer, traced[-1]))
        spans.extend(tracer.export(f"pass-{len(layers) - 1}"))
        return traced[-1]

    measure(step, seconds, at_least=2)
    metrics = {
        name: (statistics.median(layer[name][0] for layer in layers), unit)
        for name, (_, unit) in layers[0].items()
    }
    metrics["io.load_fg_s"] = (statistics.median(load_times), "s")
    return metrics, untraced, traced


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    try:
        models = build_models(import_liftcomp(), args.workload, args.seed)
    except ImportError as exc:
        print(f"cannot import liftcomp from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    speed = Speed()
    lc, setup_times = setup(models, speed)
    for i, model in enumerate(models):
        model.queries = sample_queries(lc, model, args.seed, i, args.workload)
    run = Run(lc, models, args.workload, speed)
    env = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": sys.modules["numpy"].__version__,
        "commit": git_commit(),
    }

    spans: list[dict] = []
    report = []
    if args.trace:
        metrics, passes, traced = traced_run(run, lc, models, args.seconds, spans)
        untraced_s = statistics.median(p.total() for p in passes)
        traced_s = statistics.median(p.total() for p in traced)
        metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
        report.append(f"measured {len(traced)} traced and {len(passes)} untraced passes")
        report.append(
            f"tracing overhead {traced_s - untraced_s:.4f} s on a {untraced_s:.4f} s pass "
            f"({(traced_s / untraced_s - 1) * 100:.1f}%)"
        )
    else:
        passes = measure(run.run_pass, args.seconds)
        metrics = end_to_end(passes, setup_times)
        n_queries = len(passes[0].samples_ms("query"))
        report.append(
            f"measured {len(passes)} passes of {n_queries} certified answers each, "
            f"{SETUP_REPS} setups"
        )
        certify_s = statistics.median(p.total("certify") for p in passes)
        report.append(f"certify_s {certify_s:.6g} s (not bounded: 0 when no table changed)")
    report.append(
        f"untraced pass wall time {statistics.median(p.wall_s for p in passes):.4f} s "
        f"(measured seconds, probes included); probe median "
        f"{statistics.median(speed.samples) * 1e3:.4f} ms over {len(speed.samples)} probes, "
        f"reference {REFERENCE_S * 1e3:g} ms"
    )
    digest = run.digest()
    ledger = run.first
    report.append(
        f"op_fail_rate {ledger.failed / ledger.attempted:.6g} "
        f"({ledger.failed} of {ledger.attempted} operations of one pass failed; "
        f"every pass repeats them)"
    )
    report += [f"  failed x{n} {error}" for error, n in sorted(ledger.errors.items())]
    report.append(f"digest sha256={digest}")

    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    for model in models:
        print(f"model {model.label}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print("\n".join(report))
    for problem in run.problems[:20]:
        print(f"CHECK FAILED {problem}", file=sys.stderr)

    result = {
        "correct": not run.problems,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({
        **result, "env": env, "models": [m.label for m in models], "report": report,
        "digest": digest, "failures": dict(ledger.failures), "errors": dict(ledger.errors),
        "problems": run.problems, "probes": speed.samples, "spans": spans,
    }) + "\n")
    print(json.dumps(result))
    return 1 if run.problems else 0


if __name__ == "__main__":
    sys.exit(main())
