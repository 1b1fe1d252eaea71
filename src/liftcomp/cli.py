"""Command-line front end.

Machine-readable JSON (or CSV for bench) goes to standard output; human
summaries and diagnostics go to standard error. Exit codes: 0 success,
1 unreadable or malformed input files or unwritable outputs, 2 domain
violations (bad eps, unknown rvs, caps, evidence on a lifted query). The
enumeration cap is LIFTCOMP_ENUM_CAP or its default; bound skips d_exact
above it.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .bench import EPS_DOMAIN, GenConfig, X_DOMAIN, emit_csv, run_grid
from .bounds import bound_set, distance_exact, modified_factor_count, odds_envelope
from .eacp import run_eacp
from .equivalence import check_epsilon
from .errors import EnumerationCapError, InvariantError, LiftcompError, ModelFormatError
from .inference import Query, query_enumerate, query_lifted_star, query_ve
from .io import load_evidence, load_fg, save_fg, save_pfg
from .model import Evidence, FactorGraph, resolve_cap

__all__ = ["main"]


def _read_bytes(path: str) -> bytes:
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise ModelFormatError(f"cannot read {path}: {exc}") from exc


def _write_bytes(path: Path, data: bytes, *, make_parents: bool = False) -> None:
    """Write data to path, first creating missing directories above it if asked."""
    try:
        if make_parents:
            path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
    except OSError as exc:
        raise ModelFormatError(f"cannot write {path}: {exc}") from exc


def _load_model(path: str) -> FactorGraph:
    return load_fg(_read_bytes(path))


def _evidence_from_pairs(pairs: list[str] | None) -> Evidence:
    if not pairs:
        return Evidence()
    items = []
    for pair in pairs:
        rv, sep, value = pair.partition("=")
        if not sep or not rv or not value:
            raise LiftcompError(f"evidence must look like RV=value, got {pair!r}")
        items.append((rv, value))
    return Evidence(tuple(items))


def _emit(payload: object) -> None:
    json.dump(payload, sys.stdout, indent=2)
    sys.stdout.write("\n")


def cmd_compress(args: argparse.Namespace) -> int:
    fg = _load_model(args.model)
    evidence = load_evidence(_read_bytes(args.evidence)) if args.evidence else Evidence()
    result = run_eacp(fg, args.eps, evidence)
    out = Path(args.out)
    pfg_path = out / "pfg.json"
    mprime_path = out / "m_prime.json"
    _write_bytes(pfg_path, save_pfg(result.pfg), make_parents=True)
    _write_bytes(mprime_path, save_fg(result.m_prime))
    members = result.pfg.members
    groups = [
        {
            "index": gi,
            "size": len(group),
            "members": list(members[group.start : group.stop]),
            "max_rel_dev": dev,
        }
        for gi, (group, dev) in enumerate(zip(result.pfg.groups(), result.deviations))
    ]
    n_factors = len(fg.factors)
    n_groups = result.n_groups()
    _emit(
        {
            "eps": args.eps,
            "n_factors": n_factors,
            "n_groups": n_groups,
            "compression_ratio": n_groups / n_factors,
            "groups": groups,
            "rv_classes": [list(c) for c in result.rv_classes],
            "outputs": {"pfg": str(pfg_path), "m_prime": str(mprime_path)},
        }
    )
    print(
        f"compressed {n_factors} factors into {n_groups} groups at eps={args.eps}",
        file=sys.stderr,
    )
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    fg = _load_model(args.model)
    evidence = _evidence_from_pairs(args.evidence)
    q = Query(args.target, evidence, args.value)
    if args.method == "enum":
        res = query_enumerate(fg, q)
    elif args.method == "ve":
        res = query_ve(fg, q)
    else:
        comp = run_eacp(fg, args.eps, Evidence())
        res = query_lifted_star(comp.pfg, args.target, q)
    payload = {
        "target": args.target,
        "method": res.method,
        "ops": res.ops,
        "distribution": res.distribution,
    }
    if args.value is not None:
        payload["value"] = args.value
        payload["p"] = res.distribution[args.value]
    _emit(payload)
    print(f"queried {args.target} via {res.method} ({res.ops} ops)", file=sys.stderr)
    return 0


def cmd_bound(args: argparse.Namespace) -> int:
    if bool(args.model) != bool(args.compressed) or (args.m is None and not args.model):
        raise LiftcompError("bound needs --m, or --model together with --compressed")
    eps = check_epsilon(args.eps)
    distance = None
    m = args.m
    if args.model:
        m1 = _load_model(args.model)
        m2 = _load_model(args.compressed)
        if m is None:
            try:
                m = modified_factor_count(m1, m2)
            except InvariantError as exc:
                raise LiftcompError(f"{exc}; pass --m") from None
        try:
            report = distance_exact(m1, m2)
        except EnumerationCapError:
            print("state space above enumeration cap; skipping d_exact", file=sys.stderr)
        else:
            distance = {
                "d_exact": report.d_exact,
                "max_ratio": report.max_ratio,
                "min_ratio": report.min_ratio,
                "argmax_assignment": report.argmax_assignment,
                "argmin_assignment": report.argmin_assignment,
            }
    bounds = bound_set(m, eps)
    _emit(
        {
            **vars(bounds),
            "odds_envelopes": {
                "general": list(odds_envelope(bounds.d_general)),
                "tight": list(odds_envelope(bounds.d_tight)),
            },
            "distance": distance,
        }
    )
    print(
        f"m={m} eps={eps}: d_tight={bounds.d_tight:.6g} <= d_general={bounds.d_general:.6g}",
        file=sys.stderr,
    )
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    configs = [
        GenConfig(
            k=k,
            x=x,
            eps=eps,
            seed=args.seed,
            guarantee_pairwise=args.guarantee_pairwise,
            free=args.free,
        )
        for k in args.k
        for x in args.x
        for eps in args.eps
    ]
    records = run_grid(
        configs, n_queries=args.queries, skip_exact=args.skip_exact, jobs=args.jobs
    )
    data = emit_csv(records)
    if args.out:
        _write_bytes(Path(args.out), data)
        print(f"wrote {len(records)} records to {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(data.decode("utf-8"))
        print(f"{len(records)} records", file=sys.stderr)
    return 0


def cmd_inspect(args: argparse.Namespace) -> int:
    fg = _load_model(args.model)
    _emit(
        {
            "n_rvs": len(fg.rvs),
            "n_factors": len(fg.factors),
            "state_count": fg.state_count(),
            "enum_cap": resolve_cap(),
            "rvs": [{"name": rv.name, "range": list(rv.range)} for rv in fg.rvs],
            "factors": [
                {"name": f.name, "args": list(f.args), "shape": list(f.table.shape)}
                for f in fg.factors
            ],
        }
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="liftcomp",
        description="Factor-graph compression with certified error bounds.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("compress", help="compress a model and export the parfactor graph")
    p.add_argument("--model", required=True, help="model JSON file")
    p.add_argument("--eps", required=True, type=float, help="tolerance in [0, 1)")
    p.add_argument("--evidence", help="evidence JSON file")
    p.add_argument("--out", default=".", help="directory for pfg.json and m_prime.json")
    p.set_defaults(func=cmd_compress)

    p = sub.add_parser("query", help="answer a marginal query")
    p.add_argument("--model", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--evidence", action="append", metavar="RV=VALUE")
    p.add_argument("--value", help="label to report P(target=value) for")
    p.add_argument("--method", choices=("enum", "ve", "lifted"), default="ve")
    p.add_argument("--eps", type=float, default=0.0, help="tolerance for --method lifted")
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("bound", help="closed-form bounds and exact distance")
    p.add_argument("--m", type=int, help="number of modified factors")
    p.add_argument("--eps", required=True, type=float)
    p.add_argument("--model", help="original model JSON file")
    p.add_argument("--compressed", help="compressed model JSON file")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("bench", help="run the experiment grid and emit CSV")
    p.add_argument("--k", type=int, nargs="+", default=[2, 4, 8, 16])
    p.add_argument("--x", type=float, nargs="+", default=list(X_DOMAIN))
    p.add_argument("--eps", type=float, nargs="+", default=list(EPS_DOMAIN))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--queries", type=int, default=5)
    p.add_argument("--out", help="CSV output path (default: standard output)")
    p.add_argument("--guarantee-pairwise", action="store_true")
    p.add_argument("--skip-exact", action="store_true")
    p.add_argument("--free", action="store_true", help="allow off-grid k/x/eps")
    p.add_argument("--jobs", type=int, default=1, help="worker processes")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("inspect", help="summarise a model file")
    p.add_argument("--model", required=True)
    p.set_defaults(func=cmd_inspect)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ModelFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except LiftcompError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
