"""Command-line interface.

Subcommands: families, bound, premium, shortfall, quantile, envelope,
verify, report.  Exit codes: 0 success, 2 usage error, 3 domain error,
4 verification failure.  Numeric output is fixed to six decimals in human
mode and full round-trip precision in CSV/JSON.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

import numpy as np

from . import bounds as B
from . import distortion as D
from . import envelope as E
from . import ingest as I
from . import oracle as O
from .errors import BoundViolated, RiskboundError

GRID_ENV = "RISKBOUND_GRID"

#: families whose names imply the weight psi(x) = x (moments of X^2/2)
_LINEAR_WEIGHT_FAMILIES = {"WCT", "WCRT", "WGini", "WCRE", "WCE", "DWCRE", "DWCE"}

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_VERIFY = 4


class _UsageError(Exception):
    pass


def _fmt(x: float) -> str:
    return f"{x:.6f}"


def _grid_size(args) -> int:
    raw = os.environ.get(GRID_ENV)
    if raw is None:
        return E.DEFAULT_GRID
    try:
        n = int(raw)
    except ValueError:
        raise _UsageError(f"{GRID_ENV} must be an integer >= 17, got {raw!r}") from None
    if n < 17:
        raise _UsageError(f"{GRID_ENV} must be >= 17, got {n}")
    return n


def _parse_params(pairs) -> dict:
    params = {}
    for item in pairs or []:
        if "=" not in item:
            raise _UsageError(f"--param expects key=value, got {item!r}")
        key, _, val = item.partition("=")
        try:
            params[key.strip()] = float(val)
        except ValueError:
            raise _UsageError(f"--param {key}: non-numeric value {val!r}") from None
    return params


def _moments_from_args(args) -> B.MomentInfo:
    has_mu = args.mu is not None or args.sigma is not None
    has_csv = getattr(args, "input", None) is not None
    if has_mu and has_csv:
        raise _UsageError("--mu/--sigma and --input are mutually exclusive")
    if has_csv:
        column = args.column if args.column is not None else 0
        if isinstance(column, str) and column.isdigit():
            column = int(column)
        series = I.load_returns_csv(args.input, column)
        return I.sample_moments(series, estimator=args.estimator)
    if args.mu is None or args.sigma is None:
        raise _UsageError("provide --mu and --sigma, or --input CSV")
    if args.sigma < 0:
        raise _UsageError("--sigma must be >= 0")
    return B.MomentInfo(args.mu, args.sigma)


def _parse_grid(text: str):
    try:
        a, b, n = text.split(":")
        a, b, n = float(a), float(b), int(n)
    except ValueError:
        raise _UsageError(f"grid must look like a:b:n, got {text!r}") from None
    if n < 1:
        raise _UsageError("grid needs at least one point")
    return np.linspace(a, b, n)


def _emit(args, text: str):
    out = getattr(args, "out", None)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _print_result(args, result: B.BoundResult):
    if args.format == "json":
        _emit(args, json.dumps(result.record(), sort_keys=True) + "\n")
    elif args.format == "csv":
        rec = result.record()
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(list(rec))
        writer.writerow([repr(v) if isinstance(v, float) else v for v in rec.values()])
        _emit(args, buf.getvalue())
    else:
        lines = [f"family = {result.family}",
                 f"mode = {result.mode}",
                 f"sup = {_fmt(result.sup_value)}",
                 f"L2 = {_fmt(result.l2_term)}",
                 f"center = {_fmt(result.center)}",
                 f"degenerate = {result.degenerate}"]
        _emit(args, "\n".join(lines) + "\n")


def _build_bound(args) -> B.BoundResult:
    params = _parse_params(args.param)
    g = D.catalog_lookup(args.family, params)
    moments = _moments_from_args(args)
    engine = args.engine
    n_grid = _grid_size(args)
    if g.weighted:
        weight = D.linear_weight() if args.family in _LINEAR_WEIGHT_FAMILIES else None
        return B.worst_case_weighted(
            g, weight, B.MomentInfo(moments.mu, moments.sigma, weighted=True),
            engine=engine, n_grid=n_grid)
    mode = args.mode
    extras = None
    if mode is not None:
        extras = {}
        for key in ("F_t", "p", "tau"):
            if key in params:
                extras[key] = params[key]
    return B.worst_case_bound(g, mode, extras, moments, engine=engine, n_grid=n_grid)


def _cmd_families(args) -> int:
    lines = []
    for name in D.family_names():
        spec = D.family_spec(name)
        params = ",".join(spec.param_names) if spec.param_names else "-"
        lines.append(f"{name}\t{params}\t{spec.mode}\t{spec.description}")
    _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK


def _cmd_bound(args) -> int:
    _print_result(args, _build_bound(args))
    return EXIT_OK


def _cmd_quantile(args) -> int:
    result = _build_bound(args)
    us, qs = result.quantile_grid(n=args.points)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["u", "Q"])
    for u, q in zip(us, qs):
        writer.writerow([repr(float(u)), repr(float(q))])
    _emit(args, buf.getvalue())
    return EXIT_OK


def _cmd_envelope(args) -> int:
    params = _parse_params(args.param)
    g = D.catalog_lookup(args.family, params)
    tg = D.default_transform(g) if args.mode is None else D.make_ghat(
        g, args.mode, {k: params[k] for k in ("F_t", "p", "tau") if k in params})
    env, _ = B._build_envelope(tg, args.engine, _grid_size(args))
    table = E.envelope_table(env, n=args.points)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["u", "ghat", "envelope", "slope"])
    for row in table:
        writer.writerow([repr(float(v)) for v in row])
    _emit(args, buf.getvalue())
    return EXIT_OK


def _cmd_premium(args) -> int:
    params = _parse_params(args.param)
    moments = _moments_from_args(args)
    if args.kappa_grid:
        kappas = _parse_grid(args.kappa_grid)
    elif args.kappa is not None:
        kappas = [args.kappa]
    else:
        raise _UsageError("provide --kappa or --kappa-grid a:b:n")
    rows = [(float(k), B.premium_bound(args.family, params, float(k), moments))
            for k in kappas]
    if args.format == "human":
        lines = [f"kappa = {_fmt(k)}  bound = {_fmt(v)}" for k, v in rows]
        _emit(args, "\n".join(lines) + "\n")
    elif args.format == "json":
        _emit(args, json.dumps([{"kappa": k, "bound": v} for k, v in rows]) + "\n")
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["kappa", "bound"])
        for k, v in rows:
            writer.writerow([repr(k), repr(v)])
        _emit(args, buf.getvalue())
    return EXIT_OK


def _cmd_shortfall(args) -> int:
    moments = _moments_from_args(args)
    params = _parse_params(args.param)
    tau = args.tau if args.tau is not None else params.get("tau", 0.0)
    ps = _parse_grid(args.p_grid) if args.p_grid else \
        ([args.p] if args.p is not None else None)
    if ps is None:
        raise _UsageError("provide --p or --p-grid a:b:n")
    rows = []
    for p in ps:
        spec = B.ShortfallSpec(args.family, p=float(p), tau=float(tau),
                               alpha=params.get("alpha"), r=params.get("r"))
        rows.append((float(p), B.shortfall_value(spec, moments)))
    if args.format == "human":
        if len(rows) == 1:
            _emit(args, f"sup = {_fmt(rows[0][1])}\n")
        else:
            _emit(args, "\n".join(f"p = {_fmt(p)}  bound = {_fmt(v)}"
                                  for p, v in rows) + "\n")
    elif args.format == "json":
        _emit(args, json.dumps([{"p": p, "bound": v} for p, v in rows]) + "\n")
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["p", "bound"])
        for p, v in rows:
            writer.writerow([repr(p), repr(v)])
        _emit(args, buf.getvalue())
    return EXIT_OK


def _cmd_verify(args) -> int:
    params = _parse_params(args.param)
    g = D.catalog_lookup(args.family, params)
    moments = _moments_from_args(args)
    result = B.worst_case_bound(g, moments=moments)
    lines = [f"family = {g.family}", f"bound = {_fmt(result.sup_value)}"]
    failures = []
    if not result.degenerate and moments.sigma > 0:
        mean, var = O.quantile_moments(result.quantile)
        mean_ok = abs(mean - moments.mu) <= 1e-6 * max(1.0, abs(moments.mu))
        var_ok = abs(var - moments.sigma ** 2) <= 1e-6 * max(1.0, moments.sigma ** 2)
        lines.append(f"worst-case moments = ({_fmt(mean)}, {_fmt(var)}) "
                     f"[{'ok' if mean_ok and var_ok else 'FAIL'}]")
        if not (mean_ok and var_ok):
            failures.append("moments")
        attained = O.riskmetric_of_quantile(g, None, None, result.quantile)
        att_ok = abs(attained - result.sup_value) <= 1e-5 * max(1.0, abs(result.sup_value))
        lines.append(f"attained = {_fmt(attained)} [{'ok' if att_ok else 'FAIL'}]")
        if not att_ok:
            failures.append("attainment")
    try:
        report = O.feasibility_stress(g, None, None, moments,
                                      trials=args.trials, seed=args.seed)
        lines.append(f"stress max = {_fmt(report.max_observed)} "
                     f"(gap {report.gap:.3e}, worst shape {report.worst_shape}) [ok]")
        lines.append(report.to_json())
    except BoundViolated as exc:
        failures.append("dominance")
        lines.append(f"stress FAILED: {exc}")
    _emit(args, "\n".join(lines) + "\n")
    return EXIT_VERIFY if failures else EXIT_OK


def _cmd_report(args) -> int:
    kappas = _parse_grid(args.kappa_grid) if args.kappa_grid else None
    ps = _parse_grid(args.p_grid) if args.p_grid else None
    if args.input:
        column = args.column if args.column is not None else 0
        if isinstance(column, str) and column.isdigit():
            column = int(column)
        series = I.load_returns_csv(args.input, column)
        moments = [(series.label, I.sample_moments(series, estimator=args.estimator))]
    else:
        moments = list(I.DEMO_MOMENTS)
    report = I.build_report(moments, kappa_grid=kappas, p_grid=ps)
    _emit(args, report.to_csv())
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="riskbound",
        description="Sharp worst-case bounds for distortion riskmetrics and "
                    "entropies under mean-variance information.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, moments=True):
        p.add_argument("--format", choices=("human", "csv", "json"), default="human")
        p.add_argument("--out", default=None, help="write output to a file")
        if moments:
            p.add_argument("--mu", type=float, default=None)
            p.add_argument("--sigma", type=float, default=None)
            p.add_argument("--input", default=None, help="CSV of returns")
            p.add_argument("--column", default=None, help="CSV column name or index")
            p.add_argument("--estimator", choices=("population", "sample"),
                           default="population")

    p = sub.add_parser("families", help="list catalog families")
    add_common(p, moments=False)
    p.set_defaults(fn=_cmd_families)

    p = sub.add_parser("bound", help="sharp worst-case bound")
    p.add_argument("--family", required=True)
    p.add_argument("--param", action="append", metavar="key=value")
    p.add_argument("--mode", choices=D.MODES, default=None)
    p.add_argument("--engine", choices=("auto", "analytic", "numeric"), default="auto")
    add_common(p)
    p.set_defaults(fn=_cmd_bound)

    p = sub.add_parser("quantile", help="worst-case quantile grid (CSV)")
    p.add_argument("--family", required=True)
    p.add_argument("--param", action="append", metavar="key=value")
    p.add_argument("--mode", choices=D.MODES, default=None)
    p.add_argument("--engine", choices=("auto", "analytic", "numeric"), default="auto")
    p.add_argument("--points", type=int, default=1001)
    add_common(p)
    p.set_defaults(fn=_cmd_quantile)

    p = sub.add_parser("envelope", help="(u, ghat, envelope, slope) table (CSV)")
    p.add_argument("--family", required=True)
    p.add_argument("--param", action="append", metavar="key=value")
    p.add_argument("--mode", choices=D.MODES, default=None)
    p.add_argument("--engine", choices=("auto", "analytic", "numeric"), default="auto")
    p.add_argument("--points", type=int, default=1001)
    add_common(p, moments=False)
    p.set_defaults(fn=_cmd_envelope)

    p = sub.add_parser("premium", help="premium-principle bound over a kappa grid")
    p.add_argument("--family", required=True)
    p.add_argument("--param", action="append", metavar="key=value")
    p.add_argument("--kappa", type=float, default=None)
    p.add_argument("--kappa-grid", default=None, metavar="a:b:n")
    add_common(p)
    p.set_defaults(fn=_cmd_premium)

    p = sub.add_parser("shortfall", help="entropy-shortfall bound")
    p.add_argument("--family", required=True,
                   choices=("GS", "EGS", "CRES", "CRTES", "ES"))
    p.add_argument("--param", action="append", metavar="key=value")
    p.add_argument("--p", type=float, default=None)
    p.add_argument("--tau", type=float, default=None)
    p.add_argument("--p-grid", default=None, metavar="a:b:n")
    add_common(p)
    p.set_defaults(fn=_cmd_shortfall)

    p = sub.add_parser("verify", help="attainment + randomized dominance check")
    p.add_argument("--family", required=True)
    p.add_argument("--param", action="append", metavar="key=value")
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    add_common(p)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("report", help="premium/shortfall bound tables (CSV)")
    p.add_argument("--kappa-grid", default=None, metavar="a:b:n")
    p.add_argument("--p-grid", default=None, metavar="a:b:n")
    p.add_argument("--input", default=None, help="CSV of returns")
    p.add_argument("--column", default=None)
    p.add_argument("--estimator", choices=("population", "sample"),
                   default="population")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_report)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except BoundViolated as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except RiskboundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
