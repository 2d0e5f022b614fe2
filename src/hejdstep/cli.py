"""Command-line front end: price, table, greeks, roots, verify.

Exit codes: 0 success, 2 invalid configuration or arguments, 3 numerical
errors.  JSON output embeds the run manifest; csv/text written to --out gets
a sibling <out>.manifest.json; csv/text on stdout omits the manifest.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import io
import json
import math
import sys
from pathlib import Path

from . import __version__
from .config import config_values, parse_config
from .errors import ConfigError, HejdStepError, OrderError
from .inversion import DEFAULT_GS_ORDER, QUANTITIES, price_summary, price_time_domain
from .model import DownOutStepSpec, HejdModel
from .montecarlo import PathConfig, verify_duality
from .roots import find_roots
from .tables import TABLE_IDS, build_table


def _write_output(text: str, out: str | None) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if not out:
        sys.stdout.write(text)
        return
    try:
        Path(out).write_text(text)
    except OSError as exc:
        raise ConfigError(f"cannot write output {out}: {exc}") from exc


def _json(doc: dict) -> str:
    """doc as RFC 8259 JSON: each non-finite float (an undefined ratio or
    z-score) is written as null."""
    def finite(v):
        if isinstance(v, dict):
            return {k: finite(w) for k, w in v.items()}
        if isinstance(v, (list, tuple)):
            return [finite(w) for w in v]
        return None if isinstance(v, float) and not math.isfinite(v) else v
    return json.dumps(finite(doc), indent=2, sort_keys=True, allow_nan=False)


def _csv(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _manifest(args: argparse.Namespace, model: HejdModel | None, spec: DownOutStepSpec | None) -> dict:
    """Enough resolved state to reproduce the output bit-exactly: the
    resolved market and contract plus every parsed argument except the
    config path (resolved into them) and the output path."""
    parameters = {k: v for k, v in vars(args).items() if k not in ("func", "command", "config", "out")}
    return {
        "command": args.command,
        "engine_version": __version__,
        "gs_order": parameters.pop("gs_order", None),
        "model": config_values(model),
        "contract": config_values(spec),
        "parameters": parameters,
        "created_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
    }


# Each command maps (args, model, spec) to (doc, body): ``doc`` is the record
# JSON and csv output show (None for the csv-only commands), ``body`` the
# text or csv output.

def _cmd_price(args: argparse.Namespace, model: HejdModel, spec: DownOutStepSpec) -> tuple[dict, str]:
    if args.quantity == "all":
        doc = price_summary(model, spec, args.t, args.x, args.gs_order)
        # an 8-wide label column, and a space after the labels longer than it
        lines = [f"{q:<7} {doc[q]:.3f}" for q in QUANTITIES]
        lines += [f"eep%    {doc['eep_pct']:.2f}", f"dc%     {doc['dc_pct']:.2f}"]
    else:
        value = price_time_domain(model, spec, args.t, args.x, args.quantity, args.gs_order)
        doc = {"quantity": args.quantity, "value": value}
        lines = [f"{args.quantity}  {value:.3f}"]
    return doc, "\n".join(lines)


def _cmd_table(args: argparse.Namespace, model: None, spec: None) -> tuple[None, str]:
    result = build_table(args.table_id, args.gs_order)
    rows = (["" if isinstance(v, float) and math.isnan(v) else repr(v) if isinstance(v, float) else v
             for v in row] for row in result.rows)
    return None, _csv(result.header, rows)


def _cmd_greeks(args: argparse.Namespace, model: HejdModel, spec: DownOutStepSpec) -> tuple[None, str]:
    if args.x_lo >= args.x_hi:
        raise ConfigError("need x_lo < x_hi")
    if not args.x_lo > 0.0:
        raise ConfigError(f"need a positive x_lo, got {args.x_lo!r}")
    if not 0.0 < args.bump < math.inf:
        raise ConfigError(f"need a finite positive bump, got {args.bump!r}")
    if args.n < 3:
        raise ConfigError("need at least 3 grid points")

    def surface(mdl, sp):
        price = lambda s: price_time_domain(mdl, sp, args.t, s, args.quantity, args.gs_order)
        rows = []
        for i in range(args.n):
            x = args.x_lo + (args.x_hi - args.x_lo) * i / (args.n - 1)
            h = args.bump * x
            f0, fp, fm = price(x), price(x + h), price(x - h)
            rows.append((x, f0, (fp - fm) / (2.0 * h), (fp - 2.0 * f0 + fm) / (h * h)))
        return rows

    rows = surface(model, spec)
    if args.diff_against:
        model2, spec2 = parse_config(args.diff_against)
        rows2 = surface(model2, spec2)
        rows = [
            (x1, v1 - v2, d1 - d2, g1 - g2)
            for (x1, v1, d1, g1), (_, v2, d2, g2) in zip(rows, rows2)
        ]
    return None, _csv(("x", "value", "delta", "gamma"), ([repr(v) for v in row] for row in rows))


def _cmd_roots(args: argparse.Namespace, model: HejdModel, spec: DownOutStepSpec) -> tuple[dict, str]:
    roots = find_roots(model, args.alpha)
    rows = [
        {"root": root, "kind": kind, "index": i + 1, "bracket_lo": lo, "bracket_hi": hi}
        for kind, i, root, lo, hi in roots.labelled(model)
    ]
    doc = {"alpha": roots.alpha, "max_residual": roots.max_residual, "roots": rows}
    lines = [f"roots of Phi(theta) = {roots.alpha} (max residual {roots.max_residual:.3e})"]
    for row in rows:
        lines.append(
            f"  {row['kind']}[{row['index']}] = {row['root']:.12g}"
            f"   bracket ({row['bracket_lo']:.6g}, {row['bracket_hi']:.6g})"
        )
    return doc, "\n".join(lines)


def _cmd_verify(args: argparse.Namespace, model: HejdModel, spec: DownOutStepSpec) -> tuple[dict, str]:
    cfg = PathConfig(n_paths=args.paths, dt=args.dt, seed=args.seed)
    engine = price_time_domain(model, spec, args.t, args.x, "euro", args.gs_order)
    duality = verify_duality(model, spec, args.t, args.x, cfg)
    mc = duality.call  # the stream-0 call estimate, as mc_euro_step_price gives it
    z_engine = (mc.value - engine) / mc.std_error if mc.std_error > 0 else math.inf
    doc = {
        "engine_euro": engine,
        "mc_euro": mc.value,
        "mc_se": mc.std_error,
        "z_engine_vs_mc": z_engine,
        "duality_call": duality.call.value,
        "duality_put": duality.dual_put.value,
        "duality_pooled_se": duality.pooled_se,
        "z_duality": duality.z_score,
    }
    lines = [
        f"engine euro        {engine:.6f}",
        f"mc euro            {mc.value:.6f}  (se {mc.std_error:.6f})",
        f"deviation          {z_engine:+.2f} se",
        f"duality call       {duality.call.value:.6f}",
        f"duality dual put   {duality.dual_put.value:.6f}",
        f"duality deviation  {duality.z_score:+.2f} pooled se",
    ]
    return doc, "\n".join(lines)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hejdstep",
        description="Geometric down-and-out step call pricing under hyper-exponential jump-diffusion",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_format=True):
        p.add_argument("--gs-order", type=int, default=DEFAULT_GS_ORDER, help="inversion order (1..10)")
        p.add_argument("--out", default=None, help="write output to this file")
        if with_format:
            p.add_argument("--format", choices=("text", "json", "csv"), default="text")

    p = sub.add_parser("price", help="price one contract")
    p.add_argument("config")
    p.add_argument("--t", type=float, required=True, help="time to maturity (years)")
    p.add_argument("--x", type=float, required=True, help="spot price")
    p.add_argument("--quantity", choices=QUANTITIES + ("all",), default="euro")
    add_common(p)
    p.set_defaults(func=_cmd_price)

    p = sub.add_parser("table", help="reproduce a built-in reference grid (CSV)")
    p.add_argument("table_id", type=int, choices=TABLE_IDS)
    add_common(p, with_format=False)
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("greeks", help="emit (x, value, delta, gamma) CSV over a spot grid")
    p.add_argument("config")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--x-lo", type=float, required=True)
    p.add_argument("--x-hi", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--quantity", choices=QUANTITIES, default="euro")
    p.add_argument("--bump", type=float, default=1e-3, help="relative spot bump")
    p.add_argument("--diff-against", default=None, help="subtract this config's surface")
    add_common(p, with_format=False)
    p.set_defaults(func=_cmd_greeks)

    p = sub.add_parser("roots", help="roots of Phi(theta) = alpha with their brackets")
    p.add_argument("config")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_roots)

    p = sub.add_parser("verify", help="Monte-Carlo cross-check and duality report")
    p.add_argument("config")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--paths", type=int, default=100_000)
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--seed", type=int, default=0)
    add_common(p)
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    fmt = getattr(args, "format", "text")
    try:
        model, spec = parse_config(args.config) if "config" in args else (None, None)
        doc, body = args.func(args, model, spec)
        manifest = _manifest(args, model, spec)
        if fmt == "json":
            _write_output(_json({**doc, "manifest": manifest}), args.out)
            return 0
        if fmt == "csv":
            body = _csv(doc, [doc.values()])
        _write_output(body, args.out)
        if args.out:
            _write_output(_json(manifest), args.out + ".manifest.json")
        return 0
    except (ConfigError, OrderError, ValueError) as exc:
        _report_error(exc, fmt, code=2)
        return 2
    except HejdStepError as exc:
        _report_error(exc, fmt, code=3)
        return 3


def _report_error(exc: Exception, fmt: str, code: int) -> None:
    if fmt == "json":
        doc = {"error": {"type": type(exc).__name__, "message": str(exc), "exit_code": code}}
        sys.stdout.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    else:
        sys.stderr.write(f"error: {exc}\n")


if __name__ == "__main__":
    raise SystemExit(main())
