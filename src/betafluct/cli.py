"""Command-line interface: reproducible scans, checks, and dumps."""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

import numpy as np

from . import __version__
from .circular import cbe_points, sample_verblunsky, sine_beta_window
from .gaussian import sample_tridiagonal, semicircle_residual, verify_counts
from .rng import STREAM_CONTRACT, RngStream
from .stats import (
    ScanSpec,
    cue_variance_oracle,
    default_grid,
    tail_check,
    variance_scan,
)

SCAN_HEADER = "ensemble,beta,n,interval,xi,m,mean,variance,var_ci_lo,var_ci_hi,ref_mean"


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _parse_grid(text: str) -> tuple:
    """Grid syntax: 'lo:hi:count' (linear) or 'geom:lo:hi:count' (geometric)."""
    bad = f"bad grid {text!r}; use lo:hi:count or geom:lo:hi:count"
    parts = text.split(":")
    space = np.linspace
    if parts[0] == "geom":
        space, parts = np.geomspace, parts[1:]
    try:
        if len(parts) != 3:
            raise ValueError
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ValueError(bad) from exc
    # an infinite endpoint would give nan grid points and a NumPy warning
    for typed, value in zip(parts, (lo, hi)):
        if math.isinf(value):
            raise ValueError(f"grid endpoints must be finite, got {typed}")
    try:
        return tuple(float(v) for v in space(lo, hi, count))
    except ValueError as exc:
        raise ValueError(bad) from exc


def _parse_float_list(text: str) -> tuple:
    return tuple(float(v) for v in text.split(","))


def _emit_table(header: str, rows, args, extra_manifest=None) -> None:
    """Write rows of typed values as CSV (cells formatted by _fmt) or as JSON
    objects whose numbers stay numbers."""
    if args.fmt == "json":
        keys = header.split(",")
        body = json.dumps([dict(zip(keys, row)) for row in rows], indent=2) + "\n"
    else:
        body = header + "\n" + "".join(",".join(_fmt(v) for v in row) + "\n" for row in rows)
    if args.out:
        suffix = ".json" if args.fmt == "json" else ".csv"
        path = args.out + suffix
        with open(path, "w") as fh:
            fh.write(body)
        manifest = {
            "command": args.command,
            "argv": args.raw_argv,
            "params": {
                k: v
                for k, v in vars(args).items()
                if k not in ("raw_argv", "start_time") and not callable(v)
            },
            "master_seed": getattr(args, "seed", None),
            "stream_contract": STREAM_CONTRACT,
            "version": __version__,
            "duration_s": time.time() - args.start_time,
            "output": path,
        }
        if extra_manifest:
            manifest.update(extra_manifest)
        with open(args.out + ".manifest.json", "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True, default=str)
            fh.write("\n")
        print(f"wrote {path}")
    else:
        sys.stdout.write(body)


def _cmd_scan(args) -> int:
    ensemble = args.command.split("-")[1]
    if args.grid is not None:
        xis = _parse_grid(args.grid)
    elif ensemble == "sine":
        xis = default_grid(args.n, cap=args.n / 16.0)
    else:
        xis = default_grid(args.n)
    spec = ScanSpec(
        ensemble=ensemble, beta=args.beta, n=args.n, xis=xis, center=getattr(args, "center", 0.0)
    )
    rows = [
        (ensemble, args.beta, args.n, r.interval, r.xi, r.m, r.mean, r.variance,
         r.var_ci_lo, r.var_ci_hi, r.ref_mean)
        for r in variance_scan(spec, m=args.samples, seed=args.seed, workers=args.workers)
    ]
    _emit_table(SCAN_HEADER, rows, args, {"grid": list(xis)})
    return 0


def _cmd_verify_count(args) -> int:
    mismatches, flagged = verify_counts(
        beta=args.beta, n=args.n, draws=args.samples, lams_per_draw=args.lams, seed=args.seed
    )
    evaluations = args.samples * args.lams
    print(f"{mismatches} mismatches")
    print(
        f"checked {evaluations} points over {args.samples} draws "
        f"(beta={args.beta}, n={args.n}); {flagged} flagged near-degenerate"
    )
    if mismatches > 0 or flagged / evaluations >= 1e-3:
        return 1
    return 0


def _cmd_tail_check(args) -> int:
    result = tail_check(
        beta=args.beta,
        n=args.n,
        theta=args.theta,
        a=args.a,
        b_grid=_parse_float_list(args.b_grid),
        m=args.samples,
        seed=args.seed,
        workers=args.workers,
    )
    rows = [
        (r.b, r.hits, args.samples, r.empirical, r.wilson_hi, r.bound) for r in result.rows
    ]
    _emit_table(
        "b,hits,m,empirical,wilson_hi,bound", rows, args, {"second_moment": result.second_moment}
    )
    if not args.out:
        # on stderr, so that stdout holds only the table
        print(
            f"second moment of (psi - a): {result.second_moment:.6g} (bound 3500)", file=sys.stderr
        )
    return 0


def _cmd_semicircle_residual(args) -> int:
    lines = []
    for n in (int(v) for v in _parse_float_list(args.n_grid)):
        if n < 1:
            raise ValueError(f"n must be at least 1, got {n}")
        root = math.sqrt(n)
        for factor in _parse_float_list(args.mu_factors):
            mu = factor * root
            lines.append((n, mu, semicircle_residual(mu, n)))
    _emit_table("n,mu,residual", lines, args)
    return 0


def _cmd_oracle_cue(args) -> int:
    grid = _parse_grid(args.grid) if args.grid else tuple(np.linspace(0.0, 2.0 * math.pi, 13))
    # forgive rounded grid endpoints like 6.2832
    clamped = [min(max(L, 0.0), 2.0 * math.pi) for L in grid]
    lines = [(L, cue_variance_oracle(args.n, L)) for L in clamped]
    _emit_table("arc_length,variance", lines, args)
    return 0


def _cmd_sample(args) -> int:
    if args.samples < 1:
        raise ValueError(f"need at least 1 draw, got {args.samples}")
    if args.n is None and args.ensemble != "sine":
        args.n = 64  # sine_beta_window picks its own size for n=None
    lines = []
    if args.ensemble == "cbe":
        for d in range(args.samples):
            draw = sample_verblunsky(args.beta, args.n, RngStream(args.seed, d))
            for p in cbe_points(draw):
                lines.append((d, float(p)))
        header = "draw,point"
    elif args.ensemble == "sine":
        for d in range(args.samples):
            for p in sine_beta_window(args.beta, args.xmax, args.n, RngStream(args.seed, d)):
                lines.append((d, float(p)))
        header = "draw,point"
    else:
        from scipy.linalg import eigvalsh_tridiagonal

        for d in range(args.samples):
            model = sample_tridiagonal(args.beta, args.n, RngStream(args.seed, d))
            eigs = (
                eigvalsh_tridiagonal(model.diag, model.offdiag)
                if args.n > 1
                else np.asarray(model.diag)
            )
            for e in eigs:
                lines.append((d, float(e)))
        header = "draw,eigenvalue"
    _emit_table(header, lines, args)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="betafluct",
        description="Point-counting statistics for circular and Gaussian beta ensembles.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    # One parent parser per flag group; each subcommand takes only the groups
    # it reads.
    size = argparse.ArgumentParser(add_help=False)
    size.add_argument("--n", type=int, default=64, help="number of points")
    draws = argparse.ArgumentParser(add_help=False)
    draws.add_argument("--beta", type=float, default=2.0, help="ensemble parameter beta > 0")
    draws.add_argument("--samples", type=int, default=1000, help="Monte Carlo replicas")
    draws.add_argument("--seed", type=int, default=0, help="master seed")
    workers = argparse.ArgumentParser(add_help=False)
    workers.add_argument("--workers", type=int, default=1, help="worker processes; 0 = one per CPU")
    grid = argparse.ArgumentParser(add_help=False)
    grid.add_argument("--grid", type=str, default=None, help="lo:hi:count or geom:lo:hi:count")
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--out", type=str, default=None, help="output stem (.csv + .manifest.json)")
    output.add_argument(
        "--format", dest="fmt", choices=("csv", "json"), default="csv", help="table format"
    )

    for name, help_text in (
        ("scan-cbe", "variance scan of circular-ensemble arc counts"),
        ("scan-gbe", "variance scan of Gaussian-ensemble interval counts"),
        ("scan-sine", "variance scan of sine-process window counts"),
    ):
        p = sub.add_parser(name, parents=[size, draws, workers, grid, output], help=help_text)
        if name == "scan-gbe":
            p.add_argument("--center", type=float, default=0.0, help="interval center")
        p.set_defaults(func=_cmd_scan)

    p = sub.add_parser(
        "verify-count", parents=[size, draws], help="phase-sweep vs Sturm count cross-check"
    )
    p.add_argument("--lams", type=int, default=50, help="spectral points per draw")
    p.set_defaults(func=_cmd_verify_count)

    p = sub.add_parser(
        "tail-check", parents=[size, draws, workers, output], help="phase tail bound check"
    )
    p.add_argument("--theta", type=float, default=None, help="angle step (default 1/n)")
    p.add_argument("--a", type=float, default=0.0, help="phase offset")
    p.add_argument("--b-grid", type=str, default="6,12,24,36", help="comma-separated thresholds")
    p.set_defaults(func=_cmd_tail_check)

    p = sub.add_parser(
        "semicircle-residual", parents=[output], help="carousel angle sum vs semicircle mass"
    )
    p.add_argument("--n-grid", type=str, default="100,1000,10000,100000")
    p.add_argument(
        "--mu-factors",
        type=str,
        default="0,0.5,1,1.5,1.9,2",
        help="mu values in units of sqrt(n)",
    )
    p.set_defaults(func=_cmd_semicircle_residual)

    p = sub.add_parser(
        "oracle-cue", parents=[size, grid, output], help="exact beta=2 arc-count variance"
    )
    p.set_defaults(func=_cmd_oracle_cue)

    p = sub.add_parser("sample", parents=[draws, output], help="dump raw points or eigenvalues")
    p.add_argument(
        "--n", type=int, default=None, help="number of points (64; sine: max(4096, 50 * xmax))"
    )
    p.add_argument("--ensemble", choices=("cbe", "gbe", "sine"), default="cbe")
    p.add_argument("--xmax", type=float, default=20.0, help="window length (sine only)")
    p.set_defaults(func=_cmd_sample)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
        return 0 if code == 0 else 2
    args.raw_argv = argv
    args.start_time = time.time()
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
