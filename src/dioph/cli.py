"""Command-line front end: constants tables, dual-bound evaluation,
simulation runs, and verification suites.

Exit codes: 0 success, 2 usage, 3 domain/hypothesis violations, 4 numeric
failures.  Identical inputs and configuration produce byte-identical output.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence

from . import bounds as bd
from . import pgn
from .numerics import (
    DEFAULT_PRECISION_BITS,
    NumericsError,
    PrecisionReal,
    Scalar,
    e_value,
    format_real,
    golden_value,
    liouville_value,
    log as nlog,
    pi_value,
    sqrt2_value,
)
from .pgn.io import (
    dump_json,
    estimates_to_dict,
    theorem_report_to_dict,
    write_diagnostics_csv,
    write_profile_csv,
    write_sequence_csv,
)
from .suites import SUITE_NAMES, run_suite

__all__ = ["RunConfig", "main", "build_parser"]

# candidate-pool cap, xmax * (2 widen + 1)^n: the pool at n = 1, widen 1, xmax 10^6
POOL_CAP = 3 * 10**6

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_NUMERIC = 4

_NAMED_CONSTANTS = {
    "e": e_value,
    "pi": pi_value,
    "sqrt2": sqrt2_value,
    "golden": golden_value,
    "liouville": liouville_value,
}


@dataclass(frozen=True)
class RunConfig:
    """precision_bits, the relative root width tol (None: each solve takes
    the precision's default, ``numerics.at_precision(DEFAULT_TOL, bits)``)
    and the output format."""

    precision_bits: int = DEFAULT_PRECISION_BITS
    tol: Optional[Scalar] = None
    output_format: str = "text"

    def __post_init__(self):
        if self.precision_bits < 64:
            raise ValueError("precision_bits must be >= 64")
        if self.tol is not None and PrecisionReal(self.tol, self.precision_bits).sign() <= 0:
            raise ValueError("tol must parse as a positive real")
        if self.output_format not in ("json", "csv", "text"):
            raise ValueError("output_format must be json, csv or text")


def _parse_n_range(spec: str, even_only: bool) -> List[int]:
    spec = spec.strip()
    if ".." in spec:
        lo_s, hi_s = spec.split("..", 1)
        lo, hi = int(lo_s), int(hi_s)
    else:
        lo = hi = int(spec)
    if lo > hi:
        raise ValueError("empty n range")
    ns = [n for n in range(lo, hi + 1) if not even_only or n % 2 == 0]
    if not ns:
        raise ValueError("n range selects no dimensions")
    if min(ns) < 2:
        raise ValueError("n must be >= 2")
    return ns


def _fmt_opt(v: Optional[PrecisionReal], significant: int = 12) -> Optional[str]:
    return None if v is None else format_real(v, significant)


def _report_row(rep: bd.ConstantsReport) -> dict:
    return {
        "n": rep.n,
        "tau": _fmt_opt(rep.tau_n),
        "sigma": _fmt_opt(rep.sigma_n),
        "w_aux": _fmt_opt(rep.w_n_aux),
        "mu": _fmt_opt(rep.mu_n),
        "regular_graph_bound": _fmt_opt(rep.regular_graph_bound),
        "chi": _fmt_opt(rep.chi_estimate),
        "laurent": _fmt_opt(rep.laurent_bound),
    }


def _cmd_bounds(args, config: RunConfig, out) -> int:
    ns = _parse_n_range(args.n, args.even)
    bits, tol = config.precision_bits, config.tol
    theta = bd.theta(bits, tol)
    reports = [bd.constants_report(n, bits, theta_value=theta, tol=tol) for n in ns]
    rows = [_report_row(r) for r in reports]
    theta_str = format_real(theta, 12)
    if config.output_format == "json":
        print(dump_json({"theta": theta_str}), file=out)
        for row in rows:
            print(dump_json(row), file=out)
    elif config.output_format == "csv":
        cols = ["n", "tau", "sigma", "w_aux", "mu", "regular_graph_bound", "chi", "laurent", "theta"]
        print(",".join(cols), file=out)
        for row in rows:
            cells = [str(row["n"])] + [row[c] or "n/a" for c in cols[1:-1]] + [theta_str]
            print(",".join(cells), file=out)
    else:
        print(f"theta = {theta_str}", file=out)
        for row in rows:
            parts = [f"n={row['n']}"]
            for key in ("tau", "sigma", "w_aux", "mu", "regular_graph_bound", "chi", "laurent"):
                parts.append(f"{key}={row[key] or 'n/a'}")
            print("  ".join(parts), file=out)
    return EXIT_OK


def _cmd_theorem_new(args, config: RunConfig, out) -> int:
    bits = config.precision_bits
    ctx = bd.mm_defect(args.n, args.alpha, args.beta, bits)
    payload = {
        "n": ctx.n,
        "alpha": format_real(ctx.alpha, 12),
        "beta": format_real(ctx.beta, 12),
        "epsilon": format_real(ctx.epsilon, 12),
        "threshold": format_real(ctx.threshold, 12),
        "phi": format_real(ctx.phi, 12),
        "rho": format_real(ctx.rho, 12),
        "S": format_real(ctx.S, 12),
        "T": format_real(ctx.T, 12),
    }
    ds = bd.dual_bounds(ctx)  # raises HypothesisViolated with exit code 3
    payload.update(
        {
            "what_lower": format_real(ds.what_lower, 12),
            "what_upper": format_real(ds.what_upper, 12),
            "w_lower": format_real(ds.w_lower, 12),
            "w_upper": format_real(ds.w_upper, 12),
        }
    )
    if config.output_format == "json":
        print(dump_json(payload), file=out)
    else:
        for key in (
            "n", "alpha", "beta", "epsilon", "threshold", "phi", "rho", "S", "T",
            "what_lower", "what_upper", "w_lower", "w_upper",
        ):
            print(f"{key} = {payload[key]}", file=out)
    return EXIT_OK


def _resolve_target(spec: str, n: Optional[int], bits: int) -> pgn.TargetPoint:
    if ":" not in spec:
        raise ValueError("target must be veronese:<value> or explicit:<comma list>")
    kind, rest = spec.split(":", 1)
    if kind == "veronese":
        if n is None:
            raise ValueError("veronese targets require --n")
        maker = _NAMED_CONSTANTS.get(rest)
        xi = maker(bits) if maker else PrecisionReal(rest, bits)
        return pgn.TargetPoint.veronese(xi, n, bits, label=rest)
    if kind == "explicit":
        coords = [c for c in rest.split(",") if c]
        target = pgn.TargetPoint.explicit(coords, bits)
        if n is not None and n != target.n:
            raise ValueError(f"--n {n} does not match {target.n} explicit coordinates")
        return target
    raise ValueError(f"unknown target kind {kind!r}")


def _cmd_simulate(args, config: RunConfig, out) -> int:
    bits = config.precision_bits
    target = _resolve_target(args.target, args.n, bits)
    n = target.n
    boxed = args.xmax * (2 * args.widen + 1) ** n
    if boxed > POOL_CAP and not args.allow_huge:
        raise ValueError(
            f"xmax * (2 widen + 1)^n = {boxed} candidates exceeds the cap {POOL_CAP};"
            " pass --allow-huge to override"
        )

    # the records and the profile of the whole pool come from its kept vectors
    kept, pool_size = pgn.undominated_candidates(target, args.xmax, widen=args.widen)
    seq = pgn.minimal_points(kept)
    q_max = nlog(PrecisionReal(args.xmax, bits)) if args.qmax is None else PrecisionReal(args.qmax, bits)
    grid = pgn.build_q_grid(seq, n, q_max, count=args.grid_points, q_min=args.qmin)
    samples = pgn.profile(kept, grid, n)
    estimates = pgn.estimate_exponents(seq, samples, n, window_fraction=args.window_fraction)
    diagnostics = pgn.intersection_diagnostics(seq, n) if len(seq) >= n + 2 else []

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    files = {}

    path = out_dir / "minimal_points.csv"
    with path.open("w", encoding="utf-8", newline="") as f:
        write_sequence_csv(seq, f)
    files["minimal_points"] = str(path)

    path = out_dir / "profile.csv"
    with path.open("w", encoding="utf-8", newline="") as f:
        write_profile_csv(samples, n, f)
    files["profile"] = str(path)

    path = out_dir / "estimates.json"
    path.write_text(dump_json(estimates_to_dict(estimates)) + "\n", encoding="utf-8")
    files["estimates"] = str(path)

    path = out_dir / "intersections.csv"
    with path.open("w", encoding="utf-8", newline="") as f:
        write_diagnostics_csv(diagnostics, f)
    files["intersections"] = str(path)

    if args.alpha is not None and args.beta is not None:
        report = pgn.check_theorem_v(seq, n, args.alpha, args.beta, bits)
        path = out_dir / "theorem_v.json"
        path.write_text(dump_json(theorem_report_to_dict(report)) + "\n", encoding="utf-8")
        files["theorem_v"] = str(path)

    summary = {
        "target": target.source,
        "n": n,
        "xmax": args.xmax,
        "widen": args.widen,
        "pool_size": pool_size,
        "records": len(seq),
        "profile_samples": len(samples),
        "minkowski_defect": format_real(pgn.minkowski_defect(samples), 12),
        "estimates": estimates_to_dict(estimates),
        "files": files,
    }
    print(dump_json(summary), file=out)
    return EXIT_OK


def _cmd_verify(args, config: RunConfig, out) -> int:
    results = run_suite(args.suite, config.precision_bits)
    all_ok = True
    for r in results:
        all_ok = all_ok and r.ok
        print(
            dump_json({"suite": r.suite, "check": r.name, "ok": r.ok, "detail": r.detail}),
            file=out,
        )
    return EXIT_OK if all_ok else 1


def _add_format(p: argparse.ArgumentParser, choices: Sequence[str]) -> None:
    p.add_argument(
        "--format",
        dest="output_format",
        choices=choices,
        default=argparse.SUPPRESS,
        help="output format",
    )


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--precision-bits",
        type=int,
        default=argparse.SUPPRESS,
        help="working mantissa precision (>= 64)",
    )

    parser = argparse.ArgumentParser(
        prog="dioph",
        description="Diophantine exponent bounds and parametric-geometry simulations",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bounds", help="per-dimension constants table", parents=[common])
    p.add_argument("--n", required=True, help="dimension or range, e.g. 4 or 4..8")
    p.add_argument("--even", action="store_true", help="keep only even dimensions")
    p.add_argument(
        "--tol",
        default=argparse.SUPPRESS,
        help="relative width of every root (default: 1e-30, or the finest the precision reaches)",
    )
    _add_format(p, ("json", "csv", "text"))
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("theorem-new", help="dual-exponent bounds for one (n, alpha, beta)", parents=[common])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", required=True)
    p.add_argument("--beta", required=True)
    _add_format(p, ("json", "text"))
    p.set_defaults(func=_cmd_theorem_new)

    p = sub.add_parser("simulate", help="minimal points, profile, and exponent estimates", parents=[common])
    p.add_argument("--target", required=True, help="veronese:<name|decimal> or explicit:<c1,c2,...>")
    p.add_argument("--n", type=int, help="dimension (veronese targets)")
    p.add_argument("--xmax", type=int, required=True)
    p.add_argument("--widen", type=int, default=1, help="box radius around the rounded vector")
    p.add_argument("--grid-points", type=int, default=200)
    p.add_argument("--window-fraction", type=float, default=0.5)
    p.add_argument("--qmin", default="0.5")
    p.add_argument("--qmax", default=None)
    p.add_argument("--alpha", default=None, help="envelope exponent for the record checker")
    p.add_argument("--beta", default=None, help="envelope exponent for the record checker")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--allow-huge", action="store_true", help="lift the candidate-pool cap")
    _add_format(p, ("json",))
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("verify", help="run a named invariant suite", parents=[common])
    p.add_argument("suite", choices=sorted(SUITE_NAMES))
    _add_format(p, ("json",))
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    env_bits = os.environ.get("DIOPH_PRECISION_BITS")
    try:
        config = RunConfig(
            precision_bits=getattr(
                args,
                "precision_bits",
                int(env_bits) if env_bits else DEFAULT_PRECISION_BITS,
            ),
            tol=getattr(args, "tol", None),
            output_format=getattr(args, "output_format", "text"),
        )
    except ValueError as ex:
        parser.error(str(ex))  # exits with code 2
    try:
        return args.func(args, config, out)
    except (bd.DomainError, bd.HypothesisViolated, bd.NotRegularGraph, bd.DegenerateContext) as ex:
        print(dump_json({"error": type(ex).__name__, "message": str(ex)}), file=out)
        return EXIT_DOMAIN
    except (bd.NoRoot, NumericsError, pgn.PgnError) as ex:
        print(dump_json({"error": type(ex).__name__, "message": str(ex)}), file=out)
        return EXIT_NUMERIC
    except ValueError as ex:
        parser.error(str(ex))


if __name__ == "__main__":
    raise SystemExit(main())
