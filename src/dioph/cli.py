"""Command-line front end: constants tables, dual-bound evaluation,
simulation runs, and verification suites.

Exit codes: 0 success, 1 a failed `verify` check, 2 usage, 3
domain/hypothesis violations, 4 numeric failures, 141 stdout closed by its
reader (128 + SIGPIPE, what a shell reports for a writer a closed pipe
ends).  Identical inputs and configuration produce byte-identical output.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import Callable, List, Optional, Sequence

from . import bounds as bd
from . import pgn
from .numerics import (
    DEFAULT_PRECISION_BITS,
    NAMED_CONSTANTS,
    NumericsError,
    PrecisionReal,
    format_real,
    log as nlog,
)
from .pgn.io import (
    dump_json,
    estimates_to_dict,
    record_to_dict,
    theorem_report_to_dict,
    write_diagnostics_csv,
    write_profile_csv,
    write_sequence_csv,
)

__all__ = ["main", "build_parser"]

# the choices of `verify`, the keys of suites.SUITE_NAMES: suites loads only
# when a suite runs
SUITE_NAMES = ("constants", "corollary", "monotonicity", "oracle", "profile")

# candidate-pool cap, xmax * (2 widen + 1)^n: the pool at n = 1, widen 1, xmax 10^6
POOL_CAP = 3 * 10**6

# --grid-points cap: veronese:e at n = 2, xmax 2000 takes about 0.13 ms and 1 KB
# per grid point (2,000 points: 0.32 s, 21 MB max RSS; 20,000: 2.56 s, 41 MB),
# so 10^5 points cost about 13 s and 100 MB there, and more at larger n
GRID_CAP = 10**5

# the constants table's keys, one per bounds.ConstantsReport field, in order
BOUNDS_KEYS = ("n", "tau", "sigma", "w_aux", "mu", "regular_graph_bound", "chi", "laurent")

EXIT_OK = 0
EXIT_DOMAIN = 3
EXIT_NUMERIC = 4
EXIT_BROKEN_PIPE = 141


def _precision_bits(text: str) -> int:
    """A --precision-bits or DIOPH_PRECISION_BITS value: an integer >= 64."""
    try:
        bits = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if bits < 64:
        raise argparse.ArgumentTypeError("precision_bits must be >= 64")
    return bits


def _real_flag(accept: Callable[[PrecisionReal], bool], message: str) -> Callable[[str], str]:
    """An argparse type for a real that accept passes, kept as text so each
    use reads it at its own precision."""

    def parse(text: str) -> str:
        try:
            ok = accept(PrecisionReal(text, 64))
        except (ValueError, ZeroDivisionError):  # "abc", "1/0"
            ok = False
        if not ok:
            raise argparse.ArgumentTypeError(message)
        return text

    return parse


_positive_tol = _real_flag(lambda r: r.is_finite and r.sign() > 0, "tol must parse as a positive real")
_finite_real = _real_flag(lambda r: r.is_finite, "must parse as a finite real")  # --qmin, --qmax
# --alpha, --beta: NaN and inf reach the solvers, which refuse them with exit 3
_real = _real_flag(lambda r: True, "must parse as a real")


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


def _cell(value) -> str:
    """A text or CSV cell of the constants table: n/a where a constant is not defined."""
    return "n/a" if value is None else str(value)


def _cmd_bounds(args, out) -> int:
    ns = _parse_n_range(args.n, args.even)
    bits, tol = args.precision_bits, args.tol
    theta = format_real(bd.theta(bits, tol))
    rows = [record_to_dict(bd.constants_report(n, bits, tol), BOUNDS_KEYS) for n in ns]
    if args.output_format == "json":
        print(dump_json({"theta": theta}), file=out)
        for row in rows:
            print(dump_json(row), file=out)
    elif args.output_format == "csv":
        print(",".join(BOUNDS_KEYS + ("theta",)), file=out)
        for row in rows:
            print(",".join([_cell(v) for v in row.values()] + [theta]), file=out)
    else:
        print(f"theta = {theta}", file=out)
        for row in rows:
            print("  ".join(f"{key}={_cell(v)}" for key, v in row.items()), file=out)
    return EXIT_OK


def _cmd_theorem_new(args, out) -> int:
    ctx = bd.mm_defect(args.n, args.alpha, args.beta, args.precision_bits)
    payload = {**record_to_dict(ctx), **record_to_dict(bd.dual_bounds(ctx))}  # HypothesisViolated: exit 3
    if args.output_format == "json":
        print(dump_json(payload), file=out)
    else:
        for key, value in payload.items():
            print(f"{key} = {value}", file=out)
    return EXIT_OK


def _resolve_target(spec: str, n: Optional[int], bits: int) -> pgn.TargetPoint:
    if ":" not in spec:
        raise ValueError("target must be veronese:<value> or explicit:<comma list>")
    kind, rest = spec.split(":", 1)
    if kind == "veronese":
        if n is None:
            raise ValueError("veronese targets require --n")
        maker = NAMED_CONSTANTS.get(rest)
        xi = maker(bits) if maker else PrecisionReal(rest, bits)
        return pgn.TargetPoint.veronese(xi, n, bits, label=rest)
    if kind == "explicit":
        coords = [c for c in rest.split(",") if c]
        target = pgn.TargetPoint.explicit(coords, bits)
        if n is not None and n != target.n:
            raise ValueError(f"--n {n} does not match {target.n} explicit coordinates")
        return target
    raise ValueError(f"unknown target kind {kind!r}")


def _cmd_simulate(args, out) -> int:
    bits = args.precision_bits
    target = _resolve_target(args.target, args.n, bits)
    n = target.n
    caps = (
        (args.xmax * (2 * args.widen + 1) ** n, POOL_CAP, "xmax * (2 widen + 1)^n = {} candidates"),
        (args.grid_points, GRID_CAP, "--grid-points {}"),
    )
    for size, cap, what in caps:
        if size > cap and not args.allow_huge:
            raise ValueError(f"{what.format(size)} exceeds the cap {cap}; pass --allow-huge to override")

    # the records and the profile of the whole pool come from its kept vectors
    kept, pool_size = pgn.undominated_candidates(target, args.xmax, widen=args.widen)
    seq = pgn.minimal_points(kept)
    q_max = nlog(PrecisionReal(args.xmax, bits)) if args.qmax is None else PrecisionReal(args.qmax, bits)
    grid = pgn.build_q_grid(seq, n, q_max, count=args.grid_points, q_min=args.qmin)
    samples = pgn.profile(kept, grid, n)
    estimates = pgn.estimate_exponents(seq, samples, n, window_fraction=args.window_fraction)
    diagnostics = pgn.intersection_diagnostics(seq, n) if len(seq) >= n + 2 else []

    writers = {
        "minimal_points.csv": lambda f: write_sequence_csv(seq, f),
        "profile.csv": lambda f: write_profile_csv(samples, n, f),
        "estimates.json": lambda f: print(dump_json(estimates_to_dict(estimates)), file=f),
        "intersections.csv": lambda f: write_diagnostics_csv(diagnostics, f),
    }
    if args.alpha is not None and args.beta is not None:
        report = pgn.check_theorem_v(seq, n, args.alpha, args.beta, bits)
        writers["theorem_v.json"] = lambda f: print(dump_json(theorem_report_to_dict(report)), file=f)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    files = {}
    for name, write in writers.items():
        path = out_dir / name
        with path.open("w", encoding="utf-8", newline="") as f:
            write(f)
        files[path.stem] = str(path)

    summary = {
        "target": target.source,
        "n": n,
        "xmax": args.xmax,
        "widen": args.widen,
        "pool_size": pool_size,
        "records": len(seq),
        "profile_samples": len(samples),
        "minkowski_defect": format_real(pgn.minkowski_defect(samples)),
        "estimates": estimates_to_dict(estimates),
        "files": files,
    }
    print(dump_json(summary), file=out)
    return EXIT_OK


def _cmd_verify(args, out) -> int:
    from .suites import run_suite

    results = run_suite(args.suite, args.precision_bits)
    for r in results:
        row = record_to_dict(r)
        row["check"] = row.pop("name")
        print(dump_json(row), file=out)
    return EXIT_OK if all(r.ok for r in results) else 1


def _add_format(p: argparse.ArgumentParser, choices: Sequence[str]) -> None:
    """--format with the given choices; the last one is the default."""
    p.add_argument(
        "--format", dest="output_format", choices=choices, default=choices[-1], help="output format"
    )


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--precision-bits",
        type=_precision_bits,
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
        type=_positive_tol,
        help="relative width of every root (default: 1e-30, or the finest the precision reaches)",
    )
    _add_format(p, ("json", "csv", "text"))
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("theorem-new", help="dual-exponent bounds for one (n, alpha, beta)", parents=[common])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", type=_real, required=True)
    p.add_argument("--beta", type=_real, required=True)
    _add_format(p, ("json", "text"))
    p.set_defaults(func=_cmd_theorem_new)

    p = sub.add_parser("simulate", help="minimal points, profile, and exponent estimates", parents=[common])
    p.add_argument("--target", required=True, help="veronese:<name|decimal> or explicit:<c1,c2,...>")
    p.add_argument("--n", type=int, help="dimension (veronese targets)")
    p.add_argument("--xmax", type=int, required=True)
    p.add_argument("--widen", type=int, default=1, help="box radius around the rounded vector")
    p.add_argument("--grid-points", type=int, default=200)
    p.add_argument("--window-fraction", type=float, default=0.5)
    p.add_argument("--qmin", type=_finite_real, default="0.5")
    p.add_argument("--qmax", type=_finite_real, default=None)
    p.add_argument("--alpha", type=_real, default=None, help="envelope exponent for the record checker")
    p.add_argument("--beta", type=_real, default=None, help="envelope exponent for the record checker")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--allow-huge", action="store_true", help="lift the candidate-pool and --grid-points caps")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("verify", help="run a named invariant suite", parents=[common])
    p.add_argument("suite", choices=SUITE_NAMES)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "precision_bits"):  # the flag wins over the environment
        env_bits = os.environ.get("DIOPH_PRECISION_BITS")
        try:
            args.precision_bits = _precision_bits(env_bits) if env_bits else DEFAULT_PRECISION_BITS
        except argparse.ArgumentTypeError as ex:
            parser.error(f"DIOPH_PRECISION_BITS: {ex}")
    try:
        code = args.func(args, out)
        out.flush()  # a reader that closed the pipe is seen here, not at exit
        return code
    except BrokenPipeError:  # `dioph ... | head -1`: end quietly
        if out is sys.stdout:  # so that the flush at interpreter exit writes nowhere
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        return EXIT_BROKEN_PIPE
    except (bd.BoundsError, NumericsError, pgn.PgnError) as ex:
        print(dump_json({"error": type(ex).__name__, "message": str(ex)}), file=out)
        return EXIT_DOMAIN if isinstance(ex, bd.BoundsError) else EXIT_NUMERIC
    except ValueError as ex:
        parser.error(str(ex))


if __name__ == "__main__":
    raise SystemExit(main())
