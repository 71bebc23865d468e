"""Named verification suites behind the ``verify`` command.

Each suite re-derives a family of published values or invariants and reports
one result per check.  Oracles here are deliberately independent of the
production code paths: brute-force box enumeration uses high-level mpmath,
rank oracles use exact rationals.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, product as iter_product
from typing import Callable, Dict, List, NamedTuple, Sequence, Tuple

from mpmath import mp

from . import bounds as bd
from . import pgn
from .numerics import (
    DEFAULT_TOL,
    NAMED_CONSTANTS,
    InvalidPoint,
    PrecisionReal,
    at_precision,
    e_value,
    exp,
    format_real,
    log as nlog,
    sqrt,
)

__all__ = ["CheckResult", "SUITE_NAMES", "run_suite"]

# the corollary suite's seeded collapse points
COROLLARY_POINTS = 200
COROLLARY_SEED = 20260809
# the largest x of the oracle and profile suites' pools
ORACLE_X_MAX = 100
PROFILE_X_MAX = 300


class CheckResult(NamedTuple):
    suite: str
    name: str
    ok: bool
    detail: str


def _rel_err(x: PrecisionReal, ref: PrecisionReal) -> PrecisionReal:
    scale = abs(ref)
    if scale < 1:
        scale = PrecisionReal(1, ref.precision_bits)
    return abs(x - ref) / scale


# -- oracles (independent implementations) -----------------------------------


def fraction_rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank over the rationals by plain Gaussian elimination with Fractions."""
    m = [[Fraction(int(v)) for v in row] for row in rows]
    if not m:
        return 0
    n_rows, n_cols = len(m), len(m[0])
    rank, piv_col = 0, 0
    while rank < n_rows and piv_col < n_cols:
        pivot_row = next((r for r in range(rank, n_rows) if m[r][piv_col]), None)
        if pivot_row is None:
            piv_col += 1
            continue
        m[rank], m[pivot_row] = m[pivot_row], m[rank]
        inv = 1 / m[rank][piv_col]
        m[rank] = [v * inv for v in m[rank]]
        for r in range(n_rows):
            if r != rank and m[r][piv_col]:
                factor = m[r][piv_col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[rank])]
        rank += 1
        piv_col += 1
    return rank


def box_enumerate(target: pgn.TargetPoint, x_max: int, reach: str) -> List[Tuple]:
    """Brute-force pool: every (x, y) with |y_i - x xi_i| <= reach, x <= x_max.

    Independent of the production enumeration: high-level mpmath arithmetic
    at the target precision via a local context.
    """
    ctx = mp.clone()
    ctx.prec = target.precision_bits + 8
    xi = [ctx.mpf(c.value) for c in target.coords]
    reach_v = ctx.mpf(reach)
    out = []
    for x in range(1, x_max + 1):
        ranges = []
        for c in xi:
            prod = x * c
            lo = ctx.ceil(prod - reach_v)
            hi = ctx.floor(prod + reach_v)
            ranges.append(range(int(lo), int(hi) + 1))
        for y in iter_product(*ranges):
            err = max(abs(x * c - yi) for c, yi in zip(xi, y))
            if err <= reach_v:
                out.append(((x,) + tuple(int(v) for v in y), err))
    return out


def box_records(target: pgn.TargetPoint, x_max: int, reach: str = "2") -> List[Tuple[int, ...]]:
    """Record vectors of the brute-force pool: strict improvements of the
    running error minimum by increasing x (ties: smaller error, then lex y)."""
    pool = box_enumerate(target, x_max, reach)
    pool.sort(key=lambda item: (item[0][0], item[1], item[0][1:]))
    records, best = [], None
    for ints, err in pool:
        if best is None or err < best:
            records.append(ints)
            best = err
    return records


def exhaustive_minmax(
    pool: Sequence[pgn.ApproxVector],
    q: PrecisionReal,
    n: int,
) -> List[PrecisionReal]:
    """min over independent j-tuples of the max L value, j = 1..n+1, by
    exhaustive search over the whole pool."""
    scored = sorted(
        ((pgn.vector_L(v, q, n), v.x, v.y, i) for i, v in enumerate(pool))
    )
    values = []
    for j in range(1, n + 2):
        best = None
        for combo in combinations(scored, j):
            if fraction_rank([pool[c[3]].ints() for c in combo]) != j:
                continue
            worst = max(c[0] for c in combo)
            if best is None or worst < best:
                best = worst
        if best is None:
            raise pgn.InsufficientRank(f"pool has rank below {j}")
        values.append(best)
    return values


def thinned_pool(
    pool: Sequence[pgn.ApproxVector], q: PrecisionReal, n: int, size: int = 18
) -> List[pgn.ApproxVector]:
    """The size smallest-L vectors at q, extended (in the same order) until
    the selection spans rank n+1, so the min-max stays well posed."""
    scored = sorted(((pgn.vector_L(v, q, n), v.x, v.y, i) for i, v in enumerate(pool)))
    kept = [pool[s[3]] for s in scored[:size]]
    basis = pgn.IntBasis(n + 1)
    for v in kept:
        basis.try_add(v.ints())
    for s in scored[size:]:
        if basis.count == n + 1:
            break
        if basis.try_add(pool[s[3]].ints()):
            kept.append(pool[s[3]])
    return kept


# -- suites -------------------------------------------------------------------


def _residual_bound(stated: str, bits: int) -> Tuple[PrecisionReal, str]:
    """(bound, label): the coarser of a stated residual bound and 1000 tol,
    where tol = at_precision(DEFAULT_TOL, bits) is the width of every root.

    A root solved to the relative width tol leaves a residual of about
    |r f'(r)| tol: at most 18.3 tol for the equations checked here at 64,
    72, 80, 96 and 104 bits, all from w(n).  At 256 bits (tol 1e-30) the
    stated bound is the coarser, and the label is the stated text."""
    stated_value = PrecisionReal(stated, bits)
    bound = max(stated_value, 1000 * at_precision(DEFAULT_TOL, bits))
    return bound, stated if bound == stated_value else format_real(bound, 3)


def suite_constants(bits: int = 256) -> List[CheckResult]:
    out: List[CheckResult] = []

    def add(name: str, ok: bool, detail: str = "") -> None:
        out.append(CheckResult("constants", name, bool(ok), detail))

    th = bd.theta(bits)
    reports = {n: bd.constants_report(n, bits) for n in (2, 4, 6, 8, 10, 12, 20)}

    tau_targets = {2: "0.618033", 4: "0.370635", 6: "0.268185", 20: "0.092803"}
    for n, digits in tau_targets.items():
        t = reports[n].tau_n
        err = abs(t - PrecisionReal(digits, bits))
        add(
            f"tau({n}) displayed digits +-1e-6",
            err <= PrecisionReal("1e-6", bits),
            f"tau({n})={format_real(t, 12)}, stated {digits}, err {format_real(err, 3)}",
        )
    # the source displays tau_6 = 0.268186, which no root of the defining
    # polynomial meets at 1e-6; the table above carries the corrected digits
    err = abs(reports[6].tau_n - PrecisionReal("0.268186", bits))
    add(
        "tau(6) source display 0.268186 lies > 1e-6 from the certified root",
        err > PrecisionReal("1e-6", bits),
        f"err {format_real(err, 3)}",
    )

    small, small_label = _residual_bound("1e-20", bits)
    for n in tau_targets:
        t = reports[n].tau_n
        half = PrecisionReal(n, bits) / 2
        resid = abs((half * t) ** n * t - (half + 1) * t + 1)
        add(
            f"tau({n}) polynomial residual < {small_label}",
            resid < small,
            f"|P(tau)|={format_real(resid, 3)}",
        )
        inside = PrecisionReal(2, bits) / (n + 2) < t < PrecisionReal(2, bits) / n
        add(f"tau({n}) inside (2/(n+2), 2/n)", inside, format_real(t, 12))

    sigma_targets = {4: "0.370629", 6: "0.268183"}
    for n, digits in sigma_targets.items():
        s = reports[n].sigma_n
        err = abs(s - PrecisionReal(digits, bits))
        add(
            f"sigma({n}) displayed digits +-2e-6",
            err <= PrecisionReal("2e-6", bits),
            f"sigma({n})={format_real(s, 12)}, err {format_real(err, 3)}",
        )
    for n in (4, 6, 8, 10, 12):
        s, t = reports[n].sigma_n, reports[n].tau_n
        ok = PrecisionReal(2, bits) / (n + 2) < s < t
        add(f"2/(n+2) < sigma({n}) < tau({n})", ok, f"sigma={format_real(s, 12)}")

    add(
        "theta displayed digits +-5e-5",
        abs(th - PrecisionReal("1.7564", bits)) <= PrecisionReal("5e-5", bits),
        f"theta={format_real(th, 12)}",
    )
    resid = abs(exp(th) / th - 2 * sqrt(e_value(bits)))
    bound, label = _residual_bound("1e-25", bits)
    add(f"theta residual < {label}", resid < bound, format_real(resid, 3))
    e1 = exp(PrecisionReal(1, bits))
    e3 = exp(PrecisionReal(3, bits)) / 3
    target = 2 * sqrt(e_value(bits))
    add("theta bracket endpoints valid", bool(e1 < target < e3), "e^1/1 < 2 sqrt(e) < e^3/3")

    mu_ok, w_ok, details = True, True, []
    for n in range(2, 31):
        w, m = bd.mu(n, bits)
        d = w - PrecisionReal(n, bits)
        resid = abs((n - 1) * w / d - w + 1 - ((n - 1) / d) ** n)
        if resid >= small:
            w_ok = False
            details.append(f"w({n}) residual {format_real(resid, 3)}")
        if n >= 10 and m != PrecisionReal(2 * n - 2, bits):
            mu_ok = False
            details.append(f"mu({n})={format_real(m, 12)}")
    add(
        f"w(n) residual < {small_label} for n in 2..30",
        w_ok,
        "; ".join(details) or f"all below {small_label}",
    )
    add("mu_n = 2n-2 exactly for n in 10..30", mu_ok, "; ".join(details) or "exact")

    rg_targets = {4: "0.3588", 6: "0.2540", 8: "0.1968"}
    for n, digits in rg_targets.items():
        v = reports[n].regular_graph_bound
        stated = PrecisionReal(digits, bits)
        ok = v < stated and stated - v <= PrecisionReal("5e-5", bits)
        add(
            f"regular-graph bound({n}) < {digits} within 5e-5",
            ok,
            f"value={format_real(v, 10)}",
        )
    v8 = reports[8].regular_graph_bound
    add("regular-graph bound(8) < 2/(n+2) = 0.2", v8 < PrecisionReal("0.2", bits), format_real(v8, 10))

    chi20 = reports[20].chi_estimate
    add(
        "chi estimate at n=20 near 2.879",
        abs(chi20 - PrecisionReal("2.879", bits)) < PrecisionReal("1e-3", bits),
        format_real(chi20, 8),
    )
    chi4 = reports[4].chi_estimate
    add(
        "chi estimate at n=4 near 2.070",
        abs(chi4 - PrecisionReal("2.070", bits)) < PrecisionReal("1e-3", bits),
        format_real(chi4, 8),
    )

    for n, expect in ((3, PrecisionReal(1, bits) / 2), (5, PrecisionReal(1, bits) / 3), (7, PrecisionReal(1, bits) / 4)):
        v = bd.laurent_odd_bound(n, bits)
        add(f"odd bound({n}) = 2/(n+1)", v == expect, format_real(v, 12))

    alpha = (sqrt(PrecisionReal(5, bits)) - 1) / 2
    cl = bd.classical_low_dim(alpha, PrecisionReal(1, bits))
    ref = 1 / alpha**2
    # two roundings of one value: the precision's floor is coarser below 108 bits
    add(
        "golden-ratio n=2 identity: uniform dual = 1/alpha^2",
        _rel_err(cl.jarnik, ref) < at_precision("1e-30", bits),
        format_real(cl.jarnik, 12),
    )

    ia4, ia6 = (bd._integer_approx(n, reports[n].sigma_n, th) for n in (4, 6))
    ok = (
        abs(ia4[0] - PrecisionReal("3.698", bits)) < PrecisionReal("1e-3", bits)
        and abs(ia4[1] - PrecisionReal("3.277", bits)) < PrecisionReal("1e-3", bits)
        and abs(ia6[0] - PrecisionReal("4.729", bits)) < PrecisionReal("1e-3", bits)
        and abs(ia6[1] - PrecisionReal("4.416", bits)) < PrecisionReal("1e-3", bits)
    )
    add(
        "algebraic-integer exponents n=4,6",
        ok,
        f"{[format_real(v, 8) for v in (*ia4, *ia6)]}",
    )

    lf = bd.lefths_solve(50, th / 50, bits)
    add(
        "dual identity root near 2n at n=50",
        abs(lf / 50 - 2) < PrecisionReal("0.02", bits),
        format_real(lf / 50, 8),
    )
    return out


def suite_corollary(bits: int = 256) -> List[CheckResult]:
    rng = random.Random(COROLLARY_SEED)
    allowed = PrecisionReal("1e-10", bits)
    out: List[CheckResult] = []
    for i in range(COROLLARY_POINTS):
        n = rng.randint(2, 8)
        a = rng.uniform(1.0 / n, 0.9)
        alpha = PrecisionReal(a, bits)
        beta = bd.beta_for_equality(n, alpha, bits)
        ds = bd.dual_bounds(bd.mm_defect(n, alpha, beta, bits))
        rg = bd.regular_graph_duals(n, alpha, beta, bits)
        worst = max(
            _rel_err(ds.what_lower, rg[0]),
            _rel_err(ds.what_upper, rg[0]),
            _rel_err(ds.w_lower, rg[1]),
            _rel_err(ds.w_upper, rg[1]),
        )
        out.append(
            CheckResult(
                "corollary",
                f"collapse #{i:03d} (n={n}, alpha={a:.6f})",
                worst <= allowed,
                f"worst relative deviation {format_real(worst, 3)}",
            )
        )
    return out


def suite_monotonicity(bits: int = 256) -> List[CheckResult]:
    out: List[CheckResult] = []
    for n in (4, 6):
        s = bd.sigma(n, bits)
        t = bd.tau(n, bits)
        beta = PrecisionReal(2, bits) / n + PrecisionReal("1e-9", bits)
        values = []
        hypothesis = True
        for i in range(1, 41):
            a = s + (t - s) * i / 41
            ctx = bd.mm_defect(n, a, beta, bits)
            try:
                values.append(bd._what_lower_value(ctx))
            except InvalidPoint:
                continue
            hypothesis = hypothesis and ctx.hypothesis_satisfied()
        increasing = all(values[i] < values[i + 1] for i in range(len(values) - 1))
        out.append(
            CheckResult(
                "monotonicity",
                f"lower bound increasing in alpha on (sigma, tau), n={n}",
                increasing and len(values) >= 30,
                f"{len(values)} grid points",
            )
        )
        out.append(
            CheckResult(
                "monotonicity",
                f"hypothesis holds across the grid, n={n}",
                hypothesis,
                "",
            )
        )
    return out


def suite_oracle(bits: int = 256) -> List[CheckResult]:
    out: List[CheckResult] = []
    rng = random.Random(4817)
    for n in (1, 2, 3):
        for name in ("golden", "e", "sqrt2"):
            target = pgn.TargetPoint.veronese(NAMED_CONSTANTS[name](bits), n, bits)
            pool = pgn.enumerate_candidates(target, ORACLE_X_MAX, widen=1)
            seq = pgn.minimal_points(pool)
            got = [v.ints() for v in seq]
            expect = box_records(target, ORACLE_X_MAX, "2")
            out.append(
                CheckResult(
                    "oracle",
                    f"records vs box brute force ({name}, n={n})",
                    got == expect,
                    f"{len(got)} records",
                )
            )
            windows = [
                [v.ints() for v in seq.points[j : j + n + 1]]
                for j in range(max(0, len(seq) - n - 1))
            ]
            sample_rows = windows + [
                [[rng.randint(-9, 9) for _ in range(n + 1)] for _ in range(n + 1)]
                for _ in range(20)
            ]
            agree = all(pgn.int_rank(rows) == fraction_rank(rows) for rows in sample_rows)
            out.append(
                CheckResult(
                    "oracle",
                    f"integer rank vs rational oracle ({name}, n={n})",
                    agree,
                    f"{len(sample_rows)} matrices",
                )
            )
    return out


def _rounding_tol(value: PrecisionReal, bits: int) -> PrecisionReal:
    """Slack for two roundings of one value: the coarser of 1e-60 and
    at_precision(0, bits) max(1, |value|), which is 1e-60 at 256 bits."""
    scale = max(PrecisionReal(1, bits), abs(value))
    return max(PrecisionReal("1e-60", bits), scale * at_precision(0, bits))


def suite_profile(bits: int = 256) -> List[CheckResult]:
    out: List[CheckResult] = []
    n = 2
    target = pgn.TargetPoint.veronese(e_value(bits), n, bits)
    pool0 = pgn.enumerate_candidates(target, PROFILE_X_MAX, widen=0)
    pool1 = pgn.enumerate_candidates(target, PROFILE_X_MAX, widen=1)
    seq = pgn.minimal_points(pool1)
    q_max = nlog(PrecisionReal(PROFILE_X_MAX, bits))
    grid = pgn.build_q_grid(seq, n, q_max, count=40)
    prof0 = pgn.profile(pool0, grid, n)
    prof1 = pgn.profile(pool1, grid, n)

    sorted_ok = all(
        all(s.L[j] <= s.L[j + 1] for j in range(n)) for s in prof1
    )
    out.append(CheckResult("profile", "profile values sorted in j", sorted_ok, ""))

    slope_ok = True
    for a, b in zip(prof1, prof1[1:]):
        dq = b.q - a.q
        for j in range(n + 1):
            if abs(b.L[j] - a.L[j]) > dq + _rounding_tol(b.L[j], bits):
                slope_ok = False
    out.append(CheckResult("profile", "slopes within [-1, 1/n]", slope_ok, ""))

    mono_ok = all(
        all(b.L[j] <= a.L[j] for j in range(n + 1)) for a, b in zip(prof0, prof1)
    )
    out.append(CheckResult("profile", "pool widening never raises any L_j", mono_ok, ""))
    d0 = pgn.minkowski_defect(prof0)
    d1 = pgn.minkowski_defect(prof1)
    out.append(
        CheckResult(
            "profile",
            "defect does not increase under widening",
            d1 <= d0,
            f"{format_real(d1, 8)} <= {format_real(d0, 8)}",
        )
    )

    probe = [grid[len(grid) // 5], grid[len(grid) // 2], grid[-2]]
    for q in probe:
        thin = thinned_pool(pool1, q, n, size=18)
        got = pgn.profile(thin, [q], n)[0].L
        expect = exhaustive_minmax(thin, q, n)
        ok = all(g == e for g, e in zip(got, expect))
        out.append(
            CheckResult(
                "profile",
                f"greedy equals exhaustive min-max at q={float(q):.4f}",
                ok,
                "",
            )
        )

    record_min_ok = True
    for v in seq.points[2:]:
        qk, val = pgn.vector_min_point(v, n)
        if qk > q_max:
            continue
        sample = next((s for s in prof1 if s.q == qk), None)
        if sample is None:
            continue
        if abs(sample.L[0] - val) > _rounding_tol(val, bits):
            record_min_ok = False
    out.append(
        CheckResult("profile", "L_1 at record minima equals the record value", record_min_ok, "")
    )
    return out


SUITE_NAMES: Dict[str, Callable[..., List[CheckResult]]] = {
    "constants": suite_constants,
    "corollary": suite_corollary,
    "monotonicity": suite_monotonicity,
    "oracle": suite_oracle,
    "profile": suite_profile,
}


def run_suite(name: str, bits: int = 256) -> List[CheckResult]:
    """Run one suite at bits, every root solved to at_precision(DEFAULT_TOL,
    bits) (the oracle and profile suites solve none)."""
    if name not in SUITE_NAMES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITE_NAMES)}")
    return SUITE_NAMES[name](bits)
