"""Acceptance criteria, one test per criterion.

Each test prints one PASS/FAIL line (visible with -s or in the captured
output on failure) and enforces both the stated tolerances and the runtime
budget.  Reference digits that pin implicit roots are certified inside the
test by an exact rational sign change of the defining equation, so they are
proven independently of the code under test.  The tau table's n = 6 entry
is 0.268185: the source's displayed 0.268186 lies more than 1e-6 from the
root of its own defining polynomial (certified root 0.2681846505...), and
criterion 1 records that erratum as an assertion of its own.
"""

import time
from fractions import Fraction

from dioph import bounds as bd
from dioph import pgn
from dioph.numerics import PrecisionReal, e_value, exp, golden_value, log as nlog, sqrt, sqrt2_value
from dioph.suites import (
    box_records,
    exhaustive_minmax,
    fraction_rank,
    suite_corollary,
    suite_monotonicity,
    thinned_pool,
)

from conftest import pruned_profile

PR = PrecisionReal


def report(k: int, name: str, ok: bool, elapsed: float, budget: float, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {k:>2} {name}: {status} ({elapsed:.2f}s / budget {budget:g}s) {detail}")
    assert elapsed < budget, f"runtime {elapsed:.2f}s exceeded the {budget:g}s budget"
    assert ok, f"criterion {k} failed: {detail}"


def tau_polynomial(n: int, t: Fraction) -> Fraction:
    """P_n(t) = (n/2)^n t^(n+1) - (n/2+1) t + 1, exactly."""
    half = Fraction(n, 2)
    return half**n * t ** (n + 1) - (half + 1) * t + 1


def tau_root_in(n: int, lo: Fraction, hi: Fraction) -> bool:
    """Whether tau_n, the root of P_n in (2/(n+2), 2/n), lies in [lo, hi].

    P_n is convex on t > 0 with P_n(0) = 1 and the trivial root P_n(2/n) = 0,
    so it is positive on [0, tau_n) and negative on (tau_n, 2/n).  Inside
    (0, 2/n) the interval holds tau_n exactly when P_n changes sign on it.
    """
    assert 0 < lo < hi < Fraction(2, n)
    return tau_polynomial(n, lo) >= 0 >= tau_polynomial(n, hi)


def test_criterion_01_tau_table():
    stated = {2: "0.618033", 4: "0.370635", 6: "0.268185", 20: "0.092803"}
    t0 = time.perf_counter()
    values = {n: bd.tau(n) for n in stated}
    elapsed = time.perf_counter() - t0
    tol, exact_tol = PR("1e-6"), Fraction(1, 10**6)
    bad = []
    for n, digits in stated.items():
        d = Fraction(digits)
        if not tau_root_in(n, d - exact_tol, d + exact_tol):
            bad.append(f"stated tau({n}) = {digits} is not within 1e-6 of the exact root")
        err = abs(values[n] - PR(digits))
        if err > tol:
            bad.append(f"tau({n})={float(values[n]):.10f} vs stated {digits} (err {float(err):.3g})")
    # erratum: the source displays tau_6 = 0.268186, but P_6 keeps one sign
    # on [0.268185, 0.268187], so no root lies within 1e-6 of those digits
    if tau_root_in(6, Fraction("0.268185"), Fraction("0.268187")):
        bad.append("the displayed tau(6) = 0.268186 unexpectedly brackets the root")
    detail = "; ".join(bad) or "all four values certified and within 1e-6; 0.268186 erratum confirmed"
    report(1, "tau-table regression", not bad, elapsed, 1.0, detail)


def test_criterion_02_sigma_table():
    t0 = time.perf_counter()
    s4, s6 = bd.sigma(4), bd.sigma(6)
    ok = abs(s4 - PR("0.370629")) <= PR("2e-6") and abs(s6 - PR("0.268183")) <= PR("2e-6")
    for n in (4, 6, 8, 10, 12):
        s = bd.sigma(n)
        ok = ok and PR(2) / (n + 2) < s < bd.tau(n)
    elapsed = time.perf_counter() - t0
    report(2, "sigma-table regression", ok, elapsed, 10.0,
           f"sigma(4)={float(s4):.9f}, sigma(6)={float(s6):.9f}")


def test_criterion_03_mu():
    t0 = time.perf_counter()
    ok = True
    worst = PR(0)
    for n in range(2, 31):
        w, m = bd.mu(n)
        d = w - n
        resid = abs((n - 1) * w / d - w + 1 - ((n - 1) / d) ** n)
        worst = max(worst, resid)
        ok = ok and resid < PR("1e-20")
        if n >= 10:
            ok = ok and m == PR(2 * n - 2)
    elapsed = time.perf_counter() - t0
    report(3, "mu_n cap and w(n) residuals", ok, elapsed, 5.0,
           f"worst residual {float(worst):.3g}")


def test_criterion_04_theta():
    t0 = time.perf_counter()
    th = bd.theta()
    resid = abs(exp(th) / th - 2 * sqrt(e_value(256)))
    elapsed = time.perf_counter() - t0
    ok = abs(th - PR("1.7564")) <= PR("5e-5") and resid < PR("1e-25")
    report(4, "growth-constant regression", ok, elapsed, 0.1,
           f"theta={float(th):.10f}, residual {float(resid):.3g}")


def test_criterion_05_regular_graph_bounds():
    stated = {4: "0.3588", 6: "0.2540", 8: "0.1968"}
    t0 = time.perf_counter()
    ok = True
    vals = {}
    for n, digits in stated.items():
        v = bd.regular_graph_lambda_bound(n)
        vals[n] = v
        ok = ok and v < PR(digits) and PR(digits) - v <= PR("5e-5")
    ok = ok and vals[8] < PR("0.2")
    elapsed = time.perf_counter() - t0
    report(5, "regular-graph bounds", ok, elapsed, 10.0,
           ", ".join(f"{n}: {float(v):.8f}" for n, v in vals.items()))


def test_criterion_06_asymptotics():
    t0 = time.perf_counter()
    th = bd.theta()
    scaled = 200 * bd.regular_graph_lambda_bound(200)
    chi = bd.chi_estimate(2000)
    elapsed = time.perf_counter() - t0
    ok = abs(scaled - th) < PR("0.05") and abs(chi - PR("3.18")) < PR("0.05")
    report(6, "large-n asymptotics", ok, elapsed, 60.0,
           f"200*bound(200)={float(scaled):.6f}, chi(2000)={float(chi):.6f}")


def test_criterion_07_corollary_collapse():
    t0 = time.perf_counter()
    results = suite_corollary()
    elapsed = time.perf_counter() - t0
    failing = [r for r in results if not r.ok]
    report(7, "regular-graph collapse suite", not failing, elapsed, 10.0,
           f"{len(results)} random pairs, {len(failing)} failures")


def test_criterion_08_trivial_point_consistency():
    t0 = time.perf_counter()
    ok = True
    for n in range(1, 9):
        a = PR(1) / n
        ds = bd.dual_bounds(bd.mm_defect(n, a, a))
        for v in (ds.what_lower, ds.what_upper, ds.w_lower, ds.w_upper):
            ok = ok and abs(v - n) <= PR("1e-20")
    elapsed = time.perf_counter() - t0
    report(8, "Dirichlet-point consistency", ok, elapsed, 10.0, "n = 1..8")


def test_criterion_09_simulator_oracles():
    t0 = time.perf_counter()
    makers = {"golden": golden_value, "e": e_value, "sqrt2": sqrt2_value}
    ok = True
    details = []
    for n in (1, 2, 3):
        for name, maker in makers.items():
            target = pgn.TargetPoint.veronese(maker(256), n, 256)
            pool = pgn.enumerate_candidates(target, 200, widen=1)
            seq = pgn.minimal_points(pool)
            if [v.ints() for v in seq] != box_records(target, 200, "2"):
                ok = False
                details.append(f"records mismatch ({name}, n={n})")
            for qf in ("2.0", "4.2"):
                q = PR(qf)
                thin = thinned_pool(pool, q, n, size=14)
                got = list(pgn.profile(thin, [q], n)[0].L)
                expect = exhaustive_minmax(thin, q, n)
                if got != expect:
                    ok = False
                    details.append(f"profile mismatch ({name}, n={n}, q={qf})")
            windows = [
                [v.ints() for v in seq.points[j : j + n + 1]]
                for j in range(len(seq) - n)
            ]
            if not all(pgn.int_rank(w) == fraction_rank(w) for w in windows):
                ok = False
                details.append(f"rank oracle mismatch ({name}, n={n})")
    elapsed = time.perf_counter() - t0
    report(9, "simulator oracle suite", ok, elapsed, 60.0, "; ".join(details) or "9 target/dimension combos")


def test_criterion_10_golden_ground_truth():
    t0 = time.perf_counter()
    target = pgn.TargetPoint.veronese(golden_value(256), 1, 256)
    pool = pgn.enumerate_candidates(target, 10**4, widen=0)
    seq = pgn.minimal_points(pool)
    fib = [1, 2]
    while fib[-1] + fib[-2] <= 10**4:
        fib.append(fib[-1] + fib[-2])
    ok = [v.x for v in seq] == fib
    grid = pgn.build_q_grid(seq, 1, nlog(PR(10**4)), count=100)
    est = pgn.estimate_exponents(seq, pruned_profile(pool, grid, 1), 1)
    ok = ok and abs(est.lambda_est - 1) < PR("0.05") and abs(est.lambda_hat_est - 1) < PR("0.05")
    elapsed = time.perf_counter() - t0
    report(10, "golden-ratio ground truth", ok, elapsed, 5.0,
           f"{len(seq)} records, lambda={float(est.lambda_est):.4f}, "
           f"lambda_hat={float(est.lambda_hat_est):.4f}")


def test_criterion_11_minkowski_defect():
    t0 = time.perf_counter()
    target = pgn.TargetPoint.veronese(e_value(256), 2, 256)
    pool0 = pgn.enumerate_candidates(target, 10**4, widen=0)
    pool1 = pgn.enumerate_candidates(target, 10**4, widen=1)
    seq = pgn.minimal_points(pool0)
    grid = pgn.build_q_grid(seq, 2, nlog(PR(10**4)), count=200)
    prof0 = pruned_profile(pool0, grid, 2)
    prof1 = pruned_profile(pool1, grid, 2)
    d0 = pgn.minkowski_defect(prof0)
    d1 = pgn.minkowski_defect(prof1)
    half = [s for s in prof1 if s.q >= grid[-1] - (grid[-1] - grid[0]) / 2]
    d_half = pgn.minkowski_defect(half)
    elapsed = time.perf_counter() - t0
    ok = d1 <= d0 and d_half <= d1 + PR("1e-12")
    report(11, "Minkowski-defect boundedness proxy", ok, elapsed, 30.0,
           f"defect widen0={float(d0):.6f}, widen1={float(d1):.6f}, trailing={float(d_half):.6f}")


def test_criterion_12_theorem_checker(exact_pairs):
    from conftest import synthetic_sequence

    t0 = time.perf_counter()
    ok = True
    for n, alpha, beta in exact_pairs:
        seq = synthetic_sequence(n, alpha, beta, length=10)
        rep = pgn.check_theorem_v(seq, n, alpha, beta)
        ok = (
            ok
            and rep.fitted_C == 0
            and rep.prop1_margin == 0
            and rep.prop2_margin == 0
            and rep.independence_ok
            and rep.record_ok
        )
    # corrupted data must be flagged
    n, alpha, beta = 2, PR(3) / 4, PR(9) / 4
    base = synthetic_sequence(n, alpha, beta, length=10)
    pts = list(base.points)
    combo = tuple(a + b for a, b in zip(pts[3].ints(), pts[4].ints()))
    pts[5] = pgn.ApproxVector(combo[0], combo[1:], pts[5].Y, 256,
                              log_x=pts[5].log_x, log_Y=pts[5].log_Y)
    dep = pgn.check_theorem_v(pgn.MinimalPointSequence(tuple(pts)), n, alpha, beta)
    ok = ok and not dep.independence_ok

    pts = list(base.points)
    pts[4] = pgn.ApproxVector(pts[4].x, pts[4].y, pts[4].Y, 256,
                              log_x=pts[4].log_x, log_Y=pts[3].log_Y + 1)
    broken = pgn.check_theorem_v(pgn.MinimalPointSequence(tuple(pts)), n, alpha, beta)
    ok = ok and not broken.record_ok
    elapsed = time.perf_counter() - t0
    report(12, "record-description checker", ok, elapsed, 1.0,
           "5 exact parameter sets + 2 corruptions")


def test_supplement_monotonicity_grid():
    # the implicit-equation monotonicity backing the even-n refinement
    t0 = time.perf_counter()
    results = suite_monotonicity()
    elapsed = time.perf_counter() - t0
    failing = [r.name for r in results if not r.ok]
    report(13, "implicit-equation monotonicity grid (n=4,6)", not failing, elapsed, 30.0,
           "; ".join(failing) or "increasing on (sigma, tau)")
