"""Output checks for the benchmark workloads, computed apart from dioph.

Nothing here imports dioph.  Each check recomputes a quantity in exact
rational arithmetic (``fractions.Fraction``), in scaled-integer arithmetic,
or in ``mpmath`` at 400 bits or more, or tests a property the method must
have.  No check compares against a stored copy of the program's output.

Every check function returns a list of failure messages, each starting with
the check's tag (``"tau n=4: ..."``); an empty list means the output passed.
"""

from __future__ import annotations

import csv
import json
import math
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from typing import Callable, Dict, List, Sequence

from mpmath import mp, mpf

CHECK_BITS = 400
SIM_FILES = ("minimal_points.csv", "profile.csv", "estimates.json", "intersections.csv")

# dioph counts a defect within this absolute tolerance as zero
ZERO_DEFECT_TOL = mpf("1e-20")
# the relative tolerance ``dioph verify corollary`` uses for the collapse
COLLAPSE_REL_TOL = mpf("1e-10")
GOLDEN_EXPONENT_TOL = Fraction(5, 100)


def half_unit(text: str) -> Fraction:
    """Half a unit in the 12th significant digit of a printed decimal.

    dioph prints 12 significant digits, correctly rounded, so the value it
    computed lies within this distance of the printed one.
    """
    d = Decimal(text)
    return Fraction(1, 2) * Fraction(10) ** (d.adjusted() - 11)


def frac(text: str) -> Fraction:
    return Fraction(Decimal(text))


def to_mpf(x: Fraction) -> mpf:
    return mpf(x.numerator) / x.denominator


def _brackets_root(f: Callable[[mpf], mpf], lo: Fraction, hi: Fraction) -> bool:
    """Strict sign change of f on [lo, hi], evaluated at CHECK_BITS."""
    with mp.workprec(CHECK_BITS):
        return f(to_mpf(lo)) * f(to_mpf(hi)) < 0


def _bisect(f: Callable[[mpf], mpf], lo: mpf, hi: mpf, steps: int = CHECK_BITS) -> mpf:
    """Plain bisection on a bracket with f(lo) < 0 < f(hi); call at CHECK_BITS."""
    for _ in range(steps):
        mid = (lo + hi) / 2
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


# -- constants_table ---------------------------------------------------------


def tau_poly(n: int, t):
    """P_n(t) = (n/2)^n t^(n+1) - (n/2 + 1) t + 1 (n even); exact for a Fraction t."""
    h = n // 2
    return h**n * t ** (n + 1) - (h + 1) * t + 1


def w_equation(n: int) -> Callable[[mpf], mpf]:
    """F(w) = (n-1) w/(w-n) - w + 1 - ((n-1)/(w-n))^n, whose root in (n, 2n-1) is w(n)."""
    return lambda w: (n - 1) * w / (w - n) - w + 1 - ((n - 1) / (w - n)) ** n


def theta_equation(t: mpf) -> mpf:
    return mp.exp(t) / t - 2 * mp.sqrt(mp.e)


def check_tau(n: int, text: str) -> List[str]:
    d, h = frac(text), half_unit(text)
    lo, hi = d - h, d + h
    fails = []
    if not Fraction(2, n + 2) < lo or not hi < Fraction(2, n):
        fails.append(f"tau n={n}: {text} +- half unit leaves (2/(n+2), 2/n)")
    if tau_poly(n, lo) * tau_poly(n, hi) >= 0:
        fails.append(f"tau n={n}: P_n has no exact sign change within half a unit of {text}")
    return fails


def check_w_aux(n: int, text: str) -> List[str]:
    d, h = frac(text), half_unit(text)
    if not n < d - h or not d + h < 2 * n - 1:
        return [f"w_aux n={n}: {text} +- half unit leaves ({n}, {2 * n - 1})"]
    if not _brackets_root(w_equation(n), d - h, d + h):
        return [f"w_aux n={n}: the w(n) equation has no sign change within half a unit of {text}"]
    return []


def check_theta(text: str) -> List[str]:
    d, h = frac(text), half_unit(text)
    if not 1 < d - h or not _brackets_root(theta_equation, d - h, d + h):
        return [f"theta: e^t/t - 2 sqrt(e) has no sign change within half a unit of {text}"]
    return []


def check_mu(n: int, mu_text: str, w_text: str) -> List[str]:
    if frac(mu_text) != max(Fraction(2 * n - 2), frac(w_text)):
        return [f"mu n={n}: {mu_text} != max(2n-2, w_aux={w_text})"]
    return []


def regular_graph_alpha(n: int, w_text: str) -> mpf:
    """The regular-graph bound from its single-root closed form, at CHECK_BITS.

    Writing s = beta0/alpha, the zero-defect constraint and
    beta0^(n-1)/alpha^n = mu_n reduce to 1 + s + ... + s^(n-1) = mu_n with
    alpha = s^(n-1)/mu_n.  mu_n = max(2n-2, w) with w re-solved by bisection
    inside half a unit of the printed w_aux (call check_w_aux first).
    """
    with mp.workprec(CHECK_BITS):
        d, h = frac(w_text), half_unit(w_text)
        F = w_equation(n)
        lo, hi = to_mpf(d - h), to_mpf(d + h)
        g = F if F(lo) < 0 else (lambda w: -F(w))
        w = _bisect(g, lo, hi)
        mu_n = max(mpf(2 * n - 2), w)
        s = _bisect(lambda s: sum(s**j for j in range(n)) - mu_n, mpf(1), mu_n)
        return s ** (n - 1) / mu_n


def check_regular_graph(n: int, text: str, w_text: str) -> List[str]:
    alpha = regular_graph_alpha(n, w_text)
    with mp.workprec(CHECK_BITS):
        if abs(alpha - to_mpf(frac(text))) > to_mpf(half_unit(text)) + mpf("1e-25"):
            return [f"regular_graph_bound n={n}: {text} != closed form {mp.nstr(alpha, 15)}"]
    return []


def check_sigma(n: int, sigma_text: str, tau_text: str) -> List[str]:
    if not Fraction(2, n + 2) < frac(sigma_text) < frac(tau_text):
        return [f"sigma n={n}: not 2/(n+2) < {sigma_text} < tau={tau_text}"]
    return []


def check_chi(n: int, chi_text: str, tau_text: str) -> List[str]:
    """chi = n^2 (2/n - tau), with tau re-solved by bisection of P_n inside
    half a unit of the printed tau (call check_tau first)."""
    d, h = frac(tau_text), half_unit(tau_text)
    with mp.workprec(CHECK_BITS):
        tau_n = _bisect(lambda t: -tau_poly(n, t), to_mpf(d - h), to_mpf(d + h))
        expected = n * n * (mpf(2) / n - tau_n)
        if abs(to_mpf(frac(chi_text)) - expected) > to_mpf(half_unit(chi_text)) + mpf("1e-25"):
            return [f"chi n={n}: {chi_text} != n^2 (2/n - tau) = {mp.nstr(expected, 15)}"]
    return []


def check_constants_table(text: str, ns: Sequence[int]) -> List[str]:
    """Every row of ``dioph bounds --n ... --even --format json``."""
    lines = [json.loads(line) for line in text.splitlines() if line.strip()]
    if not lines or set(lines[0]) != {"theta"}:
        return ["bounds: first line is not the theta line"]
    fails = check_theta(lines[0]["theta"])
    rows = lines[1:]
    if [r.get("n") for r in rows] != list(ns):
        return fails + [f"bounds: rows for n={[r.get('n') for r in rows]}, expected {list(ns)}"]
    for r in rows:
        n = r["n"]
        if r["laurent"] is not None:
            fails.append(f"laurent n={n}: expected null for even n")
        tau_fails = check_tau(n, r["tau"])
        fails += tau_fails
        fails += check_sigma(n, r["sigma"], r["tau"])
        if not tau_fails:
            fails += check_chi(n, r["chi"], r["tau"])
        w_fails = check_w_aux(n, r["w_aux"])
        fails += w_fails
        fails += check_mu(n, r["mu"], r["w_aux"])
        if not w_fails:
            fails += check_regular_graph(n, r["regular_graph_bound"], r["w_aux"])
    return fails


# -- dual_sweep ----------------------------------------------------------------


def check_dual_point(n: int, alpha: float, beta0: mpf, bounds: Dict[str, mpf]) -> List[str]:
    """One collapse point: beta0 has zero defect and the four dual bounds collapse.

    The defect 1 - sum_{j=1..n} alpha^j / beta0^(j-1) is summed term by term
    at twice dioph's 256 bits; the collapsed values are beta0^(n-1)/alpha^n
    (uniform pair) and beta0^n/alpha^(n+1) (ordinary pair).
    """
    fails = []
    with mp.workprec(512):
        a, b = mpf(alpha), mpf(beta0)
        eps = 1 - sum(a**j / b ** (j - 1) for j in range(1, n + 1))
        if abs(eps) > ZERO_DEFECT_TOL:
            fails.append(f"epsilon n={n} alpha={alpha!r}: defect {mp.nstr(eps, 5)} at beta0")
        if b < a:
            fails.append(f"beta0 n={n} alpha={alpha!r}: beta0 < alpha")
        uniform = b ** (n - 1) / a**n
        ordinary = b**n / a ** (n + 1)
        for key, want in (("what_lower", uniform), ("what_upper", uniform),
                          ("w_lower", ordinary), ("w_upper", ordinary)):
            if abs(mpf(bounds[key]) / want - 1) > COLLAPSE_REL_TOL:
                fails.append(f"{key} n={n} alpha={alpha!r}: {mp.nstr(bounds[key], 15)} != {mp.nstr(want, 15)}")
    return fails


# -- simulate ------------------------------------------------------------------


def target_xi(name: str) -> mpf:
    """The simulated constant, from mpmath (call at CHECK_BITS)."""
    if name == "golden":
        return (1 + mp.sqrt(5)) / 2
    if name == "e":
        return +mp.e
    raise ValueError(f"no reference value for target {name!r}")


def record_xs(name: str, n: int, xmax: int) -> List[int]:
    """x's where max_i ||x xi^i|| reaches a new strict minimum over 1 <= x <= xmax.

    Scaled integers: X_i = round(xi^i 2^B), and x X_i mod 2^B differs from
    2^B frac(x xi^i) by at most x/2, far below the gaps between records.
    """
    scale_bits = 320
    scale = 1 << scale_bits
    with mp.workprec(CHECK_BITS):
        xi = target_xi(name)
        coords = [int(mp.nint(xi**i * scale)) for i in range(1, n + 1)]
    records, best = [], None
    for x in range(1, xmax + 1):
        worst = 0
        for c in coords:
            r = (x * c) & (scale - 1)
            worst = max(worst, min(r, scale - r))
        if best is None or worst < best:
            records.append(x)
            best = worst
    return records


def fibonacci_upto(xmax: int) -> List[int]:
    out, a, b = [], 1, 2
    while a <= xmax:
        out.append(a)
        a, b = b, a + b
    return out


def _read_csv(path: Path) -> List[List[str]]:
    with path.open(newline="", encoding="utf-8") as f:
        return list(csv.reader(f))


def check_records(rows: List[List[str]], n: int, xmax: int, expected_xs: Sequence[int], name: str) -> List[str]:
    """minimal_points.csv body rows against the running-minimum recomputation."""
    xs = [int(r[0]) for r in rows]
    fails = []
    if xs != list(expected_xs):
        fails.append(f"records: x's {xs[:8]}... differ from the running minimum {list(expected_xs)[:8]}...")
    if name == "golden" and xs != fibonacci_upto(xmax):
        fails.append("fibonacci: golden record x's are not exactly the Fibonacci numbers")
    with mp.workprec(CHECK_BITS):
        for k in range(len(rows) - 1):
            y_text = rows[k][n + 1]
            bound = mpf(xs[k + 1] - 1) ** (mpf(-1) / n)
            if to_mpf(frac(y_text) - half_unit(y_text)) > bound:
                fails.append(f"dirichlet: Y_{k + 1} = {y_text} > (x_{k + 2} - 1)^(-1/n)")
    return fails


def check_profile(rows: List[List[str]], n: int) -> List[str]:
    """profile.csv body rows: ordered minima, Minkowski's floor, slopes in [-1, 1/n]."""
    fails = []
    with mp.workprec(CHECK_BITS):
        floor = -mp.log(math.factorial(n + 1))
    prev = None
    for i, row in enumerate(rows):
        q_text, L_text = row[0], row[1:]
        L = [frac(t) for t in L_text]
        slack = sum(half_unit(t) for t in L_text)
        if any(L[j] > L[j + 1] for j in range(n)):
            fails.append(f"order: profile row {i} has L_j > L_(j+1)")
        if to_mpf(sum(L) + slack) < floor:
            fails.append(f"minkowski: profile row {i} sums to {float(sum(L))!r} < -log((n+1)!)")
        if prev is not None:
            dq = frac(q_text) - frac(prev[0])
            for j in range(n + 1):
                tol = dq + half_unit(q_text) + half_unit(prev[0]) + half_unit(L_text[j]) + half_unit(prev[1 + j])
                if abs(L[j] - frac(prev[1 + j])) > tol:
                    fails.append(f"slope: profile rows {i - 1}..{i}, |dL_{j + 1}| > dq")
        prev = row
    return fails


def check_estimates(est: dict, name: str) -> List[str]:
    lam, lam_hat = frac(est["lambda_est"]), frac(est["lambda_hat_est"])
    fails = []
    if lam_hat > lam:
        fails.append(f"estimates: lambda_hat_est {est['lambda_hat_est']} > lambda_est {est['lambda_est']}")
    if name == "golden" and max(abs(lam - 1), abs(lam_hat - 1)) > GOLDEN_EXPONENT_TOL:
        fails.append("estimates: golden exponent estimates are not within 0.05 of 1")
    return fails


def check_simulation(out_dir: Path, name: str, n: int, xmax: int, expected_xs: Sequence[int]) -> List[str]:
    """Every output file of one ``dioph simulate`` run that exited 0."""
    missing = [f for f in SIM_FILES if not (out_dir / f).is_file()]
    if missing:
        return [f"simulate: missing output files {missing}"]
    fails = check_records(_read_csv(out_dir / "minimal_points.csv")[1:], n, xmax, expected_xs, name)
    fails += check_profile(_read_csv(out_dir / "profile.csv")[1:], n)
    fails += check_estimates(json.loads((out_dir / "estimates.json").read_text(encoding="utf-8")), name)
    return fails
