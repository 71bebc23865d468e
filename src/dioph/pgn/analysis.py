"""Empirical exponent estimation and theorem verification on record data.

All estimates here are finite-data proxies for asymptotic quantities; the
analysis window (trailing fraction of the data) exists because every source
statement holds only eventually.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Sequence, Tuple

from ..bounds import mm_defect, transfer_dual
from ..numerics import PrecisionReal, Scalar
from .intrank import int_rank
from .profile import ProfileSample, crossing_q
from .vectors import InsufficientData, MinimalPointSequence

__all__ = [
    "ExponentEstimates",
    "TheoremVReport",
    "IntersectionRow",
    "estimate_exponents",
    "check_theorem_v",
    "intersection_diagnostics",
]


class ExponentEstimates(NamedTuple):
    """Windowed empirical exponents.

    The ordinary exponent is the least-squares slope of -log Y_k against
    log x_k over the window (floored by the uniform estimate so the pair
    stays ordered); the raw ratio -log Y_k / log x_k carries an O(1/log x)
    bias that the fit's intercept absorbs.  The uniform exponent is the
    smallest -log Y_k / log x_{k+1}.  The psi pair are the extreme values of
    L_{n+1}(q)/q over the trailing window, and the dual estimates are their
    exact transference images.
    """

    lambda_est: PrecisionReal
    lambda_hat_est: PrecisionReal
    psi_low_est: PrecisionReal
    psi_high_est: PrecisionReal
    w_est: PrecisionReal
    w_hat_est: PrecisionReal
    window: Tuple[PrecisionReal, PrecisionReal]
    window_log_x: Tuple[PrecisionReal, PrecisionReal]


def estimate_exponents(
    seq: MinimalPointSequence,
    profile_samples: Sequence[ProfileSample],
    n: int,
    window_fraction: float = 0.5,
) -> ExponentEstimates:
    if not 0 < window_fraction < 1:
        raise ValueError("window_fraction must be in (0, 1)")
    pts = seq.points
    if len(pts) < 3:
        raise InsufficientData("need at least 3 minimal points")
    if not profile_samples:
        raise InsufficientData("empty profile")

    lx = [v.log_x for v in pts]
    ly = [v.log_Y for v in pts]
    lx_hi = lx[-1]
    lx_lo = lx[0]
    wf = PrecisionReal(str(window_fraction), lx_hi.precision_bits)
    lx_cut = lx_hi - wf * (lx_hi - lx_lo)
    idx = [k for k in range(len(pts)) if lx[k] >= lx_cut]
    if len(idx) < 3:
        raise InsufficientData(f"only {len(idx)} records in the trailing window")

    hat_ratios = [-ly[k] / lx[k + 1] for k in idx if k + 1 < len(pts)]
    if not hat_ratios:
        raise InsufficientData("no record pairs in the trailing window")
    lambda_hat_est = min(hat_ratios)

    m = len(idx)
    sx = sum((lx[k] for k in idx), PrecisionReal(0, lx_hi.precision_bits))
    sy = sum((-ly[k] for k in idx), PrecisionReal(0, lx_hi.precision_bits))
    sxx = sum((lx[k] * lx[k] for k in idx), PrecisionReal(0, lx_hi.precision_bits))
    sxy = sum((lx[k] * -ly[k] for k in idx), PrecisionReal(0, lx_hi.precision_bits))
    fit_slope = (m * sxy - sx * sy) / (m * sxx - sx * sx)
    lambda_est = max(fit_slope, lambda_hat_est)

    q_hi = profile_samples[-1].q
    q_lo = profile_samples[0].q
    q_cut = q_hi - wf * (q_hi - q_lo)
    psis = [s.L[n] / s.q for s in profile_samples if s.q >= q_cut and s.q.sign() > 0]
    if not psis:
        raise InsufficientData("no positive-q profile samples in the trailing window")
    psi_low = min(psis)
    psi_high = max(psis)

    ceiling = PrecisionReal(1, psi_low.precision_bits) / n
    w_hat_est = transfer_dual(n, psi_low if psi_low <= ceiling else ceiling)
    w_est = transfer_dual(n, psi_high if psi_high <= ceiling else ceiling)

    return ExponentEstimates(
        lambda_est=lambda_est,
        lambda_hat_est=lambda_hat_est,
        psi_low_est=psi_low,
        psi_high_est=psi_high,
        w_est=w_est,
        w_hat_est=w_hat_est,
        window=(q_cut, q_hi),
        window_log_x=(lx_cut, lx_hi),
    )


class TheoremVReport(NamedTuple):
    """Verification of the near-regular-graph record description on data.

    Margins are the worst (largest) left-minus-relaxation values of the two
    displayed inequalities over the provided sequence; fitted_C is the
    smallest constant making both hold.  Zero margins mean the data follows
    the geometric schedule exactly.
    """

    alpha: PrecisionReal
    beta: PrecisionReal
    epsilon: PrecisionReal
    threshold: PrecisionReal
    hypothesis_ok: bool
    fitted_C: PrecisionReal
    prop1_margin: PrecisionReal
    prop2_margin: PrecisionReal
    independence_ok: bool
    record_ok: bool


def check_theorem_v(
    seq: MinimalPointSequence,
    n: int,
    alpha: Scalar,
    beta: Scalar,
    precision_bits: Optional[int] = None,
) -> TheoremVReport:
    pts = seq.points
    if len(pts) < n + 2:
        raise InsufficientData(f"need at least {n + 2} points, have {len(pts)}")
    ctx = mm_defect(n, alpha, beta, precision_bits)
    a, b, eps = ctx.alpha, ctx.beta, ctx.epsilon
    ratio = b / a
    relax1 = 4 * eps * ratio**n
    relax2 = 4 * eps * ratio**2

    lx = [v.log_x for v in pts]
    ly = [v.log_Y for v in pts]

    prop1 = max(
        abs(a * lx[j + 1] - b * lx[j]) - relax1 * lx[j + 1] for j in range(len(pts) - 1)
    )
    prop2 = max(abs(ly[j] + b * lx[j]) - relax2 * lx[j] for j in range(len(pts)))
    zero = PrecisionReal(0, a.precision_bits)
    fitted = max(zero, prop1, prop2)

    independence_ok = all(
        int_rank([v.ints() for v in pts[j : j + n + 1]]) == n + 1
        for j in range(len(pts) - n)
    )
    record_ok = all(
        pts[j].x < pts[j + 1].x and ly[j] > ly[j + 1] for j in range(len(pts) - 1)
    )

    return TheoremVReport(
        alpha=a,
        beta=b,
        epsilon=eps,
        threshold=ctx.threshold,
        hypothesis_ok=ctx.hypothesis_satisfied(),
        fitted_C=fitted,
        prop1_margin=prop1,
        prop2_margin=prop2,
        independence_ok=independence_ok,
        record_ok=record_ok,
    )


class IntersectionRow(NamedTuple):
    """Breakpoint geometry around the k-th record (1-based k).

    q is the branch minimum of record k, r its crossing with record k+1;
    s, u, p are the window crossings with records k-n+1 and k-n used by the
    dual-bound derivation.  The two flags report the expected orderings
    q_k < r_k < q_{k+1} and u_k < p_k < u_{k+1}.
    """

    k: int
    q: PrecisionReal
    r: PrecisionReal
    s: PrecisionReal
    u: PrecisionReal
    p: PrecisionReal
    q_order_ok: bool
    u_order_ok: bool


def intersection_diagnostics(seq: MinimalPointSequence, n: int) -> List[IntersectionRow]:
    pts = seq.points
    if len(pts) < n + 2:
        raise InsufficientData(f"need at least {n + 2} points, have {len(pts)}")
    rows: List[IntersectionRow] = []
    for j in range(n, len(pts) - 1):  # paper index k = j + 1
        v, nxt = pts[j], pts[j + 1]
        q_k = crossing_q(v, v, n)
        r_k = crossing_q(v, nxt, n)
        q_next = crossing_q(nxt, nxt, n)
        s_k = crossing_q(pts[j - n + 1], nxt, n)
        u_k = crossing_q(pts[j - n], v, n)
        p_k = crossing_q(pts[j - n], nxt, n)
        u_next = crossing_q(pts[j + 1 - n], nxt, n)
        rows.append(
            IntersectionRow(
                k=j + 1,
                q=q_k,
                r=r_k,
                s=s_k,
                u=u_k,
                p=p_k,
                q_order_ok=bool(q_k < r_k < q_next),
                u_order_ok=bool(u_k < p_k < u_next),
            )
        )
    return rows
