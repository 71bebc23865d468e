"""Shared helpers: synthetic record sequences with exact geometric schedules,
and a plain bisection that root-finding tests compare against."""

from typing import List, Tuple

import pytest

from dioph import ApproxVector, MinimalPointSequence, PrecisionReal


def bisect_root(f, lo: PrecisionReal, hi: PrecisionReal, tol: PrecisionReal):
    """Oracle for find_root: halve [lo, hi] by the sign of f until its width
    is at most tol * max(|lo|, |hi|, 1); return (midpoint, evaluations of f).
    An exact zero of f ends no search: it takes the place of hi, so the
    count depends only on the bracket and tol."""
    s_lo = f(lo).sign()
    assert s_lo * f(hi).sign() < 0, "not a sign-change bracket"
    evals = 2
    one = PrecisionReal(1, tol.precision_bits)
    while hi - lo > tol * max(abs(lo), abs(hi), one):
        mid = (lo + hi) / 2
        assert lo < mid < hi, "bisection stalled"
        evals += 1
        lo, hi = (mid, hi) if f(mid).sign() == s_lo else (lo, mid)
    return (lo + hi) / 2, evals


def moment_vector(m: int, n: int) -> Tuple[int, ...]:
    """(m, m^2, ..., m^(n+1)); any n+1 of these with distinct m are
    independent (Vandermonde)."""
    return tuple(m ** (i + 1) for i in range(n + 1))


def synthetic_sequence(
    n: int,
    alpha: PrecisionReal,
    beta: PrecisionReal,
    length: int = 10,
    bits: int = 256,
) -> MinimalPointSequence:
    """Records following the exact geometric schedule of a zero-defect pair:
    log x_{j+1} = (beta/alpha) log x_j and log Y_j = -beta log x_j.

    Integer coordinates ride the moment curve at m = 3^(j+1), so every
    window of n+1 consecutive vectors is independent and x is strictly
    increasing; the log fields are injected, not derived from x.
    """
    ratio = beta / alpha
    pts: List[ApproxVector] = []
    log_x = PrecisionReal(1, bits)
    for j in range(length):
        m = 3 ** (j + 1)
        ints = moment_vector(m, n)
        log_y = -(beta * log_x)
        pts.append(
            ApproxVector(
                ints[0],
                ints[1:],
                PrecisionReal(1, bits) / (j + 2),
                bits,
                log_x=log_x,
                log_Y=log_y,
            )
        )
        log_x = ratio * log_x
    return MinimalPointSequence(tuple(pts))


# (n, alpha, beta) with an exactly representable zero defect: for n = 2,
# alpha = (2^k - 1)/2^k forces beta = alpha^2/(1 - alpha) = (2^k - 1)^2/2^k,
# and the log-x schedule 1, r, r^2, ... with integer r = beta/alpha stays
# exact in binary floating point.
EXACT_REGULAR_PAIRS = [
    (1, "1", "2"),
    (1, "1", "3"),
    (2, "0.75", "2.25"),
    (2, "0.875", "6.125"),
    (2, "0.9375", "14.0625"),
]


@pytest.fixture
def exact_pairs():
    return [
        (n, PrecisionReal(a), PrecisionReal(b)) for n, a, b in EXACT_REGULAR_PAIRS
    ]
