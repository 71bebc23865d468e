"""Closed-form and implicit-equation exponent bounds.

Covers the defect of the sharp uniform/ordinary exponent inequality, the
four dual-exponent bounds with their regular-graph collapse, the even-n
uniform-exponent constants (both the polynomial one and its implicit-equation
refinement), the auxiliary root w(n) and the cap mu_n, the growth constant
Theta with its regular-graph bounds, transference identities, and the n=2
classical identities.
"""

from __future__ import annotations

import math
from functools import partial
from typing import NamedTuple, Optional, Tuple

from .numerics import (
    DEFAULT_PRECISION_BITS,
    DEFAULT_TOL,
    InvalidBracket,
    InvalidPoint,
    PrecisionReal,
    Scalar,
    _as_real,
    at_precision,
    e_value,
    exp,
    find_root,
    float_root,
    format_real,
    sqrt,
)

__all__ = [
    "BoundsError",
    "DomainError",
    "HypothesisViolated",
    "DegenerateContext",
    "NotRegularGraph",
    "BoundContext",
    "DualBoundSet",
    "MuValue",
    "ClassicalN2",
    "ConstantsReport",
    "mm_defect",
    "dual_bounds",
    "regular_graph_duals",
    "beta_for_equality",
    "tau",
    "laurent_odd_bound",
    "mu",
    "sigma",
    "theta",
    "regular_graph_lambda_bound",
    "chi_estimate",
    "transfer_dual",
    "dual_to_psi",
    "classical_low_dim",
    "lefths_solve",
    "integer_approx_exponents",
    "constants_report",
]


class BoundsError(Exception):
    """Base class for bound-computation failures."""


class DomainError(BoundsError):
    """Inputs violate an operation's preconditions."""


class HypothesisViolated(BoundsError):
    """epsilon exceeds the admissible threshold; the dual bounds do not apply."""


class DegenerateContext(BoundsError):
    """A derived quantity left its admissible range (raised defensively)."""


class NotRegularGraph(BoundsError):
    """(alpha, beta) does not satisfy the exponent identity within tolerance."""


def _resolve_bits(precision_bits: Optional[int], *vals) -> int:
    """precision_bits when given, else the largest precision among vals'
    PrecisionReals, else DEFAULT_PRECISION_BITS."""
    if precision_bits is not None:
        return int(precision_bits)
    carried = [v.precision_bits for v in vals if isinstance(v, PrecisionReal)]
    return max(carried) if carried else DEFAULT_PRECISION_BITS


def _positive_alpha(alpha: Scalar, bits: int) -> PrecisionReal:
    """alpha at bits; DomainError unless it is finite and positive."""
    a = _as_real(alpha, bits)
    if not a.is_finite or a.sign() <= 0:
        raise DomainError("alpha must be finite and positive")
    return a


def _tol_above(lo: PrecisionReal, tol: Optional[Scalar]) -> PrecisionReal:
    """tol (None: the precision's default) times lo: the absolute width that
    keeps a root above lo, of a bracket below 1, within tol relative."""
    bits = lo.precision_bits
    return (at_precision(DEFAULT_TOL, bits) if tol is None else _as_real(tol, bits)) * lo


def _geometric_sum(first, ratio, count: int):
    """first * (1 + ratio + ... + ratio^(count-1)) for count >= 0, exact
    special case at ratio 1; in any number type with + - * / and int powers.
    A float power beyond the float range is infinite, as a float product is."""
    if ratio == 1:
        return first * count
    try:
        power = ratio**count
    except OverflowError:
        power = math.copysign(math.inf, ratio ** (count % 2))
    return first * (1 - power) / (1 - ratio)


# -- the defect and Theorem-level dual bounds --------------------------------


class BoundContext(NamedTuple):
    """(n, alpha, beta) with every derived quantity of the dual-bound theorem."""

    n: int
    alpha: PrecisionReal
    beta: PrecisionReal
    epsilon: PrecisionReal
    threshold: PrecisionReal
    phi: PrecisionReal
    rho: PrecisionReal
    S: PrecisionReal
    T: PrecisionReal

    def zero_defect(self) -> bool:
        """|epsilon| <= at_precision(1e-20, p), 1e-20 from 75 bits up: the regular graph."""
        return abs(self.epsilon) <= at_precision("1e-20", self.epsilon.precision_bits)

    def hypothesis_satisfied(self) -> bool:
        """0 <= epsilon <= threshold, up to numerical guards.

        A genuinely negative defect means no point realizes (alpha, beta)
        at all (the sharp inequality fails), so the dual bounds are
        meaningless there.  A ``zero_defect`` (a root of the equality
        equation, or alpha = beta = 1/n with a non-dyadic 1/n) satisfies
        it; the threshold side carries an at_precision(0, p) guard.
        """
        if self.zero_defect():
            return True  # threshold >= 0
        slack = at_precision(0, self.epsilon.precision_bits)
        return self.epsilon.sign() > 0 and self.epsilon <= self.threshold + slack


class DualBoundSet(NamedTuple):
    """The four dual-exponent bounds, exactly as displayed in the source."""

    what_lower: PrecisionReal
    what_upper: PrecisionReal
    w_lower: PrecisionReal
    w_upper: PrecisionReal


def mm_defect(
    n: int,
    alpha: Scalar,
    beta: Scalar,
    precision_bits: Optional[int] = None,
) -> BoundContext:
    """Defect epsilon of the sharp exponent inequality plus derived quantities.

    The sharp inequality is Marnat and Moshchevitin's optimal lower bound
    for the ordinary exponent in terms of the uniform one (Mathematika,
    2020): a point of R^n with uniform simultaneous exponent alpha and
    ordinary exponent beta has
    epsilon = 1 - sum_{j=1}^{n} alpha^j / beta^(j-1) >= 0, with equality
    on the regular graphs.

    beta may be +inf, in which case epsilon reduces to 1 - alpha and the
    derived envelope quantities take their limit values.
    """
    if not isinstance(n, int) or n < 1:
        raise DomainError("n must be a positive integer")
    bits = _resolve_bits(precision_bits, alpha, beta)
    a = _positive_alpha(alpha, bits)
    b = _as_real(beta, bits)
    if b.is_nan:
        raise DomainError("beta must not be NaN")
    if a > b:
        raise DomainError("alpha must not exceed beta")

    return BoundContext(n, a, b, *_defect(n, a, b))


def _defect(n: int, a, b) -> tuple:
    """(epsilon, threshold, phi, rho, S, T) of ``mm_defect``, unchecked, in
    the number type of a and b: PrecisionReal, or float to seed a root.
    phi and rho are written in s = beta/alpha, so no power of alpha alone
    underflows in floats."""
    one = a**0  # 1 in a's number type
    r = a / b
    eps = 1 - _geometric_sum(a, r, n)  # the geometric closed form of the sum
    gap = b - a
    smaller = a if a <= gap else gap
    threshold = r**n * smaller / (4 * n)

    if eps == 0:
        phi = rho = eps  # 0
    else:
        s = b / a
        phi = 4 * eps * s ** (n - 1) / a
        rho = 4 * eps * s**2

    z = r + phi
    if n == 1:
        S, T = one, 0 * one
    elif abs(z) == math.inf:
        S, T = one, z  # only the j=1 term of S survives
    elif z == 0:
        S, T = one * math.inf, 0 * one  # z^(1-j) blows up for j >= 2
    else:
        S, T = _geometric_sum(one, 1 / z, n), _geometric_sum(z, z, n - 1)
    return eps, threshold, phi, rho, S, T


def dual_bounds(ctx: BoundContext) -> DualBoundSet:
    """The two lower and two upper dual-exponent bounds for a valid context."""
    if not ctx.beta.is_finite:
        raise DomainError("dual bounds require a finite beta")
    if not ctx.hypothesis_satisfied():
        side = "is negative (no point realizes the pair)" if ctx.epsilon.sign() < 0 else (
            f"exceeds threshold={format_real(ctx.threshold, 6)}"
        )
        raise HypothesisViolated(f"epsilon={format_real(ctx.epsilon, 6)} {side}")
    try:
        d, e = _envelope(ctx)
        d_n = d**-ctx.n
        what_lower = _uniform_lower(ctx, e, d_n)
    except InvalidPoint as ex:
        raise DegenerateContext(str(ex)) from None
    what_upper = d_n / e
    w_upper = d ** -(ctx.n + 1) / e

    bp2 = (ctx.beta + ctx.rho) ** 2
    den_ord = ctx.rho - ctx.beta + bp2 * ctx.T
    if den_ord == 0:
        raise DegenerateContext("ordinary lower-bound denominator vanished")
    w_lower = (ctx.rho**2 - ctx.beta**2 - bp2 * ctx.T) / den_ord

    return DualBoundSet(what_lower, what_upper, w_lower, w_upper)


def regular_graph_duals(
    n: int,
    alpha: Scalar,
    beta: Scalar,
    precision_bits: Optional[int] = None,
) -> Tuple[PrecisionReal, PrecisionReal]:
    """(beta^(n-1)/alpha^n, beta^n/alpha^(n+1)) for a pair with ``zero_defect``."""
    ctx = mm_defect(n, alpha, beta, precision_bits)
    if not ctx.zero_defect():
        raise NotRegularGraph(
            f"epsilon={format_real(ctx.epsilon, 6)} is not zero at {ctx.epsilon.precision_bits} bits"
        )
    a, b = ctx.alpha, ctx.beta
    return (b ** (n - 1) / a**n, b**n / a ** (n + 1))


def beta_for_equality(
    n: int,
    alpha: Scalar,
    precision_bits: Optional[int] = None,
    tol: Optional[Scalar] = None,
) -> PrecisionReal:
    """The unique beta >= alpha with zero defect, alpha/r for the root r of
    g(r) = alpha (1 + r + ... + r^(n-1)) - 1, the defect's negative at
    r = alpha/beta, certified by find_root.  The same g, evaluated in
    floats, seeds it, as every solver here is seeded.

    g increases for r > 0.  g(1) = n alpha - 1 > 0 for alpha above 1/n, and
    g((1 - alpha)/2) < alpha/(1 - r) - 1 = 2 alpha/(1 + alpha) - 1 < 0, so
    ((1 - alpha)/2, 1) brackets the root.  (At r = 1 - alpha, g is
    -(1 - alpha)^n, which rounds to zero at 64 bits already for n = 30,
    alpha = 0.8.)  r is solved to tol times the bracket's lower end, which
    r exceeds, so the relative width of r, and of beta, stays below tol.

    The result is alpha over the midpoint of the final bracket, so its
    defect may be negative at the tol level: at 64 bits (tol 2^-56), n = 4
    and alpha = 0.6 give epsilon = -5.42e-19.  ``BoundContext.zero_defect``
    counts that as zero; a caller that needs epsilon >= 0 must solve at a
    tighter tol.
    """
    if not isinstance(n, int) or n < 1:
        raise DomainError("n must be a positive integer")
    bits = _resolve_bits(precision_bits, alpha)
    a = _positive_alpha(alpha, bits)
    if a >= 1:
        raise DomainError("alpha must be below 1 (at 1 the ordinary exponent is infinite)")

    one = PrecisionReal(1, bits)
    g = lambda r, a=a: _geometric_sum(a, r, n) - 1
    at_alpha = g(one)  # r = 1, beta = alpha: n alpha - 1
    if at_alpha == 0:
        return a
    if at_alpha < 0:
        raise DomainError("alpha below 1/n: no zero-defect beta with beta >= alpha")

    lo = (1 - a) / 2
    seed = float_root(partial(g, a=float(a)), lo, one)
    return a / find_root(g, lo, one, _tol_above(lo, tol), seed=seed)


# -- even-n constants ---------------------------------------------------------


def tau(
    n: int,
    precision_bits: Optional[int] = None,
    tol: Optional[Scalar] = None,
) -> PrecisionReal:
    """Root of (n/2)^n t^(n+1) - (n/2+1) t + 1 inside (2/(n+2), 2/n), even n.

    Deflated by its trivial root t = 2/n, the equation reads
    u + u^2 + ... + u^n = n/2 in u = (n/2) t.  It is solved in v = 1 - u,
    the distance to that trivial root, as g(v) = sum_k (1 - v)^k - n/2,
    which decreases in v.  At v = 2/(n+2) (t = 2/(n+2)), the sum is below
    u/(1 - u) = n/2, so g < 0.  At v = 1/(n+1), Bernoulli gives
    sum_k (1 - v)^k > n - v n(n+1)/2 = n/2, so g > 0, and
    (1/(n+1), 2/(n+2)) brackets the root.  v is solved to
    tol times the bracket's lower end, so its relative width, and that of
    chi_n = n^2 (2/n - tau_n) = 2 n v, stays below tol.  Then
    tau_n = 2 (1 - v)/n.
    """
    if not isinstance(n, int) or n < 2 or n % 2:
        raise DomainError("n must be an even integer >= 2")
    bits = _resolve_bits(precision_bits)
    g = lambda v: _geometric_sum(1 - v, 1 - v, n) - n / 2  # n/2 is exact
    lo, hi = PrecisionReal(1, bits) / (n + 1), PrecisionReal(2, bits) / (n + 2)
    v = find_root(g, lo, hi, _tol_above(lo, tol), seed=float_root(g, lo, hi))
    return 2 * (1 - v) / n


def laurent_odd_bound(n: int, precision_bits: Optional[int] = None) -> PrecisionReal:
    """2/(n+1), the odd-n uniform simultaneous-approximation bound."""
    if not isinstance(n, int) or n < 3 or n % 2 == 0:
        raise DomainError("n must be an odd integer >= 3")
    bits = _resolve_bits(precision_bits)
    return PrecisionReal(2, bits) / (n + 1)


class MuValue(NamedTuple):
    w_aux: PrecisionReal
    mu: PrecisionReal


def mu(
    n: int,
    precision_bits: Optional[int] = None,
    tol: Optional[Scalar] = None,
) -> MuValue:
    """(w(n), mu_n) with mu_n = max(2n-2, w(n)).

    w(n) solves F(w) = (n-1)w/(w-n) - w + 1 - ((n-1)/(w-n))^n = 0 strictly
    inside (n, 2n-1); F has a pole at w = n and the trivial root w = 2n-1.
    In u = (w-n)/(n-1) the pole goes away: F(w) u^n is

        h(u) = n u^(n-1) - (n-1) u^(n+1) - 1,

    increasing on (0, sqrt(n/(n+1))), with h(0) = -1 and h(n/(n+1)) > 0
    (smallest at n = 2, where it is 1/27), so (0, n/(n+1)) brackets the
    root and stays clear of the trivial one at u = 1.
    """
    if not isinstance(n, int) or n < 2:
        raise DomainError("n must be an integer >= 2")
    bits = _resolve_bits(precision_bits)
    h = lambda u: n * u ** (n - 1) - (n - 1) * u ** (n + 1) - 1
    left, right = PrecisionReal(0, bits), PrecisionReal(n, bits) / (n + 1)
    u = find_root(h, left, right, tol, seed=float_root(h, left, right))
    w = n + (n - 1) * u
    floor = PrecisionReal(2 * n - 2, bits)
    return MuValue(w, w if w > floor else floor)


def _envelope(ctx: BoundContext) -> Tuple[PrecisionReal, PrecisionReal]:
    """(d, e) for d = alpha/beta - phi and e = beta - rho, in ctx's number
    type; InvalidPoint unless both are positive."""
    d = ctx.alpha / ctx.beta - ctx.phi
    e = ctx.beta - ctx.rho
    if d <= 0 or e <= 0:
        raise InvalidPoint("alpha/beta - phi and beta - rho must stay positive")
    return d, e


def _what_lower_value(ctx: BoundContext) -> PrecisionReal:
    """The uniform dual lower bound e S / (d^-n + e (1 - S)), (d, e) as in
    ``_envelope``; InvalidPoint off its domain."""
    d, e = _envelope(ctx)
    return _uniform_lower(ctx, e, d**-ctx.n)


def _uniform_lower(ctx: BoundContext, e: PrecisionReal, d_n: PrecisionReal) -> PrecisionReal:
    """e S / (d^-n + e (1 - S)) from the envelope's e and d^-n; InvalidPoint
    unless the denominator is positive."""
    den = d_n + e * (1 - ctx.S)
    if den.sign() <= 0:
        raise InvalidPoint("uniform lower-bound denominator is not positive")
    return e * ctx.S / den


def _cleared(ctx: BoundContext, mu_n: PrecisionReal) -> PrecisionReal:
    """h = e d^n (S - mu_n (1 - S)) - mu_n, W - mu_n with its denominator
    cleared (see ``_sigma``); -mu_n where ``_envelope`` refuses.  In floats
    d^n may underflow to 0, where d^-n would overflow."""
    try:
        d, e = _envelope(ctx)
    except InvalidPoint:
        return -mu_n
    return e * (ctx.S - mu_n * (1 - ctx.S)) * d**ctx.n - mu_n


def _sigma_h(alpha, n: int, beta, mu_n):
    """h(alpha) of ``_sigma``, in the number type of its arguments."""
    return _cleared(BoundContext(n, alpha, beta, *_defect(n, alpha, beta)), mu_n)


def sigma(
    n: int,
    precision_bits: Optional[int] = None,
    tol: Optional[Scalar] = None,
) -> PrecisionReal:
    """Root of the implicit equation W_alpha = mu_n at beta = 2/n, even n >= 4.

    W_alpha is the uniform dual lower bound built from the defect at
    beta = 2/n.  The root lies in (1/n, tau_n), which brackets it once the
    equation's denominator is cleared (see ``_sigma``); a tol too coarse to
    separate tau_n from sigma_n is a ValueError.
    """
    if not isinstance(n, int) or n < 4 or n % 2:
        raise DomainError("n must be an even integer >= 4")
    bits = _resolve_bits(precision_bits)
    return _sigma(n, bits, tol, mu(n, bits, tol).mu, tau(n, bits, tol))


def _sigma(
    n: int, bits: int, tol: Optional[Scalar], mu_n: PrecisionReal, tau_n: PrecisionReal
) -> PrecisionReal:
    """sigma(n) from mu_n and tau_n already in hand.

    With d and e from ``_envelope``, W = e S / den for
    den = d^-n + e (1 - S).  Clearing the denominator gives

        h(alpha) = e d^n (S - mu_n (1 - S)) - mu_n = d^n den (W - mu_n),

    which has no pole.  Where d, e and den are positive, h has the sign of
    W - mu_n.  Where d, e > 0 but den <= 0 (the pole just above tau_n),
    S > 1, so h = d^n (e S - mu_n den) > 0.  Where ``_envelope`` refuses
    (d <= 0 or e <= 0), h is -mu_n, its limit as e d^n -> 0, so h stays
    continuous.  At alpha = 1/n, epsilon = 1 - (2/n)(1 - 2^-n) >= 1/2, so
    phi = epsilon 2^(n+1) n > 1/2 = alpha/beta and d < 0: h(1/n) = -mu_n.
    h is positive from sigma_n to past the pole (to 5.1e-3 above tau_n at
    n = 4, 7.1e-8 at n = 200), so (1/n, tau_n) brackets sigma_n.  A tau_n
    solved so coarsely that h is not positive there lies below sigma_n or
    beyond that range: that tol is a ValueError.

    The same h, evaluated in floats, seeds find_root, as the other solvers
    here are seeded; find_root certifies the root in PrecisionReal.
    """
    h = partial(_sigma_h, n=n, beta=PrecisionReal(2, bits) / n, mu_n=mu_n)
    lo = PrecisionReal(1, bits) / n
    seed = float_root(partial(_sigma_h, n=n, beta=2 / n, mu_n=float(mu_n)), lo, tau_n)
    try:
        return find_root(h, lo, tau_n, tol, seed=seed)
    except InvalidBracket:
        raise ValueError(
            f"tol is too coarse to separate tau({n}) from sigma({n}):"
            f" f is not positive at the solved tau({n}); use a finer tol"
        ) from None


def theta(
    precision_bits: Optional[int] = None,
    tol: Optional[Scalar] = None,
) -> PrecisionReal:
    """Root of e^t / t = 2 sqrt(e) with t > 1, certified in (1, 3)."""
    bits = _resolve_bits(precision_bits)
    one, three = PrecisionReal(1, bits), PrecisionReal(3, bits)
    target = 2 * sqrt(e_value(bits))
    f = lambda t, exp=exp, target=target: exp(t) / t - target
    seed = float_root(partial(f, exp=math.exp, target=float(target)), one, three)
    return find_root(f, one, three, tol, seed=seed)


def regular_graph_lambda_bound(
    n: int,
    precision_bits: Optional[int] = None,
    tol: Optional[Scalar] = None,
) -> PrecisionReal:
    """The alpha solving beta0(alpha)^(n-1) / alpha^n = mu_n, even n >= 4.

    beta0 is the zero-defect partner of alpha (``beta_for_equality``).  On
    that curve the Marnat-Moshchevitin defect (Mathematika 2020) vanishes:
    epsilon = 1 - alpha (1 + r + ... + r^(n-1)) = 0 with r = alpha/beta0.
    Put s = beta0/alpha = 1/r.  Then beta0^(n-1)/alpha^n = s^(n-1)/alpha,
    so the bound equation gives alpha = s^(n-1)/mu_n, and substituting
    that into epsilon = 0 leaves one polynomial equation in s:

        1 + s + s^2 + ... + s^(n-1) = mu_n.

    Its left side increases for s > 0 and is n < mu_n at s = 1.  For s > 1,
    s^k > 1 + k (s - 1) for k >= 2 (Bernoulli), so the left side exceeds
    n + n(n-1)/2 (s - 1), which is mu_n at s = 1 + 2 (mu_n - n)/(n(n-1)).
    That bracket holds the unique root, and the bound is s^(n-1)/mu_n.
    """
    if not isinstance(n, int) or n < 4 or n % 2:
        raise DomainError("n must be an even integer >= 4")
    bits = _resolve_bits(precision_bits)
    return _regular_graph_bound(n, bits, tol, mu(n, bits, tol).mu)


def _regular_graph_bound(
    n: int, bits: int, tol: Optional[Scalar], mu_n: PrecisionReal
) -> PrecisionReal:
    """regular_graph_lambda_bound(n) from mu_n already in hand."""
    one = PrecisionReal(1, bits)
    g = lambda s, mu_n=mu_n: _geometric_sum(1, s, n) - mu_n
    hi = 1 + 2 * (mu_n - n) / (n * (n - 1))
    s = find_root(g, one, hi, tol, seed=float_root(partial(g, mu_n=float(mu_n)), one, hi))
    return s ** (n - 1) / mu_n


def chi_estimate(
    n: int,
    precision_bits: Optional[int] = None,
    tol: Optional[Scalar] = None,
) -> PrecisionReal:
    """n^2 (2/n - tau_n); converges to the second-order coefficient ~3.18."""
    if not isinstance(n, int) or n < 4 or n % 2:
        raise DomainError("n must be an even integer >= 4")
    bits = _resolve_bits(precision_bits)
    return _chi(n, bits, tau(n, bits, tol))


def _chi(n: int, bits: int, tau_n: PrecisionReal) -> PrecisionReal:
    return PrecisionReal(n, bits) ** 2 * (PrecisionReal(2, bits) / n - tau_n)


# -- transference and low-dimension identities --------------------------------


def transfer_dual(
    n: int,
    psi: Scalar,
    precision_bits: Optional[int] = None,
) -> PrecisionReal:
    """Dual exponent from an extremal last-minimum slope via Mahler polarity.

    The lower slope maps to the uniform dual exponent and the upper slope
    to the ordinary one by the same identity:
    result = ((n+1) / (n (1+psi)) - 1)^(-1), +inf at psi = 1/n.
    """
    if not isinstance(n, int) or n < 1:
        raise DomainError("n must be a positive integer")
    bits = _resolve_bits(precision_bits, psi)
    p = _as_real(psi, bits)
    if p <= -1:
        raise DomainError("psi must exceed -1")
    denom = PrecisionReal(n + 1, bits) / (n * (1 + p)) - 1
    if denom.sign() < 0:
        raise DomainError("psi exceeds the ceiling 1/n")
    if denom.sign() == 0:
        return PrecisionReal(float("inf"), bits)
    return 1 / denom


def dual_to_psi(n: int, w: Scalar, precision_bits: Optional[int] = None) -> PrecisionReal:
    """Inverse of transfer_dual: psi = (n+1) / (n (1 + 1/w)) - 1."""
    if not isinstance(n, int) or n < 1:
        raise DomainError("n must be a positive integer")
    bits = _resolve_bits(precision_bits, w)
    wv = _as_real(w, bits)
    if wv.sign() <= 0:
        raise DomainError("dual exponent must be positive")
    return PrecisionReal(n + 1, bits) / (n * (1 + 1 / wv)) - 1


class ClassicalN2(NamedTuple):
    jarnik: PrecisionReal
    laurent_lower: PrecisionReal
    laurent_upper: PrecisionReal


def classical_low_dim(
    lambda_hat: Scalar,
    lam: Scalar,
    precision_bits: Optional[int] = None,
) -> ClassicalN2:
    """n = 2 identities: Jarnik's uniform dual value and the two-sided
    ordinary dual bounds; the upper slot is +inf when its denominator
    is not positive."""
    bits = _resolve_bits(precision_bits, lambda_hat, lam)
    lh = _as_real(lambda_hat, bits)
    la = _as_real(lam, bits)
    half = PrecisionReal(1, bits) / 2
    if not (half <= lh <= la) or not lh < 1:
        raise DomainError("require 1/2 <= lambda_hat <= lambda and lambda_hat < 1")
    jarnik = 1 / (1 - lh)
    lower = (la + lh) / (1 - lh)
    den = lh - la + la * lh
    upper = PrecisionReal(float("inf"), bits) if den.sign() <= 0 else la / den
    return ClassicalN2(jarnik, lower, upper)


def lefths_solve(
    n: int,
    omega: Scalar,
    precision_bits: Optional[int] = None,
    tol: Optional[Scalar] = None,
) -> PrecisionReal:
    """Increasing-branch root of (1+t)(1+1/t)^n = (1+1/omega)(1+omega)^n.

    The left side decreases to its minimum at t = n then increases; the
    branch t >= n is the one matching the dual exponent's 2n-scale regime.
    The left side exceeds 1 + t, so at t = 2 rhs it exceeds the right side
    by more than rhs + 1, and [n, 2 rhs] brackets the root.  (At t = rhs
    the margin is only about n + 1, which rounds away once rhs nears
    2^precision_bits.)

    rhs and the left side are computed with 32 guard bits, and each value
    of f is rounded once to the working precision.  Rounding 1 + 1/t
    leaves its n-th power with a relative error near n 2^-bits, and the
    left side's slope, (1 + 1/t)^n (t - n) / t, vanishes at t = n; so
    without guard bits a root a few units above n moves by about
    n t (1 + t) 2^-bits / (t - n): past tol at 64 bits for omega = 10^-2
    and n = 96..110, whose roots lie 1 to 12 above n.
    """
    if not isinstance(n, int) or n < 1:
        raise DomainError("n must be a positive integer")
    bits = _resolve_bits(precision_bits, omega)
    om = _as_real(omega, bits)
    if om.sign() <= 0:
        raise DomainError("omega must be positive")
    wide = bits + 32
    om = PrecisionReal(om, wide)
    rhs = (1 + 1 / om) * (1 + om) ** n
    f = lambda t, rhs=rhs: (1 + t) * (1 + 1 / t) ** n - rhs
    f_at_bits = lambda t: PrecisionReal(f(PrecisionReal(t, wide)), bits)

    t0, hi = PrecisionReal(n, bits), PrecisionReal(2 * rhs, bits)
    if f_at_bits(t0).sign() >= 0:
        return t0  # right side at (or numerically at) the minimum
    seed = float_root(partial(f, rhs=float(rhs)), t0, hi)
    return find_root(f_at_bits, t0, hi, tol, seed=seed)


def integer_approx_exponents(
    n: int,
    precision_bits: Optional[int] = None,
    tol: Optional[Scalar] = None,
) -> Tuple[PrecisionReal, PrecisionReal]:
    """Exponent magnitudes (1/sigma_n + 1, n/Theta + 1) for algebraic-integer
    approximation, even n >= 4; the epsilon loss is the caller's concern."""
    if not isinstance(n, int) or n < 4 or n % 2:
        raise DomainError("n must be an even integer >= 4")
    bits = _resolve_bits(precision_bits)
    return _integer_approx(n, sigma(n, bits, tol), theta(bits, tol))


def _integer_approx(n: int, sigma_n: PrecisionReal, th: PrecisionReal) -> Tuple[PrecisionReal, PrecisionReal]:
    """(1/sigma_n + 1, n/Theta + 1) from solved constants."""
    return (1 / sigma_n + 1, n / th + 1)


# -- per-n summary -------------------------------------------------------------


class ConstantsReport(NamedTuple):
    """All per-dimension constants; fields not defined for a given n are None."""

    n: int
    tau_n: Optional[PrecisionReal]
    sigma_n: Optional[PrecisionReal]
    w_n_aux: Optional[PrecisionReal]
    mu_n: Optional[PrecisionReal]
    regular_graph_bound: Optional[PrecisionReal]
    chi_estimate: Optional[PrecisionReal]
    laurent_bound: Optional[PrecisionReal]


def constants_report(
    n: int,
    precision_bits: Optional[int] = None,
    tol: Optional[Scalar] = None,
) -> ConstantsReport:
    """One row of the constants table; sigma and the regular-graph bound
    exist for even n >= 4, tau for even n >= 2, the 2/(n+1) bound for odd n.

    mu_n and tau_n are solved once and shared by every constant built on
    them; tol (None: the precision's default) is the width of every root.
    Theta does not depend on n: ``theta`` solves it.
    """
    if not isinstance(n, int) or n < 2:
        raise DomainError("n must be an integer >= 2")
    bits = _resolve_bits(precision_bits)
    w_n, mu_n = mu(n, bits, tol)
    if n % 2 == 0:
        tau_n = tau(n, bits, tol)
        big_enough = n >= 4
        return ConstantsReport(
            n=n,
            tau_n=tau_n,
            sigma_n=_sigma(n, bits, tol, mu_n, tau_n) if big_enough else None,
            w_n_aux=w_n,
            mu_n=mu_n,
            regular_graph_bound=_regular_graph_bound(n, bits, tol, mu_n) if big_enough else None,
            chi_estimate=_chi(n, bits, tau_n) if big_enough else None,
            laurent_bound=None,
        )
    return ConstantsReport(
        n=n,
        tau_n=None,
        sigma_n=None,
        w_n_aux=w_n,
        mu_n=mu_n,
        regular_graph_bound=None,
        chi_estimate=None,
        laurent_bound=laurent_odd_bound(n, bits),
    )
