"""Closed-form and implicit-equation exponent bounds.

Covers the defect of the sharp uniform/ordinary exponent inequality, the
four dual-exponent bounds with their regular-graph collapse, the even-n
uniform-exponent constants (both the polynomial one and its implicit-equation
refinement), the auxiliary root w(n) and the cap mu_n, the growth constant
Theta with its regular-graph bounds, transference identities, and the n=2
classical identities.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Tuple

from .numerics import (
    DEFAULT_PRECISION_BITS,
    Bracket,
    InvalidPoint,
    PrecisionReal,
    Scalar,
    _as_real,
    at_precision,
    e_value,
    exp,
    find_root,
    sqrt,
)

__all__ = [
    "BoundsError",
    "DomainError",
    "HypothesisViolated",
    "DegenerateContext",
    "NotRegularGraph",
    "NoRoot",
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


class NoRoot(BoundsError):
    """No certified sign change was found for an implicit equation."""


def _resolve_bits(precision_bits: Optional[int], *vals) -> int:
    if precision_bits is not None:
        return int(precision_bits)
    carried = [v.precision_bits for v in vals if isinstance(v, PrecisionReal)]
    return max(carried) if carried else DEFAULT_PRECISION_BITS


def _geometric_sum(first: PrecisionReal, ratio: PrecisionReal, count: int) -> PrecisionReal:
    """first * (1 + ratio + ... + ratio^(count-1)), exact special case at ratio 1."""
    bits = max(first.precision_bits, ratio.precision_bits)
    if count <= 0:
        return PrecisionReal(0, bits)
    if ratio == 1:
        return first * count
    return first * (1 - ratio**count) / (1 - ratio)


def _epsilon_value(n: int, alpha: PrecisionReal, beta: PrecisionReal) -> PrecisionReal:
    """1 - sum_{j=1}^{n} alpha^j / beta^(j-1), via the geometric closed form."""
    return 1 - _geometric_sum(alpha, alpha / beta, n)


# -- the defect and Theorem-level dual bounds --------------------------------


@dataclass(frozen=True)
class BoundContext:
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


@dataclass(frozen=True)
class DualBoundSet:
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
    a = _as_real(alpha, bits)
    b = _as_real(beta, bits)
    if a.sign() <= 0:
        raise DomainError("alpha must be positive")
    if a > b:
        raise DomainError("alpha must not exceed beta")

    one = PrecisionReal(1, bits)
    zero = PrecisionReal(0, bits)
    r = a / b
    eps = 1 - _geometric_sum(a, r, n)
    gap = b - a
    smaller = a if a <= gap else gap
    threshold = r**n * smaller / (4 * n)

    if eps == 0:
        phi = rho = zero
    else:
        phi = 4 * eps * b ** (n - 1) / a**n
        rho = 4 * eps * b**2 / a**2

    z = r + phi
    if n == 1:
        S, T = one, zero
    elif z.is_infinite:
        S = one  # only the j=1 term survives
        T = PrecisionReal(float("inf") if z > 0 else float("-inf"), bits)
    elif z == 0:
        S = PrecisionReal(float("inf"), bits)  # z^(1-j) blows up for j >= 2
        T = zero
    else:
        S = _geometric_sum(one, 1 / z, n)
        T = _geometric_sum(z, z, n - 1)

    return BoundContext(n, a, b, eps, threshold, phi, rho, S, T)


def dual_bounds(ctx: BoundContext) -> DualBoundSet:
    """The two lower and two upper dual-exponent bounds for a valid context."""
    if not ctx.beta.is_finite:
        raise DomainError("dual bounds require a finite beta")
    if not ctx.hypothesis_satisfied():
        side = "is negative (no point realizes the pair)" if ctx.epsilon.sign() < 0 else (
            f"exceeds threshold={float(ctx.threshold):.6g}"
        )
        raise HypothesisViolated(f"epsilon={float(ctx.epsilon):.6g} {side}")
    n = ctx.n
    d = ctx.alpha / ctx.beta - ctx.phi
    e = ctx.beta - ctx.rho
    if d.sign() <= 0 or e.sign() <= 0:
        raise DegenerateContext("alpha/beta - phi and beta - rho must stay positive")

    d_minus_n = d**-n
    den_hat = d_minus_n + e * (1 - ctx.S)
    if den_hat.sign() <= 0:
        raise DegenerateContext("uniform lower-bound denominator is not positive")
    what_lower = e * ctx.S / den_hat
    what_upper = d_minus_n / e
    w_upper = d ** -(n + 1) / e

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
            f"epsilon={float(ctx.epsilon):.3g} is not zero at {ctx.epsilon.precision_bits} bits"
        )
    a, b = ctx.alpha, ctx.beta
    return (b ** (n - 1) / a**n, b**n / a ** (n + 1))


def beta_for_equality(
    n: int,
    alpha: Scalar,
    precision_bits: Optional[int] = None,
    tol: Optional[Scalar] = None,
) -> PrecisionReal:
    """The unique beta >= alpha with zero defect, certified by bisection.

    The defect increases with beta.  It is 1 - n alpha < 0 at beta = alpha,
    and at beta = 2 alpha / (1 - alpha), where alpha/beta = (1 - alpha)/2,
    it exceeds 1 - alpha / (1 - alpha/beta) = (1 - alpha)/(1 + alpha) > 0.
    (At alpha / (1 - alpha) the defect is (1 - alpha)^n, which rounds to
    zero at 64 bits already for n = 30, alpha = 0.8.)

    The result is the midpoint of the final bracket, so its defect may be
    negative at the tol level: at 256 bits (tol 1e-30), n = 4 and
    alpha = 0.8125 give epsilon = -1.36e-32.  ``BoundContext.zero_defect``
    counts that as zero; a caller that needs epsilon >= 0 must solve at a
    tighter tol.
    """
    if not isinstance(n, int) or n < 1:
        raise DomainError("n must be a positive integer")
    bits = _resolve_bits(precision_bits, alpha)
    a = _as_real(alpha, bits)
    if a.sign() <= 0:
        raise DomainError("alpha must be positive")
    if a >= 1:
        raise DomainError("alpha must be below 1 (at 1 the ordinary exponent is infinite)")

    at_alpha = _epsilon_value(n, a, a)  # equals 1 - n*alpha
    if at_alpha == 0:
        return a
    if at_alpha > 0:
        raise DomainError("alpha below 1/n: no zero-defect beta with beta >= alpha")

    f = lambda b: _epsilon_value(n, a, b)
    return find_root(f, Bracket(a, 2 * a / (1 - a), -1, 1), tol)


# -- even-n constants ---------------------------------------------------------


def tau(
    n: int,
    precision_bits: Optional[int] = None,
    tol: Optional[Scalar] = None,
) -> PrecisionReal:
    """Root of (n/2)^n t^(n+1) - (n/2+1) t + 1 inside (2/(n+2), 2/n), even n.

    Solved in the well-scaled variable u = (n/2) t, in which the equation
    deflated by its trivial endpoint root t = 2/n reads
    u + u^2 + ... + u^n = n/2 with clean endpoint signs.
    """
    if not isinstance(n, int) or n < 2 or n % 2:
        raise DomainError("n must be an even integer >= 2")
    bits = precision_bits or DEFAULT_PRECISION_BITS
    one = PrecisionReal(1, bits)
    half_n = PrecisionReal(n, bits) / 2

    g = lambda u: _geometric_sum(u, u, n) - half_n
    lo = PrecisionReal(n, bits) / (n + 2)
    u_root = find_root(g, Bracket(lo, one, -1, 1), tol)
    return 2 * u_root / n


def laurent_odd_bound(n: int, precision_bits: Optional[int] = None) -> PrecisionReal:
    """2/(n+1), the odd-n uniform simultaneous-approximation bound."""
    if not isinstance(n, int) or n < 3 or n % 2 == 0:
        raise DomainError("n must be an odd integer >= 3")
    bits = precision_bits or DEFAULT_PRECISION_BITS
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
    bits = precision_bits or DEFAULT_PRECISION_BITS
    h = lambda u: n * u ** (n - 1) - (n - 1) * u ** (n + 1) - 1
    right = PrecisionReal(n, bits) / (n + 1)
    u = find_root(h, Bracket(PrecisionReal(0, bits), right, -1, 1), tol)
    w = n + (n - 1) * u
    floor = PrecisionReal(2 * n - 2, bits)
    return MuValue(w, w if w > floor else floor)


def _what_lower_value(ctx: BoundContext) -> PrecisionReal:
    """The uniform dual lower-bound expression; InvalidPoint off its domain."""
    d = ctx.alpha / ctx.beta - ctx.phi
    e = ctx.beta - ctx.rho
    if d.sign() <= 0 or e.sign() <= 0:
        raise InvalidPoint("context outside the admissible envelope range")
    den = d**-ctx.n + e * (1 - ctx.S)
    if den.sign() <= 0:
        raise InvalidPoint("lower-bound denominator not positive")
    return e * ctx.S / den


def sigma(
    n: int,
    precision_bits: Optional[int] = None,
    tol: Optional[Scalar] = None,
) -> PrecisionReal:
    """Root of the implicit equation W_alpha = mu_n at beta = 2/n, even n >= 4.

    W_alpha is the uniform dual lower bound built from the defect at
    beta = 2/n; it is undefined (an invalid point) where the envelope
    quantities leave their admissible range.  The root lies in (1/n, tau_n)
    and is bracketed from tau_n by a dyadic walk (see ``_sigma``); a tol too
    coarse to separate tau_n from sigma_n is a ValueError.
    """
    if not isinstance(n, int) or n < 4 or n % 2:
        raise DomainError("n must be an even integer >= 4")
    bits = precision_bits or DEFAULT_PRECISION_BITS
    return _sigma(n, bits, tol, mu(n, bits, tol).mu, tau(n, bits, tol))


def _sigma(
    n: int, bits: int, tol: Optional[Scalar], mu_n: PrecisionReal, tau_n: PrecisionReal
) -> PrecisionReal:
    """sigma(n) from mu_n and tau_n already in hand.

    f is positive at the exact tau_n.  A tau_n solved so coarsely that f is
    not positive there does not lie above sigma_n: that tol is a ValueError.
    Otherwise f is evaluated at tau_n - (tau_n - 1/n)/2^k for k = 1, 2, ...
    until the point rounds to tau_n, skipping invalid points.  The first
    valid point and tau_n bracket the root when f is negative there; any
    other outcome is NoRoot.
    """
    beta = PrecisionReal(2, bits) / n

    def f(a: PrecisionReal) -> PrecisionReal:
        return _what_lower_value(mm_defect(n, a, beta, bits)) - mu_n

    def sign(a: PrecisionReal) -> Optional[int]:
        try:
            return f(a).sign()
        except InvalidPoint:
            return None

    if sign(tau_n) != 1:
        raise ValueError(
            f"tol is too coarse to separate tau({n}) from sigma({n}):"
            f" f is not positive at the solved tau({n}); use a finer tol"
        )
    step = (tau_n - PrecisionReal(1, bits) / n) / 2
    a = tau_n - step
    while a < tau_n:
        s = sign(a)
        if s is not None:
            if s < 0:
                return find_root(f, Bracket(a, tau_n, -1, 1), tol)
            break
        step = step / 2
        a = tau_n - step
    raise NoRoot(f"no certified sign change for sigma({n}) below tau({n})")


def theta(
    precision_bits: Optional[int] = None,
    tol: Optional[Scalar] = None,
) -> PrecisionReal:
    """Root of e^t / t = 2 sqrt(e) with t > 1, certified in (1, 3)."""
    bits = precision_bits or DEFAULT_PRECISION_BITS
    target = 2 * sqrt(e_value(bits))
    f = lambda t: exp(t) / t - target
    return find_root(f, Bracket(PrecisionReal(1, bits), PrecisionReal(3, bits), -1, 1), tol)


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

    Its left side is increasing for s > 0, equals n < mu_n at s = 1 and
    exceeds mu_n at s = mu_n, so (1, mu_n) is a certified bracket holding
    the unique root, and the bound is alpha = s^(n-1)/mu_n.
    """
    if not isinstance(n, int) or n < 4 or n % 2:
        raise DomainError("n must be an even integer >= 4")
    bits = precision_bits or DEFAULT_PRECISION_BITS
    return _regular_graph_bound(n, bits, tol, mu(n, bits, tol).mu)


def _regular_graph_bound(
    n: int, bits: int, tol: Optional[Scalar], mu_n: PrecisionReal
) -> PrecisionReal:
    """regular_graph_lambda_bound(n) from mu_n already in hand."""
    one = PrecisionReal(1, bits)
    g = lambda s: _geometric_sum(one, s, n) - mu_n
    s = find_root(g, Bracket(one, mu_n, -1, 1), tol)
    return s ** (n - 1) / mu_n


def chi_estimate(
    n: int,
    precision_bits: Optional[int] = None,
    tol: Optional[Scalar] = None,
) -> PrecisionReal:
    """n^2 (2/n - tau_n); converges to the second-order coefficient ~3.18."""
    if not isinstance(n, int) or n < 4 or n % 2:
        raise DomainError("n must be an even integer >= 4")
    bits = precision_bits or DEFAULT_PRECISION_BITS
    return _chi(n, bits, tau(n, bits, tol))


def _chi(n: int, bits: int, tau_n: PrecisionReal) -> PrecisionReal:
    return PrecisionReal(n, bits) ** 2 * (PrecisionReal(2, bits) / n - tau_n)


# -- transference and low-dimension identities --------------------------------


def transfer_dual(
    n: int,
    psi: Scalar,
    kind: str,
    precision_bits: Optional[int] = None,
) -> PrecisionReal:
    """Dual exponent from an extremal last-minimum slope via Mahler polarity.

    kind 'liminf' maps the lower slope to the uniform dual exponent,
    'limsup' the upper slope to the ordinary one; the identity is the same:
    result = ((n+1) / (n (1+psi)) - 1)^(-1), +inf at psi = 1/n.
    """
    if kind not in ("liminf", "limsup"):
        raise DomainError("kind must be 'liminf' or 'limsup'")
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
    """
    if not isinstance(n, int) or n < 1:
        raise DomainError("n must be a positive integer")
    bits = _resolve_bits(precision_bits, omega)
    om = _as_real(omega, bits)
    if om.sign() <= 0:
        raise DomainError("omega must be positive")
    rhs = (1 + 1 / om) * (1 + om) ** n

    def f(t: PrecisionReal) -> PrecisionReal:
        return (1 + t) * (1 + 1 / t) ** n - rhs

    t0 = PrecisionReal(n, bits)
    if f(t0).sign() >= 0:
        return t0  # right side at (or numerically at) the minimum
    return find_root(f, Bracket(t0, 2 * rhs, -1, 1), tol)


def integer_approx_exponents(
    n: int,
    precision_bits: Optional[int] = None,
    tol: Optional[Scalar] = None,
) -> Tuple[PrecisionReal, PrecisionReal]:
    """Exponent magnitudes (1/sigma_n + 1, n/Theta + 1) for algebraic-integer
    approximation, even n >= 4; the epsilon loss is the caller's concern."""
    if not isinstance(n, int) or n < 4 or n % 2:
        raise DomainError("n must be an even integer >= 4")
    bits = precision_bits or DEFAULT_PRECISION_BITS
    s = sigma(n, bits, tol)
    th = theta(bits, tol)
    return (1 / s + 1, PrecisionReal(n, bits) / th + 1)


# -- per-n summary -------------------------------------------------------------


@dataclass(frozen=True)
class ConstantsReport:
    """All per-dimension constants; fields not defined for a given n are None."""

    n: int
    tau_n: Optional[PrecisionReal]
    sigma_n: Optional[PrecisionReal]
    w_n_aux: Optional[PrecisionReal]
    mu_n: Optional[PrecisionReal]
    regular_graph_bound: Optional[PrecisionReal]
    chi_estimate: Optional[PrecisionReal]
    theta: PrecisionReal
    laurent_bound: Optional[PrecisionReal]


def constants_report(
    n: int,
    precision_bits: Optional[int] = None,
    theta_value: Optional[PrecisionReal] = None,
    tol: Optional[Scalar] = None,
) -> ConstantsReport:
    """One row of the constants table; sigma and the regular-graph bound
    exist for even n >= 4, tau for even n >= 2, the 2/(n+1) bound for odd n.

    mu_n and tau_n are solved once and shared by every constant built on
    them; tol (None: the precision's default) is the width of every root.
    """
    if not isinstance(n, int) or n < 2:
        raise DomainError("n must be an integer >= 2")
    bits = precision_bits or DEFAULT_PRECISION_BITS
    th = theta_value if theta_value is not None else theta(bits, tol)
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
            theta=th,
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
        theta=th,
        laurent_bound=laurent_odd_bound(n, bits),
    )
