"""Property-based invariants for the bound computations."""

from functools import lru_cache
from unittest.mock import patch

from conftest import bisect_root
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dioph import bounds as bd
from dioph.numerics import (
    DEFAULT_TOL,
    SEED_SPREAD,
    InvalidPoint,
    PrecisionReal,
    at_precision,
    find_root,
)

PR = PrecisionReal


def rel_dev(x: PR, ref: PR) -> PR:
    scale = abs(ref) if abs(ref) > 1 else PR(1)
    return abs(x - ref) / scale


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=8),
    frac=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)
def test_corollary_collapse_on_the_regular_graph(n, frac):
    alpha = PR(1) / n + (PR("0.9") - PR(1) / n) * PR(frac)
    beta = bd.beta_for_equality(n, alpha)
    ds = bd.dual_bounds(bd.mm_defect(n, alpha, beta))
    lo, hi = bd.regular_graph_duals(n, alpha, beta)
    tol = PR("1e-10")
    assert rel_dev(ds.what_lower, lo) <= tol
    assert rel_dev(ds.what_upper, lo) <= tol
    assert rel_dev(ds.w_lower, hi) <= tol
    assert rel_dev(ds.w_upper, hi) <= tol


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=10),
    a=st.floats(min_value=0.01, max_value=0.99, allow_nan=False),
    spread=st.floats(min_value=1.0, max_value=20.0, allow_nan=False),
)
def test_epsilon_consistent_across_precision_doubling(n, a, spread):
    lo = bd.mm_defect(n, PR(a, 256), PR(a, 256) * PR(spread, 256), precision_bits=256)
    hi = bd.mm_defect(n, PR(a, 512), PR(a, 512) * PR(spread, 512), precision_bits=512)
    # beta/alpha -> 1 cancels up to ~52 bits in the geometric form, leaving
    # >= 200 accurate bits at the lower precision
    assert abs(lo.epsilon - hi.epsilon) < PR("1e-55")


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=10),
    a=st.floats(min_value=0.01, max_value=0.99, allow_nan=False),
    spread=st.floats(min_value=1.0, max_value=20.0, allow_nan=False),
)
def test_envelope_sums_bounded_when_defect_nonnegative(n, a, spread):
    ctx = bd.mm_defect(n, PR(a), PR(a) * PR(spread))
    assume(ctx.epsilon.sign() >= 0)
    assert ctx.S >= 1
    assert ctx.T.sign() >= 0
    assert ctx.threshold.sign() >= 0


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=9),
    psi=st.floats(min_value=-0.99, max_value=0.09, allow_nan=False),
)
def test_transfer_roundtrip(n, psi):
    assume(psi < 1.0 / n)
    w = bd.transfer_dual(n, PR(psi))
    back = bd.dual_to_psi(n, w)
    assert abs(back - PR(psi)) < PR("1e-25")


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=9),
    lo=st.floats(min_value=-0.9, max_value=0.05, allow_nan=False),
    d=st.floats(min_value=0.0, max_value=0.5, allow_nan=False),
)
def test_transfer_monotone_in_slope(n, lo, d):
    hi = lo + d
    assume(hi < 1.0 / n)
    w_lo = bd.transfer_dual(n, PR(lo))
    w_hi = bd.transfer_dual(n, PR(hi))
    assert w_lo <= w_hi


@settings(max_examples=20, deadline=None)
@given(n=st.sampled_from([2, 4, 6, 8, 10, 12, 14]))
def test_tau_is_the_zero_defect_point_at_two_over_n(n):
    t = bd.tau(n)
    eps = bd.mm_defect(n, t, PR(2) / n).epsilon
    assert abs(eps) < PR("1e-28")


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=6),
    om=st.floats(min_value=0.05, max_value=20.0, allow_nan=False),
)
def test_lefths_root_on_increasing_branch_with_zero_residual(n, om):
    root = bd.lefths_solve(n, PR(om))
    assert root >= PR(n)
    rhs = (1 + 1 / PR(om)) * (1 + PR(om)) ** n
    resid = abs((1 + root) * (1 + 1 / root) ** n - rhs)
    scale = rhs if rhs > 1 else PR(1)
    assert resid / scale < PR("1e-25")


@lru_cache(maxsize=None)
def mu_tau_sigma(n: int):
    mu_n, tau_n = bd.mu(n).mu, bd.tau(n)
    return mu_n, tau_n, bd._sigma(n, 256, None, mu_n, tau_n)


def float_h_agrees(n: int, alpha: PR) -> bool:
    """Whether sigma's h, evaluated in floats as its seed is, has the sign of
    h in PrecisionReal at alpha."""
    mu_n = mu_tau_sigma(n)[0]
    h = bd._sigma_h(alpha, n, PR(2) / n, mu_n)
    return (bd._sigma_h(float(alpha), n, 2 / n, float(mu_n)) > 0) == (h.sign() > 0)


@settings(max_examples=80, deadline=None)
@given(
    half_n=st.integers(min_value=2, max_value=100),
    depth=st.floats(min_value=0.0, max_value=16.0, allow_nan=False),
)
@example(half_n=51, depth=4.28)  # d^-n would overflow floats here, d^n underflows
def test_cleared_sigma_equation_keeps_the_sign_of_w_minus_mu(half_n, depth):
    # at alpha = tau_n - (tau_n - 1/n) 10^-depth, on both sides of sigma_n:
    # h = d^n den (W - mu_n) has W - mu_n's sign wherever the envelope is
    # defined, and is -mu_n where it is not.  h is sigma's one h, and in
    # floats it has the same sign wherever alpha lies further than the
    # seed's spread from sigma_n, so that |h| is well above float rounding
    n = 2 * half_n
    mu_n, tau_n, sigma_n = mu_tau_sigma(n)
    alpha = tau_n - (tau_n - PR(1) / n) * PR(10.0**-depth)
    ctx = bd.mm_defect(n, alpha, PR(2) / n)
    h = bd._cleared(ctx, mu_n)
    assert h == bd._sigma_h(alpha, n, PR(2) / n, mu_n)
    if abs(alpha - sigma_n) > sigma_n * SEED_SPREAD:
        assert float_h_agrees(n, alpha)
    try:
        bd._envelope(ctx)
    except InvalidPoint:
        assert h == -mu_n
        return
    try:
        w = bd._what_lower_value(ctx)
    except InvalidPoint:  # den <= 0: the pole, where h stays positive
        assert h.sign() > 0
        return
    assert h.sign() == (w - mu_n).sign()


@settings(max_examples=80, deadline=None)
@given(
    half_n=st.integers(min_value=2, max_value=100),
    k=st.integers(min_value=1, max_value=44),
    above=st.booleans(),
)
@example(half_n=2, k=44, above=True)
@example(half_n=100, k=44, above=False)
def test_float_h_keeps_its_sign_beyond_the_seed_spread(half_n, k, above):
    # alpha = sigma_n (1 -+ 2^-k) inside (1/n, tau_n), down to SEED_SPREAD
    # = 2^-44 from sigma_n, where the seed's two points lie
    n = 2 * half_n
    _, tau_n, sigma_n = mu_tau_sigma(n)
    alpha = sigma_n * (1 + PR(2) ** -k if above else 1 - PR(2) ** -k)
    assume(PR(1) / n < alpha < tau_n)
    assert float_h_agrees(n, alpha)


def solved_bracket(solve):
    """Run solve() and return its result with the (f, lo, hi) of its one
    find_root call, or None when it returned without one."""
    with patch.object(bd, "find_root", wraps=bd.find_root) as spy:
        result = solve()
    assert spy.call_count <= 1
    return result, (spy.call_args.args[:3] if spy.call_count else None)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=200),
    frac=st.floats(min_value=0.0, max_value=1.0, exclude_max=True, allow_nan=False),
    bits=st.sampled_from([64, 128, 256]),
)
# alpha = 0.8 and 0.602: the defect (1 - alpha)^n at r = 1 - alpha rounds to 0
@example(n=30, frac=0.7931034482758621, bits=64)
@example(n=200, frac=0.6, bits=256)
def test_beta0_bracket_has_certified_endpoint_signs(n, frac, bits):
    alpha = PR(1, bits) / n + (1 - PR(1, bits) / n) * PR(frac, bits)
    assume(n * alpha >= 1)  # 1/n may round down
    tol = at_precision(0, bits)
    beta, solved = solved_bracket(lambda: bd.beta_for_equality(n, alpha, bits, tol))
    if solved is None:
        assert beta == alpha  # alpha = 1/n exactly
        return
    f, lo, hi = solved  # the bracket is in r = alpha/beta
    assert f(lo).sign() < 0 < f(hi).sign()
    assert alpha / hi <= beta <= alpha / lo


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=60),
    om=st.floats(min_value=1e-3, max_value=1e6, allow_nan=False),
    bits=st.sampled_from([64, 128, 256]),
)
@example(n=50, om=10.0, bits=64)  # rhs ~ 1e52: the margin ~ n + 1 at t = rhs rounds away
def test_lefths_bracket_has_certified_endpoint_signs(n, om, bits):
    tol = at_precision(0, bits)
    root, solved = solved_bracket(lambda: bd.lefths_solve(n, PR(om, bits), bits, tol))
    if solved is None:
        assert root == n  # the right side is at the branch point's minimum
        return
    f, lo, hi = solved
    assert lo == n
    assert f(lo).sign() < 0 < f(hi).sign()
    assert lo <= root <= hi


def alpha_above(n: int, x: float, bits: int) -> PR:
    """1/n + 0.9 x (1 - 1/n): an alpha with a zero-defect beta above it."""
    inv = PR(1, bits) / n
    return inv + PR("0.9", bits) * (1 - inv) * PR(x, bits)


ROOT_SOLVES = {
    "tau": lambda n, x, bits: bd.tau(2 * (n // 2), bits),
    "mu": lambda n, x, bits: bd.mu(n, bits),
    "sigma": lambda n, x, bits: bd.sigma(2 * max(2, n // 4), bits),
    "regular_graph": lambda n, x, bits: bd.regular_graph_lambda_bound(2 * max(2, n // 2), bits),
    "beta0": lambda n, x, bits: bd.beta_for_equality(n, alpha_above(n, x, bits), bits),
    "lefths": lambda n, x, bits: bd.lefths_solve(n, PR(10, bits) ** int(12 * x - 6), bits),
    "theta": lambda n, x, bits: bd.theta(bits),
}


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(sorted(ROOT_SOLVES)),
    n=st.integers(min_value=2, max_value=30),
    x=st.floats(min_value=0.01, max_value=1.0, exclude_max=True, allow_nan=False),
    bits=st.sampled_from([64, 128, 256]),
)
def test_roots_agree_with_bisection(name, n, x, bits):
    # every find_root call a solver makes returns a point of its input
    # bracket within tol * scale of plain bisection's
    with patch.object(bd, "find_root", wraps=bd.find_root) as spy:
        ROOT_SOLVES[name](n, x, bits)
    assert spy.call_count >= 1 or name == "lefths"  # lefths returns n at omega = n
    for call in spy.call_args_list:
        f, lo, hi, tol = call.args
        tol = at_precision(DEFAULT_TOL, bits) if tol is None else PR(tol, bits)
        root = find_root(f, lo, hi, tol)
        bisection, _ = bisect_root(f, lo, hi, tol)
        assert lo <= root <= hi
        assert abs(root - bisection) <= tol * max(abs(lo), abs(hi), PR(1, bits))


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=6),
    frac=st.floats(min_value=0.05, max_value=0.95, allow_nan=False),
    bump=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)
@example(n=4, frac=0.9375, bump=0.0)
def test_envelopes_positive_and_uniform_pair_ordered_under_hypothesis(n, frac, bump):
    # perturb beta upward off the zero-defect root while the defect stays
    # below its threshold; the envelope quantities must remain positive and
    # the uniform dual bounds ordered.  beta0 is solved near working
    # precision: at the default 1e-30 width the midpoint can carry
    # a defect of ~-1e-31, which hypothesis_satisfied() counts as zero but
    # which already pushes the lower bound ~1e-25 above the upper one
    alpha = PR(1) / n + (PR("0.85") - PR(1) / n) * PR(frac)
    beta0 = bd.beta_for_equality(n, alpha, tol="1e-70")
    beta = beta0 * (1 + PR("1e-4") * PR(bump))
    ctx = bd.mm_defect(n, alpha, beta)
    assume(ctx.hypothesis_satisfied())
    assert ctx.alpha / ctx.beta - ctx.phi > 0
    assert ctx.beta - ctx.rho > 0
    ds = bd.dual_bounds(ctx)
    # equality holds at the collapse point, so allow last-bit round-off
    scale = ds.what_upper if ds.what_upper > 1 else PR(1)
    assert ds.what_lower <= ds.what_upper + PR("1e-25") * scale


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=8),
    frac=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)
def test_regular_graph_dual_pair_respects_dirichlet_floor(n, frac):
    # on the regular graph both dual values are >= n, the Dirichlet bound
    alpha = PR(1) / n + (PR("0.9") - PR(1) / n) * PR(frac)
    beta = bd.beta_for_equality(n, alpha)
    lo, hi = bd.regular_graph_duals(n, alpha, beta)
    assert lo >= PR(n) - PR("1e-20")
    assert hi >= lo - PR("1e-20")
