"""Property-based invariants for the bound computations."""

from unittest.mock import patch

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dioph import bounds as bd
from dioph.numerics import PrecisionReal, at_precision

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
    w = bd.transfer_dual(n, PR(psi), "liminf")
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
    w_lo = bd.transfer_dual(n, PR(lo), "liminf")
    w_hi = bd.transfer_dual(n, PR(hi), "limsup")
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


def solved_bracket(solve):
    """Run solve() and return its result with the (f, bracket) of its one
    find_root call, or None when it returned without one."""
    with patch.object(bd, "find_root", wraps=bd.find_root) as spy:
        result = solve()
    assert spy.call_count <= 1
    return result, (spy.call_args.args[:2] if spy.call_count else None)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=200),
    frac=st.floats(min_value=0.0, max_value=1.0, exclude_max=True, allow_nan=False),
    bits=st.sampled_from([64, 128, 256]),
)
# alpha = 0.8 and 0.602: the defect (1 - alpha)^n at beta = alpha/(1 - alpha) rounds to 0
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
    f, br = solved
    assert f(br.lo).sign() < 0 < f(br.hi).sign()
    assert br.lo <= beta <= br.hi


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
    f, br = solved
    assert br.lo == n
    assert f(br.lo).sign() < 0 < f(br.hi).sign()
    assert br.lo <= root <= br.hi


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
    # precision: at the default 1e-30 bisection width the midpoint can carry
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
