"""Seeded roots against the unseeded oracle.

Every solver in ``bounds`` passes find_root a seed: the float root of its
own defining formula.  The seed only chooses find_root's first two
points, so each seeded root must lie within tol of the root that find_root
reaches from the same algebraic bracket with no seed, computed here as the
oracle.  The float formula loses the root to cancellation for beta_0 near
alpha = 1/n (r near 1); there the solve falls back to the algebraic bracket.
"""

from typing import Callable, List, NamedTuple, Optional
from unittest.mock import patch

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import dioph.bounds as bd
from dioph.numerics import (
    DEFAULT_TOL,
    InvalidBracket,
    PrecisionReal as PR,
    at_precision,
    find_root,
    float_root,
)


class Call(NamedTuple):
    """One find_root call: its arguments, the points f was evaluated at, in
    order, and the root it returned."""

    f: Callable
    lo: PR
    hi: PR
    tol: object
    seed: Optional[float]
    points: List[PR]
    root: PR


def seeded_calls(solve) -> List[Call]:
    """Run solve() and return each of its find_root calls."""
    calls = []

    def spy(f, lo, hi, tol=None, seed=None):
        points = []

        def g(x):
            points.append(x)
            return f(x)

        root = find_root(g, lo, hi, tol, seed=seed)
        calls.append(Call(f, lo, hi, tol, seed, points, root))
        return root

    with patch.object(bd, "find_root", spy):
        solve()
    return calls


def assert_agrees_with_oracle(call: Call, bits: int) -> None:
    tol = at_precision(DEFAULT_TOL, bits) if call.tol is None else PR(call.tol, bits)
    oracle = find_root(call.f, call.lo, call.hi, tol)
    assert call.lo <= call.root <= call.hi
    assert abs(call.root - oracle) <= tol * max(abs(call.lo), abs(call.hi), PR(1, bits))


# the deepest 10^-depth at which g, evaluated at bits, still resolves the
# root to tol: nearer either end, its closed form cancels, and the unseeded
# solve misses a solve of the same g at 4 bits by more than tol as well
RESOLVED_DEPTH = {64: 1, 128: 8, 256: 15}


@st.composite
def bits_and_depth(draw):
    bits = draw(st.sampled_from(sorted(RESOLVED_DEPTH)))
    return bits, draw(st.integers(min_value=1, max_value=RESOLVED_DEPTH[bits]))


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=200),
    near_one=st.booleans(),
    bits_depth=bits_and_depth(),
)
@example(n=3, near_one=False, bits_depth=(256, 15))
@example(n=200, near_one=True, bits_depth=(256, 15))
@example(n=2, near_one=False, bits_depth=(128, 8))
@example(n=200, near_one=True, bits_depth=(64, 1))
def test_seeded_beta0_agrees_with_oracle(n, near_one, bits_depth):
    # alpha at 10^-depth of the interval (1/n, 1) from its lower or upper end
    bits, depth = bits_depth
    inv = PR(1, bits) / n
    offset = (1 - inv) * PR(10, bits) ** -depth
    alpha = 1 - offset if near_one else inv + offset
    assume(inv < alpha < 1 and n * alpha > 1)  # 1/n may round down
    calls = seeded_calls(lambda: bd.beta_for_equality(n, alpha, bits))
    assert len(calls) == 1
    assert_agrees_with_oracle(calls[0], bits)


SOLVERS = {
    "tau": lambda n, x, bits: bd.tau(2 * (n // 2), bits),
    "mu": lambda n, x, bits: bd.mu(n, bits),
    "regular_graph": lambda n, x, bits: bd.regular_graph_lambda_bound(2 * max(2, n // 2), bits),
    "lefths": lambda n, x, bits: bd.lefths_solve(n, PR(10, bits) ** int(12 * x - 6), bits),
    "theta": lambda n, x, bits: bd.theta(bits),
}


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(sorted(SOLVERS)),
    n=st.integers(min_value=2, max_value=200),
    x=st.floats(min_value=0.0, max_value=1.0, exclude_max=True, allow_nan=False),
    bits=st.sampled_from([64, 128, 256]),
)
# omega = 10^-2 puts lefths' root 1 to 12 above n, where f is nearly flat:
# these 64-bit cases missed the oracle before f had guard bits
@example(name="lefths", n=96, x=0.3125, bits=64)
@example(name="lefths", n=97, x=0.3125, bits=64)
@example(name="lefths", n=98, x=0.3125, bits=64)
@example(name="lefths", n=99, x=0.3125, bits=64)
@example(name="lefths", n=101, x=0.3125, bits=64)
@example(name="lefths", n=103, x=0.3125, bits=64)
@example(name="lefths", n=104, x=0.3125, bits=64)
@example(name="lefths", n=110, x=0.3125, bits=64)
def test_seeded_solves_agree_with_oracle(name, n, x, bits):
    # mu's h, tau's g and the regular-graph g run mu, tau and s with the
    # powers of n up to 200 in floats; lefths' right side reaches 10^1200
    for call in seeded_calls(lambda: SOLVERS[name](n, x, bits)):
        assert_agrees_with_oracle(call, bits)


@pytest.mark.parametrize("bits", [64, 128, 256])
def test_seeded_sigma_agrees_with_oracle(bits):
    # every even n = 4..200: sigma's h in floats seeds the solve on
    # (1/n, tau_n), mu_n and tau_n solved first
    for n in range(4, 201, 2):
        mu_n, tau_n = bd.mu(n, bits).mu, bd.tau(n, bits)
        (call,) = seeded_calls(lambda: bd._sigma(n, bits, None, mu_n, tau_n))
        assert call.seed is not None
        assert_agrees_with_oracle(call, bits)


def test_seed_that_misses_falls_back_to_the_algebraic_bracket():
    # alpha 1e-15 above 1/3: in floats, g(r) = alpha (1 - r^3)/(1 - r) - 1
    # cancels near the root r ~ 1 - 1e-15, so the seed misses it
    n, alpha = 3, PR(1) / 3 + PR("1e-15")
    betas = []
    (call,) = seeded_calls(lambda: betas.append(bd.beta_for_equality(n, alpha)))
    assert call.seed is not None and call.lo < call.seed < call.hi
    # both seed points, then the algebraic ends
    assert call.points[2:4] == [call.lo, call.hi]
    assert betas == [alpha / call.root]
    assert_agrees_with_oracle(call, 256)
    assert abs(bd.mm_defect(n, alpha, betas[0]).epsilon) < PR("1e-30")


def test_float_root_refuses_what_floats_cannot_show():
    assert float_root(lambda t: t - 0.25, 0, 1) == 0.25
    assert float_root(lambda t: t + 1, 0, 1) is None  # no sign change
    assert float_root(lambda t: 10.0**400 * t - 1, 0, 1) is None  # overflow
    assert float_root(lambda t: 1 / t - 2, 0, 1) is None  # division by zero
    assert float_root(lambda t: t * 1e308 * 10 - 1, 0, 1) is None  # inf


def points_taken(f, lo, hi, seed, bits=64):
    """(root, every point f was evaluated at) of a seeded find_root call."""
    points = []

    def g(x):
        points.append(x)
        return f(x)

    return find_root(g, PR(lo, bits), PR(hi, bits), seed=seed), points


def test_seed_outside_the_bracket_is_ignored():
    root, points = points_taken(lambda x: x - PR("0.3", 64), 0, 1, seed=2.0)
    assert points[:2] == [0, 1]
    assert abs(root - PR("0.3", 64)) <= at_precision(DEFAULT_TOL, 64)


@pytest.mark.parametrize("end", [1, 2])
def test_seed_point_beyond_an_end_moves_halfway_to_it(end):
    # the root lies 2^-50 inside the end, so one seed point lies beyond it
    bits = 64
    r = end + (2.0**-50 if end == 1 else -(2.0**-49))
    root, points = points_taken(lambda x: x - PR(r, bits), 1, 2, seed=r)
    inner = PR(r * (1 + 2.0**-44) if end == 1 else r * (1 - 2.0**-44), bits)
    assert sorted(points[:2]) == sorted([(end + PR(r, bits)) / 2, inner])
    assert all(1 < p < 2 for p in points)  # neither end is evaluated
    assert abs(root - PR(r, bits)) <= at_precision(DEFAULT_TOL, bits)


def test_seed_that_misses_keeps_the_endpoint_check():
    # both seed points lie below the root, so the ends are evaluated and
    # their signs must still differ
    with pytest.raises(InvalidBracket):
        find_root(lambda x: x * x + 1, PR(0, 64), PR(1, 64), seed=0.5)
    root, points = points_taken(lambda x: x - PR("0.3", 64), 0, 1, seed=0.25)
    assert points[2:4] == [0, 1]
    assert all(p > points[1] for p in points[4:])  # the bracket starts above both
    assert abs(root - PR("0.3", 64)) <= at_precision(DEFAULT_TOL, 64)
