"""find_root against its PrecisionReal loop, kept here as the oracle.

``reference_find_root`` is find_root as it ran on PrecisionReal values,
verbatim, before its loop ran on raw libmp values.  The two must take the
same points, one by one, and return the same raw result at the same
precision, or raise the same type of exception.  Two cases differ by
design: a NaN value of f is a ValueError in the reference and an
InvalidPoint in find_root, and find_root takes f's values and tol at the
bracket's precision, so the reference is handed them rounded to it.
"""

from typing import Callable, Optional
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dioph.bounds as bd
from dioph.numerics import (
    DEFAULT_TOL,
    InvalidBracket,
    InvalidPoint,
    NoConvergence,
    PrecisionReal,
    Scalar,
    _as_real,
    _seed_points,
    at_precision,
    exp,
    find_root,
    float_root,
)

PR = PrecisionReal


def _target_width(lo: PrecisionReal, hi: PrecisionReal, tol: PrecisionReal) -> PrecisionReal:
    """tol times the larger of |lo|, |hi| and 1: the width a root is solved to."""
    m = max(abs(lo), abs(hi))
    return tol if m <= 1 else tol * m  # tol * 1 is tol exactly


def reference_find_root(
    f: Callable[[PrecisionReal], Scalar],
    lo: PrecisionReal,
    hi: PrecisionReal,
    tol: Optional[Scalar] = None,
    seed: Optional[float] = None,
) -> PrecisionReal:
    if not lo < hi:
        raise InvalidBracket("bracket requires lo < hi")
    bits = max(lo.precision_bits, hi.precision_bits)
    tol = at_precision(DEFAULT_TOL, bits) if tol is None else _as_real(tol, bits)
    if tol.sign() <= 0:
        raise ValueError("tol must be positive")

    f_lo = None
    pair = None if seed is None else _seed_points(seed, lo, hi)
    if pair is not None:
        t1, t2 = pair
        f1, f2 = _as_real(f(t1), bits), _as_real(f(t2), bits)
        s1, s2 = f1.sign(), f2.sign()
        if s1 == 0:
            return t1
        if s2 == 0:
            return t2
        if s1 != s2:  # the seed's points bracket a root
            lo, f_lo, hi, f_hi = t1, f1, t2, f2
    if f_lo is None:
        f_lo = _as_real(f(lo), bits)
        f_hi = _as_real(f(hi), bits)
        s_lo, s_hi = f_lo.sign(), f_hi.sign()
        if s_lo == 0:
            return lo
        if s_hi == 0:
            return hi
        if s_lo == s_hi:
            raise InvalidBracket("f has the same sign at both endpoints")
        if pair is not None:  # both of the seed's points lie on one side of the root
            lo, f_lo, hi, f_hi = (t2, f2, hi, f_hi) if s1 == s_lo else (lo, f_lo, t1, f1)
    s_lo = f_lo.sign()

    # (x, fx) is the latest point taken, (w, fw) the one before it
    x, fx, w, fw = (lo, f_lo, hi, f_hi) if abs(f_lo) <= abs(f_hi) else (hi, f_hi, lo, f_lo)
    probed = False  # the last point taken was a closing probe
    last = before = 2 * (hi - lo)  # the last two step lengths
    for _ in range(4 * bits + 128):
        if hi - lo <= _target_width(lo, hi, tol):
            return (lo + hi) / 2
        mid = (lo + hi) / 2
        if not (lo < mid < hi):
            raise NoConvergence(
                "bisection stalled before reaching tol; increase precision_bits"
            )
        t = mid
        if probed or fx == fw:
            probed = False
        else:
            step = fx * (x - w) / (fx - fw)
            est = x - step
            if step.is_finite:
                half = _target_width(est, est, tol) / 2
                length = abs(step)
                if length < half:
                    probe = est - half if step > 0 else est + half
                    t, probed = (probe, True) if lo < probe < hi else (mid, False)
                elif lo < est < hi and length <= before / 2:
                    t = est
        f_t = _as_real(f(t), bits)
        s_t = f_t.sign()
        if s_t == 0:
            return t
        if s_t == s_lo:
            lo = t
        else:
            hi = t
        before, last = last, abs(t - x)
        w, fw, x, fx = x, fx, t, f_t
    raise NoConvergence("iteration budget exhausted")


def run(solver, f, lo, hi, tol, seed):
    """(the points solver hands f, as (raw, precision), and its raw result
    with its precision, or the type of the exception it raised)."""
    points = []

    def g(x):
        points.append((x.raw, x.precision_bits))
        return f(x)

    try:
        r = solver(g, lo, hi, tol, seed)
    except (InvalidBracket, InvalidPoint, NoConvergence, ValueError) as exc:
        return points, type(exc)
    return points, (r.raw, r.precision_bits)


BITS = [2, 53, 64, 80, 128, 256, 1024]
# what f returns: its value at the bracket's precision, as an int or a
# float, or computed at more or fewer bits than the bracket carries
VALUE_KINDS = ["real", "int", "float", "higher", "lower"]


def formula(kind: str, lo: PrecisionReal, hi: PrecisionReal, frac: PrecisionReal, k: int) -> Callable:
    """An increasing f of x with one root in (lo, hi), rarely a dyadic one:
    the cubic u + k u^3 - c, or exp(k u) - c, for u = x - lo, where c puts
    the root frac of the way along (lo, hi) in the value."""
    if kind == "poly":
        g = lambda u: u + k * u**3
    else:
        g = lambda u: exp(k * u)
    c = g(0 * lo) + frac * (g(hi - lo) - g(0 * lo))
    return lambda x: g(x - lo) - c


def valued(g: Callable, kind: str, bits: int) -> Callable:
    """g with its value returned as VALUE_KINDS names it."""
    if kind == "int":
        return lambda x: int(g(x) * 2**20)
    if kind == "float":
        return lambda x: float(g(x))
    if kind == "higher":
        return lambda x: g(PR(x, bits + 64))
    if kind == "lower":
        return lambda x: PR(g(x), max(1, bits // 2))
    return g


def marked(f: Callable, at, value) -> Callable:
    """f, but value at the point whose raw is at."""
    return lambda x: value if x.raw == at else f(x)


@settings(max_examples=400, deadline=None)
@given(
    bits=st.sampled_from(BITS),
    kind=st.sampled_from(["poly", "exp"]),
    lo=st.integers(-8, 8),
    width=st.integers(-3, 3),
    frac=st.floats(0.001, 0.999),
    k=st.integers(1, 20),
    falling=st.booleans(),
    value_kind=st.sampled_from(VALUE_KINDS),
    seed_kind=st.sampled_from([None, "good", "bad", "outside"]),
    tol=st.sampled_from([None, "1e-3", "1e-12", "1e-400"]),
    hi_bits=st.sampled_from(["same", "fewer"]),
    mark=st.sampled_from([None, None, "zero", "nan"]),
    data=st.data(),
)
@example(bits=1024, kind="poly", lo=0, width=0, frac=0.3, k=1, falling=False,
         value_kind="real", seed_kind="good", tol="1e-400", hi_bits="same", mark=None,
         data=None)  # tol too fine: NoConvergence at 1024 bits
@example(bits=1024, kind="poly", lo=0, width=0, frac=0.2809396503003651, k=7, falling=False,
         value_kind="float", seed_kind="bad", tol="1e-400", hi_bits="same", mark=None,
         data=None)  # a secant step exactly half the step before last
def test_find_root_takes_the_reference_points(
    bits, kind, lo, width, frac, k, falling, value_kind, seed_kind, tol, hi_bits, mark, data
):
    lo = PR(lo, bits)
    hi = PR(lo + PR(2, bits) ** width, bits if hi_bits == "same" else max(1, bits // 2))
    g = formula(kind, lo, hi, PR(frac, bits), k)
    if falling:
        g = lambda x, g=g: -g(x)
    seed = {
        None: None,
        "good": float_root(lambda t: float(g(PR(t, 64))), lo, hi),
        "bad": float(lo + (hi - lo) * PR(1 - frac, bits)),
        "outside": float(hi) + 1.0,
    }[seed_kind]
    f = valued(g, value_kind, bits)
    top = max(lo.precision_bits, hi.precision_bits)
    if mark is not None:
        # zero or NaN at a point the reference takes: any of them, the
        # closing probe among them
        points, _ = run(reference_find_root, f, lo, hi, tol, seed)
        if points:
            index = data.draw(st.integers(0, len(points) - 1)) if data else len(points) - 1
            f = marked(f, points[index][0], 0 if mark == "zero" else PR("nan", top))
    # the reference with f's values and tol taken at the bracket's precision
    ref_f = (lambda x: PR(f(x), top)) if value_kind in ("higher", "lower") else f
    expected = run(reference_find_root, ref_f, lo, hi, tol, seed)
    if mark == "nan" and expected[1] is ValueError:
        expected = expected[0], InvalidPoint
    assert run(find_root, f, lo, hi, tol, seed) == expected


@pytest.mark.parametrize("bits", [64, 256])
def test_tol_is_taken_at_the_bracket_precision(bits):
    # a tol carrying more bits is rounded to the bracket's precision first
    f = lambda x: x * x - 2
    lo, hi = PR(1, bits), PR(2, bits)
    fine = PR(2, 4 * bits) ** (16 - bits) / 3
    assert run(find_root, f, lo, hi, fine, None) == run(
        reference_find_root, f, lo, hi, PR(fine, bits), None
    )


@pytest.mark.parametrize("where", ["lo", "hi", "inside"])
def test_nan_names_the_point(where):
    lo, hi = PR(1, 64), PR(2, 64)
    nan_at = {
        "lo": lambda x: x == lo,
        "hi": lambda x: x == hi,
        "inside": lambda x: lo < x < hi,
    }[where]
    f = lambda x: PR("nan", 64) if nan_at(x) else x * x - 2
    shown = {"lo": r"PrecisionReal\('1\.0', 64\)", "hi": r"PrecisionReal\('2\.0', 64\)"}
    with pytest.raises(InvalidPoint, match="f is NaN at " + shown.get(where, r"PrecisionReal\('1\.3")):
        find_root(f, lo, hi, "1e-10")


@pytest.mark.parametrize("tol", [None, "1e-8"])
@pytest.mark.parametrize("bits", [64, 256])
def test_solvers_hand_find_root_values_at_the_bracket_precision(bits, tol):
    # so taking them at it, as the reference does not, changes nothing for
    # dioph's own solves: each tol and each value of f already carries the
    # bracket's precision
    calls = []

    def checked(f, lo, hi, tol=None, seed=None):
        top = max(lo.precision_bits, hi.precision_bits)
        assert lo.precision_bits == hi.precision_bits == top
        assert tol is None or type(tol) is str or tol.precision_bits == top

        def g(x):
            v = f(x)
            assert type(v) is PR and v.precision_bits == top
            return v

        calls.append(top)
        return find_root(g, lo, hi, tol, seed)

    with patch.object(bd, "find_root", checked):
        bd.theta(bits, tol)
        for n in (4, 6, 12):
            bd.sigma(n, bits, tol)
            bd.regular_graph_lambda_bound(n, bits, tol)
        for n, alpha in ((2, "0.6"), (5, "0.3"), (8, "0.85")):
            bd.beta_for_equality(n, PR(alpha, bits), tol=tol)
        bd.lefths_solve(3, PR("0.5", bits), tol=tol)
    # theta; mu, tau and sigma for each sigma(n); mu and s for each graph
    # bound; the three beta_0; lefths_solve
    assert calls == [bits] * 20
