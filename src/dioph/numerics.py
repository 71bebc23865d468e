"""Arbitrary-precision real scalars and sign-certified bracketed root finding.

Every other module computes with :class:`PrecisionReal`, a thin wrapper over
mpmath's low-level ``libmp`` layer.  Each value carries its own working
precision and all operations round explicitly at the larger of the two
operand precisions, so nothing here touches mpmath's global context (safe
for concurrent use).
"""

from __future__ import annotations

import functools
import math
from typing import Callable, List, Optional, Tuple, Union

from mpmath import mp
from mpmath.libmp import (
    ComplexResult,
    finf,
    fnan,
    fninf,
    fone,
    fzero,
    from_float,
    from_int,
    from_rational,
    from_str,
    mpf_abs,
    mpf_add,
    mpf_cmp,
    mpf_div,
    mpf_e,
    mpf_exp,
    mpf_hash,
    mpf_log,
    mpf_mul,
    mpf_neg,
    mpf_pi,
    mpf_pow_int,
    mpf_shift,
    mpf_sign,
    mpf_sqrt,
    mpf_sub,
    round_nearest,
    to_float,
    to_int,
    to_str,
)

__all__ = [
    "DEFAULT_PRECISION_BITS",
    "DEFAULT_TOL",
    "PrecisionReal",
    "NumericsError",
    "InvalidBracket",
    "NoConvergence",
    "InvalidPoint",
    "at_precision",
    "find_root",
    "float_root",
    "scan_brackets",
    "exp",
    "log",
    "sqrt",
    "pi_value",
    "e_value",
    "sqrt2_value",
    "golden_value",
    "liouville_value",
    "NAMED_CONSTANTS",
    "format_real",
]

RND = round_nearest

DEFAULT_PRECISION_BITS = 256
DEFAULT_TOL = "1e-30"


class NumericsError(Exception):
    """Base class for numeric-layer failures."""


class InvalidBracket(NumericsError):
    """A bracket with lo >= hi, or with the same sign of f at both ends."""


class NoConvergence(NumericsError):
    """The width target is unreachable at the working precision."""


class InvalidPoint(NumericsError):
    """Raised by callables to flag points outside their valid domain."""


Scalar = Union["PrecisionReal", int, float, str]


def _positive_bits(bits: int) -> int:
    """bits as an int; ValueError below 1, where libmp gives 0-bit values or hangs."""
    bits = int(bits)
    if bits < 1:
        raise ValueError("precision_bits must be a positive integer")
    return bits


def _rounded(op: Callable, reflected: bool = False) -> Callable:
    """The binary operator op(x, y, bits, rounding) on PrecisionReal, rounded
    at the larger of the two precisions; reflected swaps the operands."""

    def method(self, other):
        p = self.precision_bits
        if type(other) is PrecisionReal:
            if other.precision_bits > p:
                p = other.precision_bits
            b = other.raw
        else:  # a Scalar, taken at this value's precision
            b = self._coerce(other)
            if b is None:
                return NotImplemented
        raw = op(b, self.raw, p, RND) if reflected else op(self.raw, b, p, RND)
        obj = _new(PrecisionReal)
        _set_raw(obj, raw)
        _set_bits(obj, p)
        return obj

    return method


class PrecisionReal:
    """Real scalar carrying an explicit working mantissa precision in bits.

    Arithmetic between two values is rounded at the maximum of the two
    precisions; comparisons are always exact.
    """

    __slots__ = ("raw", "precision_bits")

    def __init__(self, value: Scalar, precision_bits: Optional[int] = None):
        bits = DEFAULT_PRECISION_BITS if precision_bits is None else _positive_bits(precision_bits)
        if isinstance(value, PrecisionReal):
            raw = value.raw
            if precision_bits is None:
                bits = value.precision_bits
            elif bits < value.precision_bits:
                raw = mpf_add(raw, fzero, bits, RND)  # re-round downward
        elif isinstance(value, int):
            raw = from_int(value, bits, RND)
        elif isinstance(value, float):
            raw = from_float(value, bits, RND)
        elif isinstance(value, str):
            raw = from_str(value, bits, RND)
        else:
            mpf_attr = getattr(value, "_mpf_", None)
            if mpf_attr is None:
                raise TypeError(f"cannot convert {type(value).__name__} to PrecisionReal")
            raw = mpf_add(mpf_attr, fzero, bits, RND)  # honor the requested precision
        object.__setattr__(self, "raw", raw)
        object.__setattr__(self, "precision_bits", bits)

    def __setattr__(self, name, value):
        raise AttributeError("PrecisionReal is immutable")

    def __delattr__(self, name):
        # at_precision hands one cached value to every caller
        raise AttributeError("PrecisionReal is immutable")

    def __reduce__(self):
        # copy and pickle rebuild through _make: restoring the slots would
        # go through the __setattr__ guard
        return PrecisionReal._make, (self.raw, self.precision_bits)

    @classmethod
    def _make(cls, raw: tuple, bits: int) -> "PrecisionReal":
        obj = _new(cls)
        _set_raw(obj, raw)
        _set_bits(obj, bits)
        return obj

    # -- conversions ------------------------------------------------------

    @property
    def value(self):
        """The underlying mpmath mpf (exact wrap, no rounding)."""
        return mp.make_mpf(self.raw)

    def __float__(self) -> float:
        return to_float(self.raw)

    def __int__(self) -> int:
        return int(to_int(self.raw, RND))

    def __str__(self) -> str:
        dps = max(1, int(self.precision_bits / 3.33) - 1)
        return to_str(self.raw, dps)

    def __repr__(self) -> str:
        return f"PrecisionReal({to_str(self.raw, 20)!r}, {self.precision_bits})"

    # -- predicates -------------------------------------------------------

    @property
    def is_finite(self) -> bool:
        return self.raw not in (finf, fninf, fnan)

    @property
    def is_nan(self) -> bool:
        return self.raw == fnan

    @property
    def is_infinite(self) -> bool:
        return self.raw in (finf, fninf)

    def sign(self) -> int:
        """-1, 0 or +1; exact."""
        if self.raw == fnan:
            raise ValueError("sign of NaN")
        return mpf_cmp(self.raw, fzero)

    # -- arithmetic -------------------------------------------------------

    def _coerce(self, other: Scalar) -> Optional[tuple]:
        """other's raw mpf at this value's precision, as __init__ rounds it;
        None for a type that is not a Scalar.  A small int's exact raw comes
        from _SMALL_INTS wherever its mantissa fits the precision, so that
        rounding it would change nothing."""
        bits = self.precision_bits
        if type(other) is int:
            raw = _SMALL_INTS.get(other)
            if raw is not None and raw[3] <= bits:
                return raw
        if isinstance(other, int):
            return from_int(other, bits, RND)
        if isinstance(other, float):
            return from_float(other, bits, RND)
        if isinstance(other, str):
            return from_str(other, bits, RND)
        return None

    __add__ = __radd__ = _rounded(mpf_add)
    __sub__ = _rounded(mpf_sub)
    __rsub__ = _rounded(mpf_sub, reflected=True)
    __mul__ = __rmul__ = _rounded(mpf_mul)
    __truediv__ = _rounded(mpf_div)
    __rtruediv__ = _rounded(mpf_div, reflected=True)

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        p = self.precision_bits
        if k == 0:
            return PrecisionReal._make(fone, p)  # x^0 == 1, also for infinite x
        return PrecisionReal._make(mpf_pow_int(self.raw, k, p, RND), p)

    def __neg__(self):
        return PrecisionReal._make(mpf_neg(self.raw), self.precision_bits)

    def __pos__(self):
        return self

    def __abs__(self):
        return PrecisionReal._make(mpf_abs(self.raw), self.precision_bits)

    # -- comparisons (exact) ----------------------------------------------

    def _cmp(self, other: Scalar) -> Optional[int]:
        b = other.raw if type(other) is PrecisionReal else self._coerce(other)
        if b is None:
            return None
        if self.raw == fnan or b == fnan:
            raise ValueError("ordering comparison with NaN")
        return mpf_cmp(self.raw, b)

    def __eq__(self, other):
        b = other.raw if type(other) is PrecisionReal else self._coerce(other)
        if b is None:
            return NotImplemented
        if self.raw == fnan or b == fnan:
            return False
        return mpf_cmp(self.raw, b) == 0

    def __ne__(self, other):
        r = self.__eq__(other)
        return NotImplemented if r is NotImplemented else not r

    def __lt__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is None else c < 0

    def __le__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is None else c <= 0

    def __gt__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is None else c > 0

    def __ge__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is None else c >= 0

    def __hash__(self):
        # the hash of the exact value, which equals that of an equal int or float
        return mpf_hash(self.raw)

    def __bool__(self):
        return self.raw != fzero


# build results without __init__ or the __setattr__ guard: the slots' own setters
_new = object.__new__
_set_raw = PrecisionReal.raw.__set__
_set_bits = PrecisionReal.precision_bits.__set__

# from_int(k) for small k: exact, so from_int(k, bits, RND) at any bits that
# holds its mantissa (raw[3] bits)
_SMALL_INTS = {k: from_int(k) for k in range(-256, 257)}


def _as_real(x: Scalar, bits: Optional[int] = None) -> PrecisionReal:
    if isinstance(x, PrecisionReal):
        return x
    return PrecisionReal(x, bits)


@functools.lru_cache(maxsize=256, typed=True)
def at_precision(stated: Scalar, bits: int) -> PrecisionReal:
    """The coarser of a stated tolerance and 2^(8 - bits), the finest width
    bisection and two roundings of one value meet at bits (2^-56 at 64 bits,
    2^-248 at 256 bits, where 1e-30 or 1e-20 is kept as stated).

    Memoized: callers pass a few constants, and a PrecisionReal is
    immutable, so every caller may share one result.  The key is typed, as
    a PrecisionReal equals a string rounded at its own precision, not bits."""
    return max(PrecisionReal(stated, bits), PrecisionReal(2, bits) ** (8 - bits))


# -- elementary functions ---------------------------------------------------


def exp(x: Scalar) -> PrecisionReal:
    r = _as_real(x)
    return PrecisionReal._make(mpf_exp(r.raw, r.precision_bits, RND), r.precision_bits)


def log(x: Scalar) -> PrecisionReal:
    """Natural logarithm; log(0) is -inf, negative input raises ValueError."""
    r = _as_real(x)
    try:
        return PrecisionReal._make(mpf_log(r.raw, r.precision_bits, RND), r.precision_bits)
    except ComplexResult:
        raise ValueError("log of a negative number") from None


def sqrt(x: Scalar) -> PrecisionReal:
    r = _as_real(x)
    try:
        return PrecisionReal._make(mpf_sqrt(r.raw, r.precision_bits, RND), r.precision_bits)
    except ComplexResult:
        raise ValueError("sqrt of a negative number") from None


# -- named constants --------------------------------------------------------


def pi_value(bits: int = DEFAULT_PRECISION_BITS) -> PrecisionReal:
    bits = _positive_bits(bits)
    return PrecisionReal._make(mpf_pi(bits, RND), bits)


def e_value(bits: int = DEFAULT_PRECISION_BITS) -> PrecisionReal:
    bits = _positive_bits(bits)
    return PrecisionReal._make(mpf_e(bits, RND), bits)


def sqrt2_value(bits: int = DEFAULT_PRECISION_BITS) -> PrecisionReal:
    bits = _positive_bits(bits)
    return PrecisionReal._make(mpf_sqrt(from_int(2), bits, RND), bits)


def golden_value(bits: int = DEFAULT_PRECISION_BITS) -> PrecisionReal:
    """The golden ratio (1 + sqrt 5)/2."""
    bits = _positive_bits(bits)
    s5 = mpf_sqrt(from_int(5), bits + 8, RND)
    v = mpf_div(mpf_add(fone, s5, bits + 8, RND), from_int(2), bits, RND)
    return PrecisionReal._make(v, bits)


def liouville_value(bits: int = DEFAULT_PRECISION_BITS) -> PrecisionReal:
    """Truncated Liouville-type constant sum(10^(-m!), m=1..10).

    Terms below 2^-(bits+16) relative to the sum round away and are skipped.
    """
    bits = _positive_bits(bits)
    digits_needed = int((bits + 16) * 0.30103) + 4
    fact, included = 1, []
    for m in range(1, 11):
        fact *= m
        if fact > digits_needed:
            break
        included.append(fact)
    big = included[-1]
    num = sum(10 ** (big - f) for f in included)
    return PrecisionReal._make(from_rational(num, 10**big, bits, RND), bits)


# the constants a target may name, each a function of the precision in bits
NAMED_CONSTANTS = {
    "e": e_value,
    "pi": pi_value,
    "sqrt2": sqrt2_value,
    "golden": golden_value,
    "liouville": liouville_value,
}


# -- deterministic decimal formatting ---------------------------------------


@functools.lru_cache(maxsize=32)
def _decimal_context(digits: int):
    """A decimal context format_real rounds in: digits digits, half to
    even, and decimal's widest exponent range, so that no power of 2 a
    binary exponent gives overflows or underflows.  Every caller shares
    it: its operations only raise its untrapped Inexact and Rounded flags,
    which no result reads."""
    import decimal  # here, so importing dioph does not load it

    return decimal.Context(prec=digits, rounding=decimal.ROUND_HALF_EVEN, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)


@functools.lru_cache(maxsize=1024)
def _power_of_two(expo: int, significant: int):
    """2^expo in _decimal_context(significant + 20), rounded there."""
    import decimal

    return _decimal_context(significant + 20).power(decimal.Decimal(2), expo)


def format_real(x: Scalar, significant: int = 12) -> str:
    """Format at an explicit number of significant digits, round-half-even.

    The value man 2^expo is taken as man, exactly, times 2^expo rounded to
    significant + 20 digits; the product is rounded there, then to
    significant digits, half to even whatever the caller's decimal context
    is, so the format has no digit left to round.  The contexts and the
    power of each (expo, significant) are made once and reused
    (`_decimal_context`, `_power_of_two`), and a negative value is negated
    exactly."""
    r = _as_real(x)
    if r.raw == fnan:
        return "nan"
    if r.raw == finf:
        return "inf"
    if r.raw == fninf:
        return "-inf"
    if r.raw == fzero:
        return "0"
    sign, man, expo, _ = r.raw
    d = _decimal_context(significant + 20).multiply(int(man), _power_of_two(expo, significant))
    d = _decimal_context(significant).plus(d)
    return format(d.copy_negate() if sign else d, f".{significant}g")


# -- bracketed root finding --------------------------------------------------


def _width(lo: tuple, hi: tuple, tol: tuple, bits: int) -> tuple:
    """tol times the larger of |lo|, |hi| and 1, for raw mpfs lo <= hi: the
    width a root is solved to.  max(|lo|, |hi|) is max(-lo, hi) there."""
    m = mpf_neg(lo) if mpf_cmp(mpf_neg(lo), hi) > 0 else hi
    return tol if mpf_cmp(m, fone) <= 0 else mpf_mul(tol, m, bits, RND)  # tol * 1 is tol exactly


def float_root(f: Callable[[float], float], lo: Scalar, hi: Scalar) -> Optional[float]:
    """A root of f in (lo, hi) in floats: a seed for ``find_root``, which
    certifies nothing it is given.

    The steps follow ``find_root``'s rule without its closing probe: a
    secant step from the latest point, kept when it lands strictly inside
    the sign-change bracket and is at most half the step before last, a
    bisection otherwise.  It returns once a secant step is below 2^-50 of
    the estimate, or the bracket closes on adjacent floats.  None where f
    shows no sign change at the ends, overflows, divides by zero or returns
    a value that is not finite."""
    lo, hi = float(lo), float(hi)
    try:
        f_lo, f_hi = f(lo), f(hi)
        if not (math.isfinite(f_lo) and math.isfinite(f_hi)) or (f_lo < 0) == (f_hi < 0):
            return None
        x, fx, w, fw = (lo, f_lo, hi, f_hi) if abs(f_lo) <= abs(f_hi) else (hi, f_hi, lo, f_lo)
        last = before = 2 * (hi - lo)
        while lo < (t := (lo + hi) / 2) < hi:
            if fx != fw:
                step = fx * (x - w) / (fx - fw)
                if abs(step) <= 2**-50 * abs(x):
                    return x - step
                if lo < x - step < hi and abs(step) <= before / 2:
                    t = x - step
            f_t = f(t)
            if not math.isfinite(f_t):
                return None
            if f_t == 0:
                return t
            if (f_t < 0) == (f_lo < 0):
                lo = t
            else:
                hi = t
            before, last = last, abs(t - x)
            w, fw, x, fx = x, fx, t, f_t
    except (OverflowError, ZeroDivisionError):
        return None
    return (lo + hi) / 2


# a seed's two points lie this far apart relative to it, both ways: a float
# seed carries about 52 bits, so its root lies between them unless the float
# formula lost 8 of those bits
SEED_SPREAD = 2.0**-44


def _seed_points(
    seed: float, lo: PrecisionReal, hi: PrecisionReal
) -> Optional[Tuple[PrecisionReal, PrecisionReal]]:
    """seed (1 -+ SEED_SPREAD), a point beyond an end of (lo, hi) moved
    halfway from seed to that end; None unless the two then lie strictly
    inside, in order, which also fails where seed does not lie inside."""
    bits = max(lo.precision_bits, hi.precision_bits)
    d = abs(seed) * SEED_SPREAD
    s, left, right = (PrecisionReal._make(from_float(v, bits, RND), bits) for v in (seed, seed - d, seed + d))
    if not lo < left:
        left = (lo + s) / 2
    if not right < hi:
        right = (s + hi) / 2
    return (left, right) if lo < left < right < hi else None


def _raw_value(v: Scalar, bits: int) -> tuple:
    """A value of f as a raw mpf at bits, as PrecisionReal(v, bits) holds it."""
    if type(v) is PrecisionReal and v.precision_bits <= bits:
        return v.raw
    return PrecisionReal(v, bits).raw


def _sign(raw: tuple, t: PrecisionReal) -> int:
    """The sign of f's raw value at t; InvalidPoint where it is NaN."""
    if raw == fnan:
        raise InvalidPoint(f"f is NaN at {t!r}")
    return mpf_sign(raw)


def find_root(
    f: Callable[[PrecisionReal], Scalar],
    lo: PrecisionReal,
    hi: PrecisionReal,
    tol: Optional[Scalar] = None,
    seed: Optional[float] = None,
) -> PrecisionReal:
    """Shrink the bracket [lo, hi] until its width is below tol (relative)
    and return its midpoint.

    A seed (a float estimate of the root, from ``float_root`` on the same
    formula, or None) only chooses the first two points: seed (1 -+ 2^-44),
    a point beyond an end moved halfway from seed to that end, so both lie
    strictly inside the bracket.  Where f changes sign between them they
    are the bracket, and f is never evaluated at lo or hi.  Otherwise f is
    evaluated at lo and hi as without a seed, and the bracket is the part
    the two points leave with the sign change.

    Each step tries a secant step from the latest point taken, always an end
    of the bracket (at first the end where |f| is smaller), with the slope
    through the point taken before it (at first the other end).  The step is
    taken when it lands strictly inside the bracket and is at most half the
    step before last; otherwise the step bisects.  A step shorter than half
    the target width, even one that rounds to nothing, becomes a probe that
    far past the estimate, on the far side, so a sign change there closes
    the bracket around it; a probe must lie strictly inside the bracket,
    and one without a sign change is followed by a bisection.  Every point
    taken updates the bracket by the sign of f, so the seed and the slopes
    only choose the points: a poor seed or slope costs evaluations, never
    the certificate.  The result is the midpoint of a bracket whose two
    ends f was evaluated at, with opposite signs, or a point where f is 0.

    Everything runs at the bracket's precision, the larger of lo's and
    hi's: tol and each value of f are taken at it as PrecisionReal(v, bits)
    takes them, so one that carries more bits is rounded to it first.  The
    loop runs on raw libmp values, each rounded as the PrecisionReal
    operator would round it, and hands f a PrecisionReal at that precision.

    tol None is at_precision(DEFAULT_TOL, bits) at the bracket's precision.
    Deterministic; never leaves the bracket.  Raises InvalidBracket unless
    lo < hi and the endpoint signs of f differ (not checked where the seed's
    points bracket a root), InvalidPoint where f is NaN at a point,
    NoConvergence when the working precision is exhausted before reaching
    the width target.
    """
    if not lo < hi:
        raise InvalidBracket("bracket requires lo < hi")
    bits = max(lo.precision_bits, hi.precision_bits)
    tol = at_precision(DEFAULT_TOL, bits) if tol is None else PrecisionReal(tol, bits)
    if tol.sign() <= 0:
        raise ValueError("tol must be positive")

    ends = None
    pair = None if seed is None else _seed_points(seed, lo, hi)
    if pair is not None:
        t1, t2 = pair
        f1, f2 = _raw_value(f(t1), bits), _raw_value(f(t2), bits)
        s1, s2 = _sign(f1, t1), _sign(f2, t2)
        if s1 == 0:
            return t1
        if s2 == 0:
            return t2
        if s1 != s2:  # the seed's points bracket a root
            ends = t1.raw, f1, t2.raw, f2
    if ends is None:
        f_lo, f_hi = _raw_value(f(lo), bits), _raw_value(f(hi), bits)
        s_lo, s_hi = _sign(f_lo, lo), _sign(f_hi, hi)
        if s_lo == 0:
            return lo
        if s_hi == 0:
            return hi
        if s_lo == s_hi:
            raise InvalidBracket("f has the same sign at both endpoints")
        ends = lo.raw, f_lo, hi.raw, f_hi
        if pair is not None:  # both of the seed's points lie on one side of the root
            ends = (t2.raw, f2, hi.raw, f_hi) if s1 == s_lo else (lo.raw, f_lo, t1.raw, f1)
    lo, f_lo, hi, f_hi = ends
    s_lo = mpf_sign(f_lo)
    tol = tol.raw

    # raw mpfs from here on, every rounding at bits; halving and doubling
    # are exact shifts.  (x, fx) is the latest point taken, (w, fw) the one
    # before it
    x, fx, w, fw = lo, f_lo, hi, f_hi
    if mpf_cmp(mpf_abs(f_lo), mpf_abs(f_hi)) > 0:
        x, fx, w, fw = hi, f_hi, lo, f_lo
    probed = False  # the last point taken was a closing probe
    last = before = mpf_shift(mpf_sub(hi, lo, bits, RND), 1)  # the last two step lengths
    for _ in range(4 * bits + 128):
        mid = mpf_shift(mpf_add(lo, hi, bits, RND), -1)
        if mpf_cmp(mpf_sub(hi, lo, bits, RND), _width(lo, hi, tol, bits)) <= 0:
            return PrecisionReal._make(mid, bits)
        if mpf_cmp(lo, mid) >= 0 or mpf_cmp(mid, hi) >= 0:
            raise NoConvergence(
                "bisection stalled before reaching tol; increase precision_bits"
            )
        t = mid
        if probed or fx == fw:  # raw mpfs are equal exactly when their tuples are
            probed = False
        else:
            num = mpf_mul(fx, mpf_sub(x, w, bits, RND), bits, RND)
            step = mpf_div(num, mpf_sub(fx, fw, bits, RND), bits, RND)
            est = mpf_sub(x, step, bits, RND)
            if step not in (finf, fninf, fnan):
                half = mpf_shift(_width(est, est, tol, bits), -1)
                length = mpf_abs(step)
                if mpf_cmp(length, half) < 0:
                    probe = (mpf_sub if mpf_sign(step) > 0 else mpf_add)(est, half, bits, RND)
                    if mpf_cmp(lo, probe) < 0 and mpf_cmp(probe, hi) < 0:
                        t, probed = probe, True
                elif (
                    mpf_cmp(lo, est) < 0
                    and mpf_cmp(est, hi) < 0
                    and mpf_cmp(length, mpf_shift(before, -1)) <= 0
                ):
                    t = est
        point = PrecisionReal._make(t, bits)
        f_t = _raw_value(f(point), bits)
        s_t = _sign(f_t, point)
        if s_t == 0:
            return point
        if s_t == s_lo:
            lo = t
        else:
            hi = t
        before, last = last, mpf_abs(mpf_sub(t, x, bits, RND))
        w, fw, x, fx = x, fx, t, f_t
    raise NoConvergence("iteration budget exhausted")


def scan_brackets(
    f: Callable[[PrecisionReal], Scalar],
    lo: Scalar,
    hi: Scalar,
    steps: int,
) -> List[Tuple[PrecisionReal, PrecisionReal]]:
    """All sign-change subintervals (lo, hi) of a uniform grid, in increasing
    order.

    f is evaluated once at each grid point, from left to right.  Points
    where f raises InvalidPoint, returns None, or returns NaN are invalid;
    subintervals touching them are skipped, as are exact zeros.
    """
    lo = _as_real(lo)
    hi = _as_real(hi)
    if not lo < hi:
        raise ValueError("scan requires lo < hi")
    if steps < 2:
        raise ValueError("steps must be >= 2")
    bits = max(lo.precision_bits, hi.precision_bits)
    span = hi - lo
    xs = [lo + span * PrecisionReal(i, bits) / steps for i in range(steps)] + [hi]
    signs: List[Optional[int]] = []
    for x in xs:
        try:
            v = f(x)
        except InvalidPoint:
            v = None
        if v is not None:
            v = _as_real(v, bits)
        signs.append(None if v is None or v.is_nan else v.sign())

    found = []
    for i in range(steps):
        a, b = signs[i], signs[i + 1]
        if a is None or b is None or a == b:
            continue
        # a grid point that is itself a root starts a bracket whose
        # refinement returns it, unless the previous cell already certified it
        if a == 0 and i > 0 and signs[i - 1] not in (None, 0):
            continue
        found.append((xs[i], xs[i + 1]))
    return found
