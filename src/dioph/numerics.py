"""Arbitrary-precision real scalars and sign-certified bracketed root finding.

Every other module computes with :class:`PrecisionReal`, a thin wrapper over
mpmath's low-level ``libmp`` layer.  Each value carries its own working
precision and all operations round explicitly at the larger of the two
operand precisions, so nothing here touches mpmath's global context (safe
for concurrent use).
"""

from __future__ import annotations

import decimal
from dataclasses import dataclass
from typing import Callable, List, Optional, Union

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
    "Bracket",
    "NumericsError",
    "InvalidBracket",
    "NoConvergence",
    "InvalidPoint",
    "at_precision",
    "find_root",
    "scan_brackets",
    "exp",
    "log",
    "sqrt",
    "pi_value",
    "e_value",
    "sqrt2_value",
    "golden_value",
    "liouville_value",
    "format_real",
]

RND = round_nearest

DEFAULT_PRECISION_BITS = 256
DEFAULT_TOL = "1e-30"


class NumericsError(Exception):
    """Base class for numeric-layer failures."""


class InvalidBracket(NumericsError):
    """The endpoint signs of a bracket agree; no root is certified."""


class NoConvergence(NumericsError):
    """The width target is unreachable at the working precision."""


class InvalidPoint(NumericsError):
    """Raised by callables to flag points outside their valid domain."""


Scalar = Union["PrecisionReal", int, float, str]


class PrecisionReal:
    """Real scalar carrying an explicit working mantissa precision in bits.

    Arithmetic between two values is rounded at the maximum of the two
    precisions; comparisons are always exact.
    """

    __slots__ = ("raw", "precision_bits")

    def __init__(self, value: Scalar, precision_bits: Optional[int] = None):
        bits = DEFAULT_PRECISION_BITS if precision_bits is None else int(precision_bits)
        if bits < 1:
            raise ValueError("precision_bits must be a positive integer")
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
        elif isinstance(value, tuple) and len(value) == 4:
            raw = value
        else:
            mpf_attr = getattr(value, "_mpf_", None)
            if mpf_attr is None:
                raise TypeError(f"cannot convert {type(value).__name__} to PrecisionReal")
            raw = mpf_add(mpf_attr, fzero, bits, RND)  # honor the requested precision
        object.__setattr__(self, "raw", raw)
        object.__setattr__(self, "precision_bits", bits)

    def __setattr__(self, name, value):
        raise AttributeError("PrecisionReal is immutable")

    @classmethod
    def _make(cls, raw: tuple, bits: int) -> "PrecisionReal":
        obj = object.__new__(cls)
        object.__setattr__(obj, "raw", raw)
        object.__setattr__(obj, "precision_bits", bits)
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

    def _coerce(self, other: Scalar) -> Optional["PrecisionReal"]:
        if isinstance(other, PrecisionReal):
            return other
        if isinstance(other, (int, float, str)):
            return PrecisionReal(other, self.precision_bits)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        p = max(self.precision_bits, o.precision_bits)
        return PrecisionReal._make(mpf_add(self.raw, o.raw, p, RND), p)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        p = max(self.precision_bits, o.precision_bits)
        return PrecisionReal._make(mpf_sub(self.raw, o.raw, p, RND), p)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        p = max(self.precision_bits, o.precision_bits)
        return PrecisionReal._make(mpf_sub(o.raw, self.raw, p, RND), p)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        p = max(self.precision_bits, o.precision_bits)
        return PrecisionReal._make(mpf_mul(self.raw, o.raw, p, RND), p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        p = max(self.precision_bits, o.precision_bits)
        return PrecisionReal._make(mpf_div(self.raw, o.raw, p, RND), p)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        p = max(self.precision_bits, o.precision_bits)
        return PrecisionReal._make(mpf_div(o.raw, self.raw, p, RND), p)

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
        o = self._coerce(other)
        if o is None:
            return None
        if self.raw == fnan or o.raw == fnan:
            raise ValueError("ordering comparison with NaN")
        return mpf_cmp(self.raw, o.raw)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.raw == fnan or o.raw == fnan:
            return False
        return mpf_cmp(self.raw, o.raw) == 0

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


def _as_real(x: Scalar, bits: Optional[int] = None) -> PrecisionReal:
    if isinstance(x, PrecisionReal):
        return x
    return PrecisionReal(x, bits)


def at_precision(stated: Scalar, bits: int) -> PrecisionReal:
    """The coarser of a stated tolerance and 2^(8 - bits), the finest width
    bisection and two roundings of one value meet at bits (2^-56 at 64 bits,
    2^-248 at 256 bits, where 1e-30 or 1e-20 is kept as stated)."""
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
    return PrecisionReal._make(mpf_pi(bits, RND), bits)


def e_value(bits: int = DEFAULT_PRECISION_BITS) -> PrecisionReal:
    return PrecisionReal._make(mpf_e(bits, RND), bits)


def sqrt2_value(bits: int = DEFAULT_PRECISION_BITS) -> PrecisionReal:
    return PrecisionReal._make(mpf_sqrt(from_int(2), bits, RND), bits)


def golden_value(bits: int = DEFAULT_PRECISION_BITS) -> PrecisionReal:
    """The golden ratio (1 + sqrt 5)/2."""
    s5 = mpf_sqrt(from_int(5), bits + 8, RND)
    v = mpf_div(mpf_add(fone, s5, bits + 8, RND), from_int(2), bits, RND)
    return PrecisionReal._make(v, bits)


def liouville_value(bits: int = DEFAULT_PRECISION_BITS, terms: int = 10) -> PrecisionReal:
    """Truncated Liouville-type constant sum(10^(-m!), m=1..terms).

    Terms below 2^-(bits+16) relative to the sum round away and are skipped.
    """
    digits_needed = int((bits + 16) * 0.30103) + 4
    fact, included = 1, []
    for m in range(1, terms + 1):
        fact *= m
        if fact > digits_needed:
            break
        included.append(fact)
    big = included[-1]
    num = sum(10 ** (big - f) for f in included)
    return PrecisionReal._make(from_rational(num, 10**big, bits, RND), bits)


# -- deterministic decimal formatting ---------------------------------------


def format_real(x: Scalar, significant: int = 12) -> str:
    """Format at an explicit number of significant digits, round-half-even."""
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
    with decimal.localcontext() as ctx:
        ctx.prec = significant + 20
        d = decimal.Decimal(int(man)) * (decimal.Decimal(2) ** expo)
        if sign:
            d = -d
        out = format(d, f".{significant}g")
    return out


# -- bracketed root finding --------------------------------------------------


@dataclass(frozen=True)
class Bracket:
    """A sign-certified interval: f has opposite signs at lo and hi."""

    lo: PrecisionReal
    hi: PrecisionReal
    f_lo_sign: int
    f_hi_sign: int

    def __post_init__(self):
        if not self.lo < self.hi:
            raise InvalidBracket("bracket requires lo < hi")
        if self.f_lo_sign not in (-1, 1) or self.f_hi_sign not in (-1, 1):
            raise InvalidBracket("endpoint signs must be -1 or +1")
        if self.f_lo_sign == self.f_hi_sign:
            raise InvalidBracket("endpoint signs agree; no root certified")


def _width_ok(lo: PrecisionReal, hi: PrecisionReal, tol: PrecisionReal) -> bool:
    width = hi - lo
    scale = max(abs(lo), abs(hi), PrecisionReal(1, tol.precision_bits))
    return width <= tol * scale


def find_root(
    f: Callable[[PrecisionReal], Scalar],
    bracket: Bracket,
    tol: Optional[Scalar] = None,
) -> PrecisionReal:
    """Bisect a certified bracket until its width is below tol (relative).

    tol None is at_precision(DEFAULT_TOL, bits) at the bracket's precision.
    Deterministic; never leaves the bracket.  Raises InvalidBracket when the
    endpoint signs of f agree, NoConvergence when the working precision is
    exhausted before reaching the width target.
    """
    lo, hi = bracket.lo, bracket.hi
    bits = max(lo.precision_bits, hi.precision_bits)
    tol = at_precision(DEFAULT_TOL, bits) if tol is None else _as_real(tol, bits)
    if tol.sign() <= 0:
        raise ValueError("tol must be positive")

    f_lo = _as_real(f(lo), bits)
    f_hi = _as_real(f(hi), bits)
    s_lo, s_hi = f_lo.sign(), f_hi.sign()
    if s_lo == 0:
        return lo
    if s_hi == 0:
        return hi
    if s_lo == s_hi:
        raise InvalidBracket("f has the same sign at both endpoints")

    max_iter = 4 * bits + 128
    for _ in range(max_iter):
        if _width_ok(lo, hi, tol):
            return (lo + hi) / 2
        mid = (lo + hi) / 2
        if not (lo < mid < hi):
            raise NoConvergence(
                "bisection stalled before reaching tol; increase precision_bits"
            )
        s_mid = _as_real(f(mid), bits).sign()
        if s_mid == 0:
            return mid
        if s_mid == s_lo:
            lo = mid
        else:
            hi = mid
    raise NoConvergence("iteration budget exhausted")


def scan_brackets(
    f: Callable[[PrecisionReal], Scalar],
    lo: Scalar,
    hi: Scalar,
    steps: int,
) -> List[Bracket]:
    """All sign-change subintervals of a uniform grid, in increasing order.

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
        if a is None or b is None or (a == 0 and b == 0):
            continue
        if a == 0:
            # grid point is itself a root; unless the previous cell already
            # certified it, emit a bracket whose refinement returns it
            if i > 0 and signs[i - 1] not in (None, 0):
                continue
            found.append(Bracket(xs[i], xs[i + 1], -b, b))
        elif b == 0:
            found.append(Bracket(xs[i], xs[i + 1], a, -a))
        elif a != b:
            found.append(Bracket(xs[i], xs[i + 1], a, b))
    return found
