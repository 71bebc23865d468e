"""Target points, integer approximation vectors, and minimal-point records."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterable, List, Optional, Sequence, Tuple

from mpmath.libmp import (
    from_int,
    fzero,
    mpf_abs,
    mpf_cmp,
    mpf_mul,
    mpf_sub,
    to_int,
)

from ..numerics import DEFAULT_PRECISION_BITS, RND, PrecisionReal, Scalar, log

__all__ = [
    "PgnError",
    "RationalDependence",
    "InsufficientRank",
    "InsufficientData",
    "TargetPoint",
    "ApproxVector",
    "MinimalPointSequence",
    "enumerate_candidates",
    "minimal_points",
]


class PgnError(Exception):
    """Base class for simulator failures."""


class RationalDependence(PgnError):
    """An approximation error computed to exactly zero: the target fails the
    independence hypothesis at the working precision."""


class InsufficientRank(PgnError):
    """Fewer independent candidates than successive minima requested."""


class InsufficientData(PgnError):
    """Not enough points in the analysis window."""


@dataclass(frozen=True)
class TargetPoint:
    """The point being approximated: n coordinates at a fixed precision.

    Whether the coordinates are rationally independent together with 1 is the
    caller's assertion; it cannot be verified from finite precision.
    """

    n: int
    coords: Tuple[PrecisionReal, ...]
    source: str
    precision_bits: int

    @classmethod
    def veronese(
        cls,
        xi: Scalar,
        n: int,
        precision_bits: Optional[int] = None,
        label: Optional[str] = None,
    ) -> "TargetPoint":
        """(xi, xi^2, ..., xi^n), each power recomputed at the working precision."""
        bits = precision_bits or DEFAULT_PRECISION_BITS
        if n < 1:
            raise ValueError("n must be positive")
        base = PrecisionReal(xi, bits)
        shown = label if label is not None else f"{float(base):.12g}"
        coords = [base]
        for _ in range(n - 1):
            coords.append(coords[-1] * base)
        return cls(n=n, coords=tuple(coords), source=f"veronese({shown})", precision_bits=bits)

    @classmethod
    def explicit(cls, coords: Sequence[Scalar], precision_bits: Optional[int] = None) -> "TargetPoint":
        bits = precision_bits or DEFAULT_PRECISION_BITS
        vals = tuple(PrecisionReal(c, bits) for c in coords)
        if not vals:
            raise ValueError("at least one coordinate required")
        return cls(n=len(vals), coords=vals, source="explicit", precision_bits=bits)


class ApproxVector:
    """Integer vector (x, y_1..y_n) with its approximation error Y.

    x = 0 is allowed only for the unit-type support vectors (log_x = -inf).
    The log fields are lazy; synthetic test data may inject them directly.
    """

    __slots__ = ("x", "y", "Y", "precision_bits", "_log_x", "_log_Y")

    def __init__(
        self,
        x: int,
        y: Sequence[int],
        Y: PrecisionReal,
        precision_bits: int,
        log_x: Optional[PrecisionReal] = None,
        log_Y: Optional[PrecisionReal] = None,
    ):
        self.x = int(x)
        self.y = tuple(int(v) for v in y)
        self.Y = Y
        self.precision_bits = precision_bits
        self._log_x = log_x
        self._log_Y = log_Y

    @classmethod
    def from_target(cls, target: TargetPoint, x: int, y: Sequence[int]) -> "ApproxVector":
        """Compute Y = max_i |x xi_i - y_i| at the target's precision."""
        p = target.precision_bits
        xr = from_int(int(x))
        best = None
        for c, yi in zip(target.coords, y):
            comp = mpf_abs(mpf_sub(mpf_mul(xr, c.raw, p, RND), from_int(int(yi)), p, RND))
            if best is None or mpf_cmp(comp, best) > 0:
                best = comp
        v = cls(x, y, PrecisionReal._make(best, p), p)
        if v.Y.raw == fzero:
            raise RationalDependence(f"zero approximation error at {v.ints()}")
        return v

    def ints(self) -> Tuple[int, ...]:
        """The full integer vector (x, y_1, ..., y_n)."""
        return (self.x, *self.y)

    @property
    def log_x(self) -> PrecisionReal:
        if self._log_x is None:
            if self.x == 0:
                self._log_x = PrecisionReal(float("-inf"), self.precision_bits)
            else:
                self._log_x = log(PrecisionReal(self.x, self.precision_bits))
        return self._log_x

    @property
    def log_Y(self) -> PrecisionReal:
        if self._log_Y is None:
            self._log_Y = log(self.Y)
        return self._log_Y

    def __repr__(self) -> str:
        return f"ApproxVector(x={self.x}, y={self.y}, Y={float(self.Y):.6g})"


@dataclass(frozen=True)
class MinimalPointSequence:
    """Strictly-improving record subsequence: x increasing, Y decreasing."""

    points: Tuple[ApproxVector, ...]

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __getitem__(self, i):
        return self.points[i]


def enumerate_candidates(target: TargetPoint, x_max: int, widen: int = 0) -> List[ApproxVector]:
    """Candidate pool: per x the nearest-integer vector plus a +-widen box
    around it, together with the n+1 unit-type support vectors; deduplicated
    and ordered by (x, y).

    Raises RationalDependence as soon as any error computes to exactly zero.
    """
    if x_max < 1:
        raise ValueError("x_max must be >= 1")
    if widen < 0:
        raise ValueError("widen must be >= 0")
    n, p = target.n, target.precision_bits
    xi_raw = [c.raw for c in target.coords]
    offsets = list(product(range(-widen, widen + 1), repeat=n))

    out: List[ApproxVector] = []
    seen = set()

    def push(x: int, y: Tuple[int, ...], y_raw) -> None:
        key = (x, y)
        if key in seen:
            return
        seen.add(key)
        if y_raw == fzero:
            raise RationalDependence(f"zero approximation error at {(x, *y)}")
        out.append(ApproxVector(x, y, PrecisionReal._make(y_raw, p), p))

    # unit-type support vectors: (1, 0, ..., 0) and (0, e_i)
    first_err = None
    for c in xi_raw:
        a = mpf_abs(c)
        if first_err is None or mpf_cmp(a, first_err) > 0:
            first_err = a
    push(1, (0,) * n, first_err)
    one_raw = from_int(1)
    for i in range(n):
        e_i = tuple(1 if j == i else 0 for j in range(n))
        push(0, e_i, one_raw)

    for x in range(1, x_max + 1):
        xr = from_int(x)
        prods = [mpf_mul(xr, c, p, RND) for c in xi_raw]
        base = [int(to_int(pr, RND)) for pr in prods]
        diffs = [mpf_sub(pr, from_int(b), p, RND) for pr, b in zip(prods, base)]
        for off in offsets:
            y = tuple(b + o for b, o in zip(base, off))
            worst = None
            for d, o in zip(diffs, off):
                comp = mpf_abs(mpf_sub(d, from_int(o), p, RND) if o else d)
                if worst is None or mpf_cmp(comp, worst) > 0:
                    worst = comp
            push(x, y, worst)

    out.sort(key=lambda v: (v.x, v.y))
    return out


def minimal_points(candidates: Iterable[ApproxVector]) -> MinimalPointSequence:
    """Record subsequence over the pool: scan by increasing x, keep strict
    improvements of the running minimum of Y.  Ties in x prefer smaller Y,
    then lexicographically smaller y."""
    pool = [v for v in candidates if v.x >= 1]
    if not pool:
        raise InsufficientData("no candidates with positive x")
    pool.sort(key=lambda v: (v.x, v.Y, v.y))
    records: List[ApproxVector] = []
    best: Optional[PrecisionReal] = None
    for v in pool:
        if best is None or v.Y < best:
            records.append(v)
            best = v.Y
    return MinimalPointSequence(tuple(records))
