"""Target points, integer approximation vectors, and minimal-point records."""

from __future__ import annotations

from itertools import groupby, product
from operator import attrgetter
from typing import Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from mpmath.libmp import from_man_exp, mpf_cmp

from ..numerics import DEFAULT_PRECISION_BITS, RND, PrecisionReal, Scalar, _positive_bits, log

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


class _TargetFields(NamedTuple):
    n: int
    coords: Tuple[PrecisionReal, ...]
    source: str
    precision_bits: int


class TargetPoint(_TargetFields):
    """The point being approximated: n coordinates at a fixed precision.

    Whether the coordinates are rationally independent together with 1 is the
    caller's assertion; it cannot be verified from finite precision.
    """

    __slots__ = ()

    def __new__(cls, n: int, coords: Tuple[PrecisionReal, ...], source: str, precision_bits: int):
        if not all(c.is_finite for c in coords):
            raise ValueError(f"the coordinates of {source} must be finite")
        return super().__new__(cls, n, coords, source, precision_bits)

    @classmethod
    def _make(cls, iterable) -> "TargetPoint":
        return cls(*iterable)  # so _replace checks the coordinates too

    @classmethod
    def veronese(
        cls,
        xi: Scalar,
        n: int,
        precision_bits: Optional[int] = None,
        label: Optional[str] = None,
    ) -> "TargetPoint":
        """(xi, xi^2, ..., xi^n), each power recomputed at the working precision."""
        bits = DEFAULT_PRECISION_BITS if precision_bits is None else _positive_bits(precision_bits)
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
        bits = DEFAULT_PRECISION_BITS if precision_bits is None else _positive_bits(precision_bits)
        vals = tuple(PrecisionReal(c, bits) for c in coords)
        if not vals:
            raise ValueError("at least one coordinate required")
        return cls(n=len(vals), coords=vals, source="explicit", precision_bits=bits)

    def scaled(self) -> Tuple[Tuple[int, ...], int]:
        """(X, E) with xi_i = X_i / 2^E exactly for every coordinate, E >= 0.

        The coordinates are p-bit binary floats, so over a common exponent
        each approximation error x xi_i - y_i = (x X_i - y_i 2^E) / 2^E has an
        exact integer numerator."""
        raws = [c.raw for c in self.coords]
        E = max(0, *(-exp for _, _, exp, _ in raws))
        return tuple((-man if sign else man) << (exp + E) for sign, man, exp, _ in raws), E


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
        self.y = tuple(map(int, y))
        self.Y = Y
        self.precision_bits = precision_bits
        self._log_x = log_x
        self._log_Y = log_Y

    @classmethod
    def from_target(cls, target: TargetPoint, x: int, y: Sequence[int]) -> "ApproxVector":
        """Compute Y = max_i |x xi_i - y_i|, exact up to one rounding to the
        target's precision; ValueError unless y has one entry per coordinate."""
        if len(y) != target.n:
            raise ValueError(f"y has {len(y)} entries for a target of dimension {target.n}")
        X, E = target.scaled()
        D = max(abs(int(x) * Xi - (int(yi) << E)) for Xi, yi in zip(X, y))
        return _error_vector(x, y, D, E, target.precision_bits)

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


class MinimalPointSequence(tuple):
    """Strictly-improving record subsequence: x increasing, Y decreasing; a
    tuple of its records."""

    __slots__ = ()

    def __new__(cls, points: Iterable[ApproxVector]):
        return super().__new__(cls, points)

    @property
    def points(self) -> Tuple[ApproxVector, ...]:
        return self

    def __repr__(self) -> str:
        return f"MinimalPointSequence(points={tuple.__repr__(self)})"


def _error_vector(x: int, y: Sequence[int], D: int, E: int, p: int) -> ApproxVector:
    """The vector (x, y) whose error is D / 2^E, rounded once to p bits.
    Raises RationalDependence if D is zero."""
    if D == 0:
        raise RationalDependence(f"zero approximation error at {(x, *y)}")
    return ApproxVector(x, y, PrecisionReal._make(from_man_exp(D, -E, p, RND), p), p)


def _box(X: Sequence[int], E: int, widen: int, x: int) -> tuple:
    """Box x >= 1 of the pool, the +-widen box around the nearest-integer
    vector at x (ties to even), as (Ds, size, entries).  Ds are that
    vector's error numerators D_i = x X_i - y_i 2^E, |D_i| <= 2^(E-1);
    the box's smallest numerator is max |D_i|, because
    |D_i| <= 2^(E-1) <= |D_i - o 2^E| for every offset o != 0.  entries()
    lists its (y, D) pairs in y order, with (1, 0, ..., 0) merged into the
    x = 1 box when it lies outside it.  Costs one divmod per coordinate
    until it is listed.
    """
    one = 1 << E
    half = one >> 1  # D > half is 2 D > one, also when E = 0
    steps = range(-widen, widen + 1)
    bases, Ds = [], []
    for Xi in X:
        # D = x X_i - base 2^E; the offset o moves it by -o 2^E
        base, D = divmod(x * Xi, one)
        if D > half or (2 * D == one and base & 1):
            base, D = base + 1, D - one
        bases.append(base)
        Ds.append(D)

    def entries() -> Iterator[tuple]:
        # y = bases + o, o in steps^n; x xi_i - y_i has numerator D_i - o_i 2^E
        return zip(
            product(*([b + o for o in steps] for b in bases)),
            map(max, product(*([abs(D - (o << E)) for o in steps] for D in Ds))),
        )

    size = len(steps) ** len(X)
    if x == 1 and max(map(abs, bases)) > widen:  # (1, 0, ..., 0) is outside the box
        return Ds, size + 1, sorted([*entries(), ((0,) * len(X), max(map(abs, X)))]).__iter__
    return Ds, size, entries


def _pool_boxes(target: TargetPoint, x_max: int, widen: int) -> Iterator[tuple]:
    """The candidate pool as boxes (x, Ds, size, entries) in (x, y) order:
    each unit-type vector (0, e_i), then `_box` x for x = 1, ..., x_max.
    entries() lists the (y, D) pairs in y order, the errors being D / 2^E
    (`TargetPoint.scaled`); like a `groupby` group it is valid only until
    the next box is drawn.
    """
    if x_max < 1:
        raise ValueError("x_max must be >= 1")
    if widen < 0:
        raise ValueError("widen must be >= 0")
    n = target.n
    X, E = target.scaled()
    one = 1 << E
    for i in reversed(range(n)):
        yield 0, [one], 1, [(tuple(int(j == i) for j in range(n)), one)].__iter__
    for x in range(1, x_max + 1):
        yield (x, *_box(X, E, widen, x))


def enumerate_candidates(target: TargetPoint, x_max: int, widen: int = 0) -> List[ApproxVector]:
    """Candidate pool: per x the nearest-integer vector plus a +-widen box
    around it, together with the n+1 unit-type support vectors; deduplicated
    and ordered by (x, y) (see `_pool_boxes`).

    Every error is an exact integer over 2^E (see `TargetPoint.scaled`),
    rounded once to the working precision.  Raises RationalDependence as
    soon as any error is exactly zero.
    """
    p, E = target.precision_bits, target.scaled()[1]
    boxes = _pool_boxes(target, x_max, widen)
    return [_error_vector(x, y, D, E, p) for x, _, _, entries in boxes for y, D in entries()]


def minimal_points(candidates: Iterable[ApproxVector]) -> MinimalPointSequence:
    """Record subsequence over the pool: scan by increasing x, keep strict
    improvements of the running minimum of Y.  Ties in x prefer smaller Y,
    then lexicographically smaller y."""
    pool = sorted((v for v in candidates if v.x >= 1), key=attrgetter("x", "y"))
    if not pool:
        raise InsufficientData("no candidates with positive x")
    records: List[ApproxVector] = []
    for _, group in groupby(pool, key=attrgetter("x")):
        low = next(group)
        for v in group:
            if mpf_cmp(v.Y.raw, low.Y.raw) < 0:
                low = v
        if not records or mpf_cmp(low.Y.raw, records[-1].Y.raw) < 0:
            records.append(low)
    return MinimalPointSequence(tuple(records))
