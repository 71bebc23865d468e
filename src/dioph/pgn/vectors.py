"""Target points, integer approximation vectors, the candidate pool, and
minimal-point records.  `enumerate_candidates` lists the pool box by box
(`_box`); `undominated_candidates` walks the same boxes, keeps what the
pruning rule (`_Frontier`) keeps and jumps over the boxes it would skip
(`_next_near`)."""

from __future__ import annotations

from itertools import groupby, product
from math import inf
from operator import attrgetter
from typing import Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from mpmath.libmp import from_man_exp, mpf_cmp

from ..numerics import DEFAULT_PRECISION_BITS, RND, PrecisionReal, Scalar, _positive_bits, log
from .intrank import IntBasis

__all__ = [
    "PgnError",
    "RationalDependence",
    "InsufficientRank",
    "InsufficientData",
    "TargetPoint",
    "ApproxVector",
    "MinimalPointSequence",
    "enumerate_candidates",
    "undominated_candidates",
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


def _units(target: TargetPoint, x_max: int, widen: int) -> List[ApproxVector]:
    """The unit-type vectors (0, e_i) in y order, which open the pool, each
    with error 1; rejects an x_max or widen that no pool has."""
    if x_max < 1:
        raise ValueError("x_max must be >= 1")
    if widen < 0:
        raise ValueError("widen must be >= 0")
    n, E = target.n, target.scaled()[1]
    e = [tuple(int(j == i) for j in range(n)) for i in reversed(range(n))]
    return [_error_vector(0, y, 1 << E, E, target.precision_bits) for y in e]


def enumerate_candidates(target: TargetPoint, x_max: int, widen: int = 0) -> List[ApproxVector]:
    """Candidate pool: the n unit-type support vectors, then per x = 1, ...,
    x_max the nearest-integer vector plus a +-widen box around it (`_box`),
    with (1, 0, ..., 0) merged into the x = 1 box; ordered by (x, y).

    Every error is an exact integer over 2^E (see `TargetPoint.scaled`),
    rounded once to the working precision.  Raises RationalDependence as
    soon as any error is exactly zero.
    """
    pool = _units(target, x_max, widen)
    p, (X, E) = target.precision_bits, target.scaled()
    for x in range(1, x_max + 1):
        pool += [_error_vector(x, y, D, E, p) for y, D in _box(X, E, widen, x)[2]()]
    return pool


class _Frontier:
    """The pruning rule: the least-Y basis of the vectors offered so far,
    at most n + 1 independent vectors chosen greedily by Y, and a vector
    is kept iff it joins that basis (proved at `_undominated`)."""

    def __init__(self, n: int):
        self.n = n
        self.basis: List[ApproxVector] = []  # increasing Y

    @property
    def ceiling(self) -> Optional[tuple]:
        """The raw largest basis Y once the basis has n + 1 members."""
        return self.basis[-1].Y.raw if len(self.basis) == self.n + 1 else None

    def offer(self, v: ApproxVector) -> bool:
        """Rebuild the basis with v and return whether v joined it; a full
        basis spans every vector, so v joins it only below its largest Y."""
        top = self.ceiling
        if top is not None and mpf_cmp(v.Y.raw, top) >= 0:
            return False
        ints = IntBasis(self.n + 1)
        by_Y = sorted(self.basis + [v], key=attrgetter("Y"))
        self.basis = [u for u in by_Y if ints.try_add(u.ints())]
        return v in self.basis  # by identity


def _undominated(pool: Sequence[ApproxVector], n: int) -> List[int]:
    """Indices of the pool vectors that the profile's greedy selection can choose.

    One scan in (x, y, index) order offers each vector to a `_Frontier`.
    It drops v, leaving the basis as it was, iff v lies in the span of the
    basis members with Y no larger, which span every earlier vector with
    Y that small.  When log x and log Y are nondecreasing in x and Y,
    those have L no larger at every q and precede v in the greedy's
    (L, x, y, index) order, so the matroid greedy (Edmonds 1971) spans
    them before it reaches v.  On the vectors it keeps, the scan keeps all.
    """
    frontier = _Frontier(n)
    order = sorted(range(len(pool)), key=lambda i: (pool[i].x, pool[i].y, i))
    kept = [i for i in order if frontier.offer(pool[i])]
    if frontier.ceiling is None:
        raise InsufficientRank(f"pool spans rank {len(frontier.basis)} < {n + 1}")
    return kept


def _next_near(Xi: int, E: int, bound: int, x: int) -> int:
    """The least x' > x with |x' X_i - y 2^E| < bound for some integer y,
    for 1 <= bound <= 2^(E-1); one exists, as every multiple of 2^E has
    error 0.

    With m = 2^E, a = X_i mod m and x' = x + 1 + t, that is the least
    t >= 0 with a t mod m in a window [lo, hi] of 2 bound - 1 residues.
    Unless a multiple of a lies in it, write a t = m s + u with u in the
    window: the least s has m s mod a in [-hi mod a, -lo mod a], the same
    problem on (m mod a, a), and t = ceil((lo + m s) / a).  The moduli
    fall as in Euclid's algorithm and the window keeps its width, so the
    descent stops once a modulus is no wider than the window.  Each
    problem has a solution, so an a that divides m has a multiple in the
    window, and no modulus reached is 0.
    """
    m = 1 << E
    a = Xi % m
    lo = -(a * (x + 1) + bound - 1) % m
    hi = lo + 2 * bound - 2
    t = 0
    levels = []
    while lo and hi < m:  # 0 is not in the window
        t = -(-lo // a)
        if a * t <= hi:
            break
        levels.append((a, m, lo))
        a, m, lo, hi = m % a, a, -hi % a, -lo % a
    for a, m, lo in reversed(levels):
        t = -(-(lo + m * t) // a)
    return x + 1 + t


def undominated_candidates(
    target: TargetPoint, x_max: int, widen: int = 0
) -> Tuple[List[ApproxVector], int]:
    """(kept, size): the vectors of ``enumerate_candidates(target, x_max,
    widen)`` that `_undominated` keeps, in (x, y) order, and the size of
    that pool, which is never built.

    The unit-type vectors and then the boxes x = 1, 2, ... are offered to
    a `_Frontier` in the pool's order, and the boxes' exact error
    numerators D over 2^E become vectors only where the frontier may keep
    them.  Every Y is an integer over 2^E rounded to p bits, so it is
    itself an integer over 2^E; an error at or above a full basis's
    largest Y rounds (monotonely) to a Y at least as large, so it is
    dropped, and a box whose smallest numerator is that large is skipped
    whole.  Every other error is rounded once and offered like any pool
    vector, so ties fall as in `_undominated`; the records of the pool are
    all kept, since no earlier vector has a Y as small.  Raises
    RationalDependence at the pool's first zero error.

    Once that bound B is at most 2^(E-1), a box x with a coordinate at
    |D_i| >= B is followed by box `_next_near`(X_i, E, B, x): every box
    between has |D_i| >= B too, so it would be skipped, and B cannot fall
    before a box is listed.  A zero error has every |D_i| = 0 < B, so it
    is never jumped over.
    """
    p, n, (X, E) = target.precision_bits, target.n, target.scaled()
    half = (1 << E) >> 1
    per = (2 * widen + 1) ** n
    size = n + x_max * per
    frontier = _Frontier(n)
    kept = [v for v in _units(target, x_max, widen) if frontier.offer(v)]
    bound = inf  # the largest basis Y times 2^E once the basis is full
    x = 1
    while x <= x_max:
        Ds, count, entries = _box(X, E, widen, x)
        size += count - per  # one more at x = 1 if (1, 0, ..., 0) is merged
        if max(map(abs, Ds)) < bound:
            for y, D in entries():
                if D >= bound:
                    continue
                v = _error_vector(x, y, D, E, p)
                if frontier.offer(v):
                    kept.append(v)
                    if frontier.ceiling is not None:
                        _, man, exp, _ = frontier.ceiling
                        bound = man << (exp + E)
        # a far coordinate has a window to jump to once B <= 2^(E-1)
        far = next((i for i, D in enumerate(Ds) if bound <= half and abs(D) >= bound), None)
        x = x + 1 if far is None else _next_near(X[far], E, bound, x)
    return kept, size


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
