"""Successive-minima profile functions over a candidate pool.

Each candidate induces the piecewise-linear function
L_x(q) = max(log x - q, log Y + q/n) with slopes -1 and 1/n; the j-th
profile value at q is the min-max over independent j-tuples, computed
exactly by greedy selection in increasing L order (linear independence is
a matroid, so the greedy selection realizes the min-max).  A vector with
n + 1 independent vectors at or below it in both x and Y is never chosen,
so the pool is pruned to the rest once; `undominated_candidates` streams
that pruning over a target's pool without building the pool.  At a fixed
q the vectors on their falling branch are in log x order and the others
in log Y order, so `profile` sweeps the grid upward and draws the L order
as a lazy merge of two lists sorted once, scoring only what it draws.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from heapq import heappop, heappush, merge
from itertools import groupby
from math import inf
from operator import attrgetter
from typing import Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from mpmath.libmp import mpf_cmp

from ..numerics import PrecisionReal, Scalar
from .intrank import IntBasis
from .vectors import (
    ApproxVector,
    InsufficientRank,
    MinimalPointSequence,
    TargetPoint,
    _box,
    _error_vector,
    _pool_boxes,
)

__all__ = [
    "ProfileSample",
    "vector_L",
    "vector_min_point",
    "crossing_q",
    "profile",
    "undominated_candidates",
    "minkowski_defect",
    "build_q_grid",
]


class ProfileSample(NamedTuple):
    """One parameter value with the n+1 profile values and their witnesses
    (indices into the candidate pool), L nondecreasing in the index."""

    q: PrecisionReal
    L: Tuple[PrecisionReal, ...]
    witnesses: Tuple[int, ...]


def vector_L(v: ApproxVector, q: Scalar, n: int) -> PrecisionReal:
    """max(log x - q, log Y + q/n) at the working precision."""
    qr = q if isinstance(q, PrecisionReal) else PrecisionReal(q, v.precision_bits)
    rise = v.log_Y + qr / n
    fall = v.log_x - qr
    return fall if fall > rise else rise


def vector_min_point(v: ApproxVector, n: int) -> Tuple[PrecisionReal, PrecisionReal]:
    """(q_v, L(q_v)) where the two branches of L_x meet: q_v is v's
    crossing with itself."""
    return crossing_q(v, v, n), (v.log_x + n * v.log_Y) / (n + 1)


def crossing_q(rising: ApproxVector, falling: ApproxVector, n: int) -> PrecisionReal:
    """Parameter where the rising branch of one vector meets the falling
    branch of another: n (log x_fall - log Y_rise) / (n+1)."""
    return n * (falling.log_x - rising.log_Y) / (n + 1)


class _Frontier:
    """The domination rule: the least-Y basis of the vectors offered so
    far, at most n + 1 independent vectors chosen greedily by Y."""

    def __init__(self, n: int):
        self.n = n
        self.basis: List[ApproxVector] = []  # increasing Y

    @property
    def ceiling(self) -> Optional[tuple]:
        """The raw largest basis Y once the basis has n + 1 members."""
        return self.basis[-1].Y.raw if len(self.basis) == self.n + 1 else None

    def offer(self, v: ApproxVector) -> bool:
        """Keep v unless the basis is full and v's Y is at least its
        largest Y; return whether v was kept."""
        top = self.ceiling
        if top is not None and mpf_cmp(v.Y.raw, top) >= 0:
            return False
        ints = IntBasis(self.n + 1)
        by_Y = sorted(self.basis + [v], key=attrgetter("Y"))
        self.basis = [u for u in by_Y if ints.try_add(u.ints())]
        return True


def _undominated(pool: Sequence[ApproxVector], n: int) -> List[int]:
    """Indices of the pool vectors that the greedy selection can choose.

    One scan in (x, y, index) order offers each vector to a `_Frontier`.
    A vector it skips has n + 1 independent vectors before it whose x and Y
    are no larger, so their L is no larger at every q, and they precede it
    in the greedy's (L, x, y, index) order.  The selection is therefore
    complete before it reaches a skipped vector.
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

    The boxes of `_pool_boxes` are offered to a `_Frontier` in the pool's
    order, and their exact error numerators D over 2^E become vectors only
    where the frontier may keep them.  Every Y is an integer over 2^E
    rounded to p bits, so it is itself an integer over 2^E; an error at or
    above the largest basis Y rounds (monotonely) to a Y at least as large,
    so it is dominated, and a box whose smallest numerator is that large is
    skipped whole.  Every other error is rounded once and offered like any
    pool vector, so ties fall as in `_undominated`; the records of the pool
    are all kept, since no earlier vector has a Y as small.  Raises
    RationalDependence at the pool's first zero error.

    Once that bound B is at most 2^(E-1), a box x with a coordinate at
    |D_i| >= B is followed by box `_next_near`(X_i, E, B, x): every box
    between has |D_i| >= B too, so it would be skipped, and B cannot fall
    before a box is listed.  A zero error has every |D_i| = 0 < B, so it
    is never jumped over.
    """
    p, n = target.precision_bits, target.n
    X, E = target.scaled()
    half = (1 << E) >> 1
    per = (2 * widen + 1) ** n
    size = n + x_max * per
    frontier = _Frontier(n)
    kept: List[ApproxVector] = []
    bound = inf  # the largest basis Y times 2^E once the basis is full
    boxes = _pool_boxes(target, x_max, widen)
    box = next(boxes)
    while box:
        x, Ds, count, entries = box
        if x == 1:
            size += count - per  # (1, 0, ..., 0) merged into the x = 1 box
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
        if bound > half:  # no window to jump to yet: walk every x
            box = next(boxes, None)
            continue
        far = next((i for i, D in enumerate(Ds) if abs(D) >= bound), None)
        x = x + 1 if far is None else _next_near(X[far], E, bound, x)
        box = x <= x_max and (x, *_box(X, E, widen, x))
    return kept, size


def _ascending(entries: Sequence[Tuple[PrecisionReal, int]], key) -> Iterator[Tuple[PrecisionReal, int]]:
    """(key(value), rank) for entries in (value, rank) order, key
    nondecreasing: ascending, a run of equal keys by rank; each key is
    computed as it is drawn."""
    for k, run in groupby(entries, lambda e: key(e[0])):
        for r in sorted(r for _, r in run):
            yield k, r


def profile(
    candidates: Sequence[ApproxVector],
    q_grid: Sequence[Scalar],
    n: int,
) -> List[ProfileSample]:
    """Exact min-max profile over the pool at each grid parameter.

    The vectors that some n + 1 independent earlier vectors dominate in x
    and Y are dropped once (`_undominated`); at every q the rest are
    selected greedily in (L, x, y, index) order, so witnesses index the
    caller's pool.  Dropping is exact when log_x and log_Y are
    nondecreasing in x and Y, as for every pool `enumerate_candidates` or
    `ApproxVector.from_target` builds; a pool of injected logs that breaks
    this must have at most n + 1 vectors, so that none is dropped.  The
    kept vectors of `undominated_candidates` give the values of their whole
    pool, because `_undominated` keeps every one of them.
    The result upper-bounds the true lattice profile when the pool is
    incomplete and is exact for the pool itself.

    The grid is swept upward.  The kept vectors start on a falling list in
    (log x, rank) order, rank being the (x, y, index) order, and each
    moves once to a rising list in (log Y, rank) order, at the first q at
    or above its q_v (`vector_min_point`).  At each q the lists are merged
    lazily on their branch values log x - q and log Y + q/n, a run of
    equal rounded values by rank, until n + 1 independent vectors are
    chosen; only drawn vectors are scored by `vector_L`.  A branch value
    is at most L; where rounding near q_v puts L on the other branch, the
    vector is held back until its L comes up, so the order is exact.
    """
    pool = list(candidates)
    kept = _undominated(pool, n)
    vecs = [pool[i] for i in kept]
    falling = sorted((v.log_x, r) for r, v in enumerate(vecs))
    rising: List[Tuple[PrecisionReal, int]] = []
    moves = sorted(((vector_min_point(v, n)[0], r) for r, v in enumerate(vecs)), reverse=True)

    samples: List[ProfileSample] = []
    prev: Optional[PrecisionReal] = None
    for q_in in q_grid:
        q = q_in if isinstance(q_in, PrecisionReal) else PrecisionReal(q_in, pool[0].precision_bits)
        if prev is not None and not q > prev:
            raise ValueError("q_grid must be strictly increasing")
        prev = q
        while moves and moves[-1][0] <= q:
            r = moves.pop()[1]
            del falling[bisect_left(falling, (vecs[r].log_x, r))]
            insort(rising, (vecs[r].log_Y, r))
        qn = q / n
        drawn = merge(_ascending(falling, lambda lx: lx - q), _ascending(rising, lambda ly: ly + qn))
        held: List[Tuple[PrecisionReal, int]] = []  # (L, rank) drawn below their L
        head = next(drawn, None)
        basis = IntBasis(n + 1)
        chosen: List[Tuple[PrecisionReal, int]] = []
        while len(chosen) < n + 1 and (head is not None or held):
            if held and (head is None or held[0] < head):
                L_val, r = heappop(held)
            else:
                value, r = head
                head = next(drawn, None)
                L_val = vector_L(vecs[r], q, n)
                if L_val != value:
                    heappush(held, (L_val, r))
                    continue
            if basis.try_add(vecs[r].ints()):
                chosen.append((L_val, kept[r]))
        samples.append(
            ProfileSample(
                q=q,
                L=tuple(c[0] for c in chosen),
                witnesses=tuple(c[1] for c in chosen),
            )
        )
    return samples


def minkowski_defect(samples: Iterable[ProfileSample]) -> PrecisionReal:
    """max over samples of |sum_j L_j(q)|, the second-theorem boundedness
    diagnostic; grows only if the pool misses relevant vectors."""
    worst: Optional[PrecisionReal] = None
    for s in samples:
        total = s.L[0]
        for v in s.L[1:]:
            total = total + v
        total = abs(total)
        if worst is None or total > worst:
            worst = total
    if worst is None:
        raise ValueError("empty profile")
    return worst


def build_q_grid(
    seq: MinimalPointSequence,
    n: int,
    q_max: Scalar,
    count: int = 200,
    q_min: Scalar = "0.5",
) -> List[PrecisionReal]:
    """Uniform grid on [q_min, q_max] joined with every record breakpoint
    (branch minima q_k and consecutive-record crossings r_k), so profile
    kinks are sampled exactly."""
    if count < 2:
        raise ValueError("count must be >= 2")
    bits = seq.points[0].precision_bits if len(seq) else None
    lo = q_min if isinstance(q_min, PrecisionReal) else PrecisionReal(q_min, bits)
    hi = q_max if isinstance(q_max, PrecisionReal) else PrecisionReal(q_max, bits)
    if not lo < hi:
        raise ValueError("q_min must be below q_max")
    points = [lo + (hi - lo) * i / count for i in range(count + 1)]
    for k, v in enumerate(seq.points):
        points.append(vector_min_point(v, n)[0])
        if k + 1 < len(seq.points):
            points.append(crossing_q(v, seq.points[k + 1], n))
    kept = sorted(p for p in points if lo <= p <= hi)
    grid: List[PrecisionReal] = []
    for p in kept:
        if not grid or p > grid[-1]:
            grid.append(p)
    return grid
