"""Successive-minima profile functions over a candidate pool.

Each candidate induces the piecewise-linear function
L_x(q) = max(log x - q, log Y + q/n) with slopes -1 and 1/n; the j-th
profile value at q is the min-max over independent j-tuples, computed
exactly by greedy selection in increasing L order (linear independence is
a matroid, so the greedy selection realizes the min-max).  A vector with
n + 1 independent vectors at or below it in both x and Y is never chosen,
so the pool is pruned to the rest once (`vectors._undominated`, the rule
`vectors.undominated_candidates` streams over a target's pool).  At a fixed
q the vectors on their falling branch are in log x order and the others
in log Y order, so `profile` sweeps the grid upward and draws the L order
as a lazy merge of two lists sorted once, scoring only what it draws.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from heapq import heappop, heappush, merge
from itertools import groupby
from typing import Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from ..numerics import PrecisionReal, Scalar
from .intrank import IntBasis
from .vectors import ApproxVector, MinimalPointSequence, _undominated

__all__ = [
    "ProfileSample",
    "vector_L",
    "vector_min_point",
    "crossing_q",
    "profile",
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
    or above its q_v, ``crossing_q(v, v, n)``.  At each q the lists are
    merged lazily on their branch values log x - q and log Y + q/n, a run
    of equal rounded values by rank, until n + 1 independent vectors are
    chosen; only drawn vectors are scored by `vector_L`.  A branch value
    is at most L; where rounding near q_v puts L on the other branch, the
    vector is held back until its L comes up, so the order is exact.
    """
    pool = list(candidates)
    kept = _undominated(pool, n)
    vecs = [pool[i] for i in kept]
    falling = sorted((v.log_x, r) for r, v in enumerate(vecs))
    rising: List[Tuple[PrecisionReal, int]] = []
    moves = sorted(((crossing_q(v, v, n), r) for r, v in enumerate(vecs)), reverse=True)

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
        points.append(crossing_q(v, v, n))
        if k + 1 < len(seq.points):
            points.append(crossing_q(v, seq.points[k + 1], n))
    kept = sorted(p for p in points if lo <= p <= hi)
    grid: List[PrecisionReal] = []
    for p in kept:
        if not grid or p > grid[-1]:
            grid.append(p)
    return grid
