"""Successive-minima profile functions over a candidate pool.

Each candidate induces the piecewise-linear function
L_x(q) = max(log x - q, log Y + q/n) with slopes -1 and 1/n; the j-th
profile value at q is the min-max over independent j-tuples, computed
exactly by greedy selection in increasing L order (linear independence is
a matroid, so the greedy selection realizes the min-max).  A vector with
n + 1 independent vectors at or below it in both x and Y is never chosen,
so the pool is pruned to the rest once and every q works on exact values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from mpmath.libmp import mpf_cmp

from ..numerics import PrecisionReal, Scalar
from .intrank import IntBasis
from .vectors import ApproxVector, InsufficientRank, MinimalPointSequence

__all__ = [
    "ProfileSample",
    "vector_L",
    "vector_min_point",
    "crossing_q",
    "profile",
    "minkowski_defect",
    "build_q_grid",
]

@dataclass(frozen=True)
class ProfileSample:
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
    """(q_v, L(q_v)) where the two branches of L_x meet."""
    q = n * (v.log_x - v.log_Y) / (n + 1)
    value = (v.log_x + n * v.log_Y) / (n + 1)
    return q, value


def crossing_q(rising: ApproxVector, falling: ApproxVector, n: int) -> PrecisionReal:
    """Parameter where the rising branch of one vector meets the falling
    branch of another: n (log x_fall - log Y_rise) / (n+1)."""
    return n * (falling.log_x - rising.log_Y) / (n + 1)


def _undominated(pool: Sequence[ApproxVector], n: int) -> List[int]:
    """Indices of the pool vectors that the greedy selection can choose.

    One scan in (x, y, index) order keeps the least-Y basis of the vectors
    seen so far, chosen greedily by Y.  A vector is skipped once that basis
    has n + 1 members and its Y is at least their largest Y: they are
    independent, their x and Y are no larger, so their L is no larger at
    every q, and they precede it in the greedy's (L, x, y, index) order.
    The selection is therefore complete before it reaches a skipped vector.
    """
    basis: List[int] = []  # increasing Y
    kept: List[int] = []
    for i in sorted(range(len(pool)), key=lambda i: (pool[i].x, pool[i].y, i)):
        Y = pool[i].Y.raw
        if len(basis) == n + 1 and mpf_cmp(Y, pool[basis[-1]].Y.raw) >= 0:
            continue
        kept.append(i)
        ints = IntBasis(n + 1)
        by_Y = sorted(basis + [i], key=lambda j: pool[j].Y)
        basis = [j for j in by_Y if ints.try_add(pool[j].ints())]
    if len(basis) < n + 1:
        raise InsufficientRank(f"pool spans rank {len(basis)} < {n + 1}")
    return kept


def profile(
    candidates: Sequence[ApproxVector],
    q_grid: Sequence[Scalar],
    n: int,
) -> List[ProfileSample]:
    """Exact min-max profile over the pool at each grid parameter.

    The vectors that some n + 1 independent earlier vectors dominate in x
    and Y are dropped once (`_undominated`); at every q the rest are scored
    exactly and selected greedily in (L, x, y, index) order, so witnesses
    index the caller's pool.  Dropping is exact when log_x and log_Y are
    nondecreasing in x and Y, as for every pool `enumerate_candidates` or
    `ApproxVector.from_target` builds; a pool of injected logs that breaks
    this must have at most n + 1 vectors, so that none is dropped.
    The result upper-bounds the true lattice profile when the pool is
    incomplete and is exact for the pool itself.
    """
    pool = list(candidates)
    kept = _undominated(pool, n)

    samples: List[ProfileSample] = []
    prev: Optional[PrecisionReal] = None
    for q_in in q_grid:
        q = q_in if isinstance(q_in, PrecisionReal) else PrecisionReal(q_in, pool[0].precision_bits)
        if prev is not None and not q > prev:
            raise ValueError("q_grid must be strictly increasing")
        prev = q
        entries = sorted((vector_L(pool[i], q, n), pool[i].x, pool[i].y, i) for i in kept)
        basis = IntBasis(n + 1)
        chosen: List[Tuple[PrecisionReal, int]] = []
        for L_val, _, _, idx in entries:
            if basis.try_add(pool[idx].ints()):
                chosen.append((L_val, idx))
                if len(chosen) == n + 1:
                    break
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
