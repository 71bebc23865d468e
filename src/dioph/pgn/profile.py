"""Successive-minima profile functions over a candidate pool.

Each candidate induces the piecewise-linear function
L_x(q) = max(log x - q, log Y + q/n) with slopes -1 and 1/n; the j-th
profile value at q is the min-max over independent j-tuples, computed
exactly by greedy selection in increasing L order (linear independence is
a matroid, so the greedy selection realizes the min-max).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

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

# covers float round-off of the log values in the candidate pre-sort
_FLOAT_SLACK = 1e-9


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


def profile(
    candidates: Sequence[ApproxVector],
    q_grid: Sequence[Scalar],
    n: int,
    prefix_size: int = 64,
) -> List[ProfileSample]:
    """Exact min-max profile over the pool at each grid parameter.

    A vectorized float pre-pass selects a candidate prefix per q; its
    doubles come from the integers (`ApproxVector.float_logs`), so no
    256-bit log runs per candidate.  The selection is then redone in exact
    arithmetic, taking exact logs only for prefix members, and certified
    against the smallest excluded float value, growing the prefix when
    inconclusive.
    The result upper-bounds the true lattice profile when the pool is
    incomplete and is exact for the pool itself.
    """
    pool = list(candidates)
    if len(pool) < n + 1:
        raise InsufficientRank(f"need at least {n + 1} candidates, have {len(pool)}")
    lx, ly = (np.array(col) for col in zip(*(v.float_logs() for v in pool)))

    samples: List[ProfileSample] = []
    prev: Optional[PrecisionReal] = None
    for q_in in q_grid:
        q = q_in if isinstance(q_in, PrecisionReal) else PrecisionReal(q_in, pool[0].precision_bits)
        if prev is not None and not q > prev:
            raise ValueError("q_grid must be strictly increasing")
        prev = q
        qf = float(q)
        vals = np.maximum(lx - qf, ly + qf / n)

        size = min(prefix_size, len(pool))
        while True:
            if size >= len(pool):
                prefix = np.arange(len(pool))
                cutoff = None
            else:
                part = np.argpartition(vals, size)
                prefix = part[:size]
                cutoff = float(vals[part[size]])
            # in float order the exact sort below is nearly a single pass
            prefix = prefix[np.argsort(vals[prefix], kind="stable")].tolist()

            entries = sorted(
                (vector_L(pool[i], q, n), pool[i].x, pool[i].y, i) for i in prefix
            )
            basis = IntBasis(n + 1)
            chosen: List[Tuple[PrecisionReal, int]] = []
            for L_val, _, _, idx in entries:
                if basis.try_add(pool[idx].ints()):
                    chosen.append((L_val, idx))
                    if len(chosen) == n + 1:
                        break

            complete = len(chosen) == n + 1
            certified = complete and (
                cutoff is None or float(chosen[-1][0]) <= cutoff - _FLOAT_SLACK
            )
            if certified:
                break
            if size >= len(pool):
                if not complete:
                    raise InsufficientRank(
                        f"pool spans rank {basis.count} < {n + 1} at q={qf:.6g}"
                    )
                break
            size = min(len(pool), size * 4)

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
