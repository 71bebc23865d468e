"""Successive-minima profile functions over a candidate pool.

Each candidate induces the piecewise-linear function
L_x(q) = max(log x - q, log Y + q/n) with slopes -1 and 1/n; the j-th
profile value at q is the min-max over independent j-tuples, computed
exactly by greedy selection in increasing L order (linear independence is
a matroid, so the greedy selection realizes the min-max).  A vector in
the span of the vectors before it in (x, y) order with Y no larger is never
chosen, so the pool is pruned once (`vectors._undominated` proves it;
`vectors.undominated_candidates` streams it over a target's pool).  At a fixed
q the vectors on their falling branch are in log x order and the others
in log Y order, so `profile` sweeps the grid upward and draws the L order
as a lazy merge of two lists sorted once.  The merge runs on doubles with
a proven error bound, as adaptive geometric predicates do (Shewchuk 1997):
L at the working precision is taken only for the picks and for the
near-ties the doubles cannot order.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from heapq import heappop, heappush, merge
from math import inf
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


def _draws(
    falling: Sequence[Tuple[float, int]],
    rising: Sequence[Tuple[float, int]],
    fx: Sequence[float],
    fy: Sequence[float],
    qf: float,
    qnf: float,
) -> Iterator[Tuple[float, int]]:
    """(float L, rank) of every vector on the lists, float L nondecreasing:
    the lists merged lazily on their branch keys fx - qf and fy + qnf,
    each vector held back until its float L, the larger branch, comes up."""
    held: List[Tuple[float, int]] = []
    for key, r in merge(((k - qf, r) for k, r in falling), ((k + qnf, r) for k, r in rising)):
        fall, rise = fx[r] - qf, fy[r] + qnf
        heappush(held, (fall if fall > rise else rise, r))
        while held and held[0][0] <= key:  # no later key is below key
            yield heappop(held)
    while held:
        yield heappop(held)


def _runs(draws: Iterator[Tuple[float, int]], gap: float) -> Iterator[List[int]]:
    """The ranks of the draws in runs, a new run wherever float L steps up
    by more than gap; a run is yielded once the draw after it is seen."""
    run: List[int] = []
    last = 0.0
    for L, r in draws:
        if run and L - last > gap:
            yield run
            run = []
        run.append(r)
        last = L
    yield run


def profile(
    candidates: Sequence[ApproxVector],
    q_grid: Sequence[Scalar],
    n: int,
) -> List[ProfileSample]:
    """Exact min-max profile over the pool at each grid parameter.

    The vectors the greedy can never choose are dropped once
    (`_undominated`, which proves the rule); at every q the rest are
    selected greedily in (L, x, y, index) order, L at the working
    precision, so witnesses index the caller's pool.  Dropping is exact
    when log_x and log_Y are nondecreasing in x and Y, as for every pool
    `enumerate_candidates` or `ApproxVector.from_target` builds; a pool of
    injected logs that breaks this must have at most n + 1 vectors, so
    that none is dropped.  The kept vectors of `undominated_candidates`
    give the values of their whole pool, because `_undominated` keeps
    every one of them.  The result upper-bounds the true lattice profile
    when the pool is incomplete and is exact for the pool itself.

    The order is decided in doubles.  Each kept vector gets fx and fy,
    the doubles of its log x and log Y, once; a unit vector has fx = -inf.
    The grid is swept upward.  The vectors start on a falling list in fx
    order and each moves once to a rising list in fy order, at the first q
    at or above its float q_v, n (fx - fy) / (n + 1).  At each q, with qf
    and qnf the doubles of q and of the q/n that `vector_L` uses, the lists
    are merged lazily on their keys fx - qf and fy + qnf (`_draws`).  A
    key is never above the float L, max(fx - qf, fy + qnf), and a vector
    is held back until its float L comes up, so the draws come in float L
    order whichever list a vector is on.

    Float L is within delta of L.  A branch value is a - b, with a = log x
    and b = q, or a + b, with a = log Y and b the working value of q/n
    that `vector_L` also uses; |b| <= |q|.  The working precision rounds
    it once, at p bits or more (p is q's precision), with relative error
    at most 2^-p.  Its double takes float(a) and float(b), each truncated
    with relative error below 2^-52, and one subtraction or addition
    rounded to nearest (2^-53).  So the two differ by less than
    (3 2^-53 + 2^-105 + 2^-p)(|a| + |b|) <= (2^-51 + 2^-p)(|a| + |b|).
    With M the largest finite |fx| or |fy| of the kept vectors,
        delta = (M + |qf|)(2^-50 + 2^(1-p)) + 2^-1020
    is twice that for |a| + |b| = M + |qf|: the factor 2 covers the
    truncation of M and qf and the four roundings in computing delta, and
    2^-1020 any underflow.  A max of two values moves by no more than they
    do, so |float L - L| <= delta.

    So two draws whose float L differ by more than 2 delta are in exact L
    order.  The draws are cut into runs wherever float L steps up by more
    than 2 delta (`_runs`), and every run precedes the next in the exact
    order.  A single draw is offered to the basis and scored by
    `vector_L` only if chosen; a longer run is scored in full and offered
    in (L, rank) order, rank being the (x, y, index) order.  Exact L is
    thus taken only for picks and near-ties, until n + 1 independent
    vectors are chosen.
    """
    pool = list(candidates)
    kept = _undominated(pool, n)
    vecs = [pool[i] for i in kept]
    fx = [float(v.log_x) for v in vecs]
    fy = [float(v.log_Y) for v in vecs]
    M = max(abs(f) for f in fx + fy if f != -inf)
    falling = sorted(zip(fx, range(len(vecs))))
    rising: List[Tuple[float, int]] = []
    moves = sorted(((n * (x - y) / (n + 1), r) for r, (x, y) in enumerate(zip(fx, fy))), reverse=True)

    samples: List[ProfileSample] = []
    prev: Optional[PrecisionReal] = None
    for q_in in q_grid:
        q = q_in if isinstance(q_in, PrecisionReal) else PrecisionReal(q_in, pool[0].precision_bits)
        if prev is not None and not q > prev:
            raise ValueError("q_grid must be strictly increasing")
        prev = q
        qf, qnf = float(q), float(q / n)
        while moves and moves[-1][0] <= qf:
            r = moves.pop()[1]
            del falling[bisect_left(falling, (fx[r], r))]
            insort(rising, (fy[r], r))
        gap = 2 * ((M + abs(qf)) * (2.0**-50 + 2.0 ** (1 - q.precision_bits)) + 2.0**-1020)
        basis = IntBasis(n + 1)
        chosen: List[Tuple[PrecisionReal, int]] = []
        for run in _runs(_draws(falling, rising, fx, fy, qf, qnf), gap):
            if len(run) == 1:
                r = run[0]
                if basis.try_add(vecs[r].ints()):
                    chosen.append((vector_L(vecs[r], q, n), kept[r]))
            else:  # a near-tie: exact L orders it, equal L by rank
                for L_val, r in sorted((vector_L(vecs[r], q, n), r) for r in run):
                    if len(chosen) <= n and basis.try_add(vecs[r].ints()):
                        chosen.append((L_val, kept[r]))
            if len(chosen) > n:
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
        points.append(crossing_q(v, v, n))
        if k + 1 < len(seq.points):
            points.append(crossing_q(v, seq.points[k + 1], n))
    kept = sorted(p for p in points if lo <= p <= hi)
    grid: List[PrecisionReal] = []
    for p in kept:
        if not grid or p > grid[-1]:
            grid.append(p)
    return grid
