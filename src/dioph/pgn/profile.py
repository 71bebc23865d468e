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
from functools import cmp_to_key, lru_cache
from heapq import heappop, heappush, merge
from math import inf
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from mpmath.libmp import fnan, from_int, mpf_abs, mpf_add, mpf_cmp, mpf_div, mpf_mul, mpf_sub, to_float

from ..numerics import RND, PrecisionReal, Scalar
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


@lru_cache(maxsize=16)
def _q_over_n(q: tuple, bits: int, n: int) -> tuple:
    """The raw q / n for a raw q at bits, as the PrecisionReal operator
    gives it: n taken at bits, the quotient rounded once there.  Cached, so
    a grid point costs one division however many vectors are scored at it."""
    return mpf_div(q, from_int(n, bits, RND), bits, RND)


def vector_L(v: ApproxVector, q: Scalar, n: int) -> PrecisionReal:
    """max(log x - q, log Y + q/n) at the working precision: each branch is
    rounded once at the larger of its two precisions, as the PrecisionReal
    operators round it, and only the larger branch is wrapped."""
    qr = q if isinstance(q, PrecisionReal) else PrecisionReal(q, v.precision_bits)
    q_bits = qr.precision_bits
    log_x, log_Y = v.log_x, v.log_Y
    fall_bits = log_x.precision_bits if log_x.precision_bits > q_bits else q_bits
    rise_bits = log_Y.precision_bits if log_Y.precision_bits > q_bits else q_bits
    fall = mpf_sub(log_x.raw, qr.raw, fall_bits, RND)
    rise = mpf_add(log_Y.raw, _q_over_n(qr.raw, q_bits, n), rise_bits, RND)
    if fall == fnan or rise == fnan:
        raise ValueError("ordering comparison with NaN")
    if mpf_cmp(fall, rise) > 0:
        return PrecisionReal._make(fall, fall_bits)
    return PrecisionReal._make(rise, rise_bits)


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

    Independence is tested once per call for each (S, r), S the set of
    vectors chosen before kept vector r is offered.  Whether r lies in the
    span of S depends on S and r alone, not on q, so the answer is cached
    for the whole grid, keyed on S as a bitmask of ranks and on r.  A miss
    runs `IntBasis.try_add` on a copy of a cached basis of S; a hit, as at
    most steps between neighbouring q where the witnesses stay the same,
    needs no integer elimination.
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

    tests: Dict[Tuple[int, int], bool] = {}  # (S, r) -> r is independent of S
    bases: Dict[int, IntBasis] = {0: IntBasis(n + 1)}  # S -> a basis of S

    def independent(chosen_set: int, r: int) -> bool:
        found = tests.get((chosen_set, r))
        if found is None:
            basis = bases[chosen_set].copy()
            found = tests[chosen_set, r] = basis.try_add(vecs[r].ints())
            if found:
                bases.setdefault(chosen_set | 1 << r, basis)
        return found

    samples: List[ProfileSample] = []
    prev: Optional[PrecisionReal] = None
    for q_in in q_grid:
        q = q_in if isinstance(q_in, PrecisionReal) else PrecisionReal(q_in, pool[0].precision_bits)
        if prev is not None and not q > prev:
            raise ValueError("q_grid must be strictly increasing")
        prev = q
        qf, qnf = float(q), to_float(_q_over_n(q.raw, q.precision_bits, n))
        while moves and moves[-1][0] <= qf:
            r = moves.pop()[1]
            del falling[bisect_left(falling, (fx[r], r))]
            insort(rising, (fy[r], r))
        gap = 2 * ((M + abs(qf)) * (2.0**-50 + 2.0 ** (1 - q.precision_bits)) + 2.0**-1020)
        chosen: List[Tuple[PrecisionReal, int]] = []
        chosen_set = 0
        for run in _runs(_draws(falling, rising, fx, fy, qf, qnf), gap):
            if len(run) == 1:
                r = run[0]
                if independent(chosen_set, r):
                    chosen.append((vector_L(vecs[r], q, n), kept[r]))
                    chosen_set |= 1 << r
            else:  # a near-tie: exact L orders it, equal L by rank
                for L_val, r in sorted((vector_L(vecs[r], q, n), r) for r in run):
                    if len(chosen) <= n and independent(chosen_set, r):
                        chosen.append((L_val, kept[r]))
                        chosen_set |= 1 << r
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
    diagnostic; grows only if the pool misses relevant vectors.  Each sum
    is taken left to right on raw values, every addition rounded at the
    larger precision, as the PrecisionReal operator rounds it."""
    worst: Optional[Tuple[tuple, int]] = None
    for s in samples:
        total, bits = s.L[0].raw, s.L[0].precision_bits
        for v in s.L[1:]:
            if v.precision_bits > bits:
                bits = v.precision_bits
            total = mpf_add(total, v.raw, bits, RND)
        total = mpf_abs(total)
        if worst is None or mpf_cmp(total, worst[0]) > 0:
            worst = total, bits
    if worst is None:
        raise ValueError("empty profile")
    return PrecisionReal._make(*worst)


# sorts PrecisionReals by value, as their < does
_by_value = cmp_to_key(lambda a, b: mpf_cmp(a.raw, b.raw))


def build_q_grid(
    seq: MinimalPointSequence,
    n: int,
    q_max: Scalar,
    count: int = 200,
    q_min: Scalar = "0.5",
) -> List[PrecisionReal]:
    """Uniform grid on [q_min, q_max] joined with every record breakpoint
    (branch minima q_k and consecutive-record crossings r_k), so profile
    kinks are sampled exactly.  The uniform points are lo + (hi - lo) i /
    count, each operation rounded as the PrecisionReal operators round it,
    with hi - lo taken once; the points are filtered, sorted and
    deduplicated on raw values."""
    if count < 2:
        raise ValueError("count must be >= 2")
    bits = seq.points[0].precision_bits if len(seq) else None
    lo = q_min if isinstance(q_min, PrecisionReal) else PrecisionReal(q_min, bits)
    hi = q_max if isinstance(q_max, PrecisionReal) else PrecisionReal(q_max, bits)
    if not lo < hi:
        raise ValueError("q_min must be below q_max")
    p = max(lo.precision_bits, hi.precision_bits)
    span, steps = mpf_sub(hi.raw, lo.raw, p, RND), from_int(count, p, RND)
    points = []
    for i in range(count + 1):
        offset = mpf_div(mpf_mul(span, from_int(i, p, RND), p, RND), steps, p, RND)
        points.append(PrecisionReal._make(mpf_add(lo.raw, offset, p, RND), p))
    for k, v in enumerate(seq.points):
        points.append(crossing_q(v, v, n))
        if k + 1 < len(seq.points):
            points.append(crossing_q(v, seq.points[k + 1], n))
    lo_raw, hi_raw = lo.raw, hi.raw
    inside = [q for q in points if mpf_cmp(lo_raw, q.raw) <= 0 and mpf_cmp(q.raw, hi_raw) <= 0]
    grid: List[PrecisionReal] = []
    for q in sorted(inside, key=_by_value):
        if not grid or mpf_cmp(q.raw, grid[-1].raw) > 0:
            grid.append(q)
    return grid
