"""Successive-minima profile functions over a candidate pool.

Each candidate induces the piecewise-linear function
L_x(q) = max(log x - q, log Y + q/n) with slopes -1 and 1/n; the j-th
profile value at q is the min-max over independent j-tuples, computed
exactly by greedy selection in increasing L order (linear independence is
a matroid, so the greedy selection realizes the min-max).  A vector in
the span of the vectors before it in (x, y) order with Y no larger is never
chosen, so callers prune the pool once before the profile
(`vectors._undominated` proves it; `vectors.undominated_candidates`
streams it over a target's pool).  At a fixed
q the vectors on their falling branch are in log x order and the others
in log Y order, so `profile` sweeps the grid upward and draws the L order
by merging, in one loop, two lists sorted once.  The merge runs on doubles
with a proven error bound, as adaptive geometric predicates do (Shewchuk
1997): L at the working precision is taken only for the picks and for the
near-ties the doubles cannot order, and the same bound picks the branch
it is taken on.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from functools import cmp_to_key, lru_cache
from heapq import heappop, heappush
from math import inf
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from mpmath.libmp import fnan, from_int, mpf_abs, mpf_add, mpf_cmp, mpf_div, mpf_mul, mpf_sub, to_float

from ..numerics import RND, PrecisionReal, Scalar
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
    that `vector_L` at one q and n divides once."""
    return mpf_div(q, from_int(n, bits, RND), bits, RND)


def _logs(v: ApproxVector) -> tuple:
    """v's (raw log x, its bits, raw log Y, its bits), as `_exact_L` takes them."""
    log_x, log_Y = v.log_x, v.log_Y
    return log_x.raw, log_x.precision_bits, log_Y.raw, log_Y.precision_bits


def _exact_L(logs: tuple, q: tuple, q_n: tuple, q_bits: int, branch: int = 0) -> PrecisionReal:
    """L = max(log x - q, log Y + q/n) at the working precision, on raw
    values: logs as `_logs` gives them, q the raw q at q_bits and q_n the
    raw q / n of `_q_over_n`.  Each branch is rounded once at the larger of
    its two precisions, as the PrecisionReal operators round it, and the
    falling branch is L only where it is strictly the larger.  A branch of
    1 or -1 states that the falling or the rising branch is strictly the
    larger, and only that one is computed."""
    log_x, x_bits, log_Y, y_bits = logs
    if branch >= 0:
        fall_bits = x_bits if x_bits > q_bits else q_bits
        fall = mpf_sub(log_x, q, fall_bits, RND)
        if branch:
            return PrecisionReal._make(fall, fall_bits)
    rise_bits = y_bits if y_bits > q_bits else q_bits
    rise = mpf_add(log_Y, q_n, rise_bits, RND)
    if branch:
        return PrecisionReal._make(rise, rise_bits)
    if fall == fnan or rise == fnan:
        raise ValueError("ordering comparison with NaN")
    if mpf_cmp(fall, rise) > 0:
        return PrecisionReal._make(fall, fall_bits)
    return PrecisionReal._make(rise, rise_bits)


def vector_L(v: ApproxVector, q: Scalar, n: int) -> PrecisionReal:
    """max(log x - q, log Y + q/n) at the working precision (`_exact_L`)."""
    qr = q if isinstance(q, PrecisionReal) else PrecisionReal(q, v.precision_bits)
    q_raw, q_bits = qr.raw, qr.precision_bits
    return _exact_L(_logs(v), q_raw, _q_over_n(q_raw, q_bits, n), q_bits)


def vector_min_point(v: ApproxVector, n: int) -> Tuple[PrecisionReal, PrecisionReal]:
    """(q_v, L(q_v)) where the two branches of L_x meet: q_v is v's
    crossing with itself."""
    return crossing_q(v, v, n), (v.log_x + n * v.log_Y) / (n + 1)


def crossing_q(rising: ApproxVector, falling: ApproxVector, n: int) -> PrecisionReal:
    """Parameter where the rising branch of one vector meets the falling
    branch of another: n (log x_fall - log Y_rise) / (n+1)."""
    return n * (falling.log_x - rising.log_Y) / (n + 1)


def profile(
    candidates: Sequence[ApproxVector],
    q_grid: Sequence[Scalar],
    n: int,
) -> List[ProfileSample]:
    """Exact min-max profile over the pool at each grid parameter.

    At every q the pool's vectors are selected greedily in (L, x, y,
    index) order, L at the working precision, so witnesses index the
    caller's pool.  The greedy is exact on any pool and the pool is taken
    as given: pruning only saves work.  A caller with a whole pool passes
    the vectors `vectors._undominated` keeps, which give the values of the
    whole pool when log_x and log_Y are nondecreasing in x and Y, as for
    every pool `enumerate_candidates` or `ApproxVector.from_target`
    builds; `undominated_candidates` streams them.  The result
    upper-bounds the true lattice profile when the pool is incomplete and
    is exact for the pool itself.  Raises InsufficientRank at the first q
    if the pool spans rank below n + 1.

    The order is decided in doubles.  Each vector gets its raw logs
    (`_logs`) and fx and fy, the doubles of its log x and log Y, once; a
    unit vector has fx = -inf.  The grid is swept upward.  The vectors
    start on a falling list in fx order and each moves once to a rising
    list in fy order, at the first q at or above its float q_v,
    n (fx - fy) / (n + 1).  At each q, with qf and qnf the doubles of q
    and of the q/n that `_exact_L` uses, the two lists are merged in place
    on their keys fx - qf and fy + qnf, ties by rank.  A key is never
    above the float L, max(fx - qf, fy + qnf), and a merged vector is held
    back on a heap until its float L is at most the last key, as no later
    key is below it, or until both lists are spent; so the vectors are
    drawn in float L order whichever list they are on, and only until
    n + 1 are chosen.

    Float L is within delta of L.  A branch value is a - b, with a = log x
    and b = q, or a + b, with a = log Y and b the working value of q/n
    that `_exact_L` also uses; |b| <= |q|.  The working precision rounds
    it once, at p bits or more (p is q's precision), with relative error
    at most 2^-p.  Its double takes float(a) and float(b), each truncated
    with relative error below 2^-52, and one subtraction or addition
    rounded to nearest (2^-53).  So the two differ by less than
    (3 2^-53 + 2^-105 + 2^-p)(|a| + |b|) <= (2^-51 + 2^-p)(|a| + |b|).
    With M the largest finite |fx| or |fy| of the vectors,
        delta = (M + |qf|)(2^-50 + 2^(1-p)) + 2^-1020
    is twice that for |a| + |b| = M + |qf|: the factor 2 covers the
    truncation of M and qf and the four roundings in computing delta, and
    2^-1020 any underflow.  Each branch is thus within delta of its
    double, and a max of two values moves by no more than they do, so
    |float L - L| <= delta.

    So two draws whose float L differ by more than 2 delta are in exact L
    order, and the draws are cut into runs wherever float L steps up by
    more than 2 delta: every run precedes the next in the exact order.  A
    single draw is offered to the basis and scored only if chosen; a
    longer run is scored in full and offered in (L, rank) order, rank
    being the (x, y, index) order.  Exact L is thus taken only for picks
    and near-ties.  The same bound picks the branch: where a vector's
    float falling branch exceeds its float rising one by more than
    2 delta, the working falling branch exceeds the float one less delta,
    which exceeds the float rising one plus delta, which is at least the
    working rising branch; so the falling branch is strictly the larger,
    and the other way round, and `_exact_L` computes that branch alone.
    Both are computed only within 2 delta or for a NaN, as a NaN fails
    every comparison.  The members of a run that are all certain of one
    branch and share its raw log (log x falling, log Y rising) and that
    log's precision round the same operands at the same precision: they
    have one exact L, so rank alone orders them, and it is computed once,
    at the first pick.

    Independence is tested once per call for each (S, r), S the set of
    vectors chosen before the vector of rank r is offered.  Whether r lies in the
    span of S depends on S and r alone, not on q, so the answer is cached
    for the whole grid, keyed on S as a bitmask of ranks and on r.  A miss
    runs `IntBasis.try_add` on a copy of a cached basis of S; a hit, as at
    most steps between neighbouring q where the witnesses stay the same,
    needs no integer elimination.
    """
    pool = list(candidates)
    if len(pool) <= n:
        raise InsufficientRank(f"pool spans rank at most {len(pool)} < {n + 1}")
    order = sorted(range(len(pool)), key=lambda i: (pool[i].x, pool[i].y, i))  # rank -> index
    vecs = [pool[i] for i in order]
    logs = [_logs(v) for v in vecs]
    fx = [to_float(lg[0]) for lg in logs]
    fy = [to_float(lg[2]) for lg in logs]
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
    prev: Optional[tuple] = None
    for q_in in q_grid:
        q = q_in if isinstance(q_in, PrecisionReal) else PrecisionReal(q_in, pool[0].precision_bits)
        q_raw, q_bits = q.raw, q.precision_bits
        if q_raw == fnan:
            raise ValueError("ordering comparison with NaN")
        if prev is not None and mpf_cmp(q_raw, prev) <= 0:
            raise ValueError("q_grid must be strictly increasing")
        prev = q_raw
        q_n = _q_over_n(q_raw, q_bits, n)
        qf, qnf = to_float(q_raw), to_float(q_n)
        while moves and moves[-1][0] <= qf:
            r = moves.pop()[1]
            del falling[bisect_left(falling, (fx[r], r))]
            insort(rising, (fy[r], r))
        gap = 2 * ((M + abs(qf)) * (2.0**-50 + 2.0 ** (1 - q_bits)) + 2.0**-1020)
        chosen: List[Tuple[PrecisionReal, int]] = []
        chosen_set = 0
        held: List[Tuple[float, int, int]] = []  # (float L, rank, branch), merged, not drawn
        run: List[Tuple[float, int, int]] = []  # the draws since the last cut
        i = j = 0
        key = -inf  # the last merged key
        while True:
            if held and held[0][0] <= key:
                draw = heappop(held)
            elif i < len(falling) or j < len(rising):
                if j == len(rising) or (
                    i < len(falling) and (falling[i][0] - qf, falling[i][1]) < (rising[j][0] + qnf, rising[j][1])
                ):
                    key, r = falling[i][0] - qf, falling[i][1]
                    i += 1
                else:
                    key, r = rising[j][0] + qnf, rising[j][1]
                    j += 1
                fall, rise = fx[r] - qf, fy[r] + qnf
                branch = 1 if fall - rise > gap else -1 if rise - fall > gap else 0
                heappush(held, (fall if fall > rise else rise, r, branch))
                continue
            else:  # both lists are spent: the held-back vectors come last
                draw = heappop(held) if held else None
            if run and (draw is None or draw[0] - run[-1][0] > gap):
                # a single draw or a run on one branch value has one L, taken
                # at its first pick; a near-tie's exact L orders it, equal L by rank
                _, r, b = run[0]
                scored: Iterable[Tuple[Optional[PrecisionReal], int]] = ((None, r),)
                if len(run) > 1:
                    k = 0 if b > 0 else 2  # where logs holds the certain branch's log
                    one = b and all(c == b and logs[s][k : k + 2] == logs[r][k : k + 2] for _, s, c in run)
                    scored = sorted((None if one else _exact_L(logs[s], q_raw, q_n, q_bits, c), s) for _, s, c in run)
                L_one = None
                for L_val, r in scored:
                    if len(chosen) <= n and independent(chosen_set, r):
                        if L_val is None:
                            L_val = L_one = _exact_L(logs[r], q_raw, q_n, q_bits, b) if L_one is None else L_one
                        chosen.append((L_val, order[r]))
                        chosen_set |= 1 << r
                if len(chosen) > n:
                    break
                run = []
            if draw is None:
                raise InsufficientRank(f"pool spans rank {len(chosen)} < {n + 1}")
            run.append(draw)
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
