"""profile against its PrecisionReal sweep, kept here as the oracle.

``reference_profile`` is profile as it ran on PrecisionReal branch values,
verbatim, before its merge ran on doubles.  The two must give the same L,
compared by raw value, and the same witnesses at every grid point, or
raise the same type of exception.  ``full_pool_greedy`` in
test_pgn_profile.py stays the independent oracle of both.  The reference
builds a fresh basis at every q, so it also checks profile's independence
answers, cached across q.
"""

import sys
from bisect import bisect_left, insort
from heapq import heappop, heappush, merge
from itertools import groupby
from typing import Iterator, List, Optional, Sequence, Tuple

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dioph import pgn
from dioph.numerics import PrecisionReal, Scalar, e_value
from dioph.numerics import exp as nexp, log as nlog
from dioph.pgn import ApproxVector, IntBasis, ProfileSample, crossing_q, vector_L
from dioph.pgn.profile import _draws
from dioph.pgn.vectors import _undominated
from test_pgn_profile import tied_pools

PR = PrecisionReal


def _ascending(entries: Sequence[Tuple[PrecisionReal, int]], key) -> Iterator[Tuple[PrecisionReal, int]]:
    """(key(value), rank) for entries in (value, rank) order, key
    nondecreasing: ascending, a run of equal keys by rank; each key is
    computed as it is drawn."""
    for k, run in groupby(entries, lambda e: key(e[0])):
        for r in sorted(r for _, r in run):
            yield k, r


def reference_profile(
    candidates: Sequence[ApproxVector],
    q_grid: Sequence[Scalar],
    n: int,
) -> List[ProfileSample]:
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


def injected_log(spec, bits):
    """a/8 + k 2^-e rounded to bits, or -inf for None: logs that tie
    exactly, or differ by far less than a double resolves."""
    if spec is None:
        return PR(float("-inf"), bits)
    a, k, e = spec
    return PR(PR(a, 256) / 8 + PR(k, 256) * PR(2, 256) ** -e, bits)


def build_case(n, bits, vectors, grid):
    """The pool and grid of a case.  A vector (x, y, log x, log Y) has
    Y = exp(log Y), so pruning sees the Y order of the logs; a grid entry
    is a/4, or the q_v of pool vector i moved by s ulps at bits."""
    pool = []
    for x, y, lx, ly in vectors:
        log_Y = injected_log(ly, bits)
        pool.append(ApproxVector(x, y, nexp(log_Y), bits, log_x=injected_log(lx, bits), log_Y=log_Y))
    qs = []
    for g in grid:
        if g[0] == "at":
            qs.append(PR(g[1], bits) / 4)
            continue
        q = crossing_q(pool[g[1] % len(pool)], pool[g[1] % len(pool)], n)
        if q.is_finite and q:
            _, _, exp, bc = q.raw
            qs.append(q + PR(g[2], bits) * PR(2, bits) ** (exp + bc - bits))
    return pool, sorted(set(qs))


def outcome(profile_fn, pool, grid, n):
    """Each sample's (q, L, witnesses) by raw values, or the exception type."""
    try:
        samples = profile_fn(pool, grid, n)
    except (pgn.InsufficientRank, ValueError) as exc:
        return type(exc)
    return [(s.q.raw, tuple(L.raw for L in s.L), s.witnesses) for s in samples]


log_spec = st.tuples(st.integers(-40, 40), st.integers(-3, 3), st.integers(60, 250))


@st.composite
def cases(draw):
    n = draw(st.integers(1, 3))
    bits = draw(st.sampled_from([24, 53, 64, 256]))
    # a few base logs, so logs tie or differ only by the k 2^-e offset
    bases = draw(st.lists(st.integers(-40, 40), min_size=1, max_size=3))
    log = st.tuples(st.sampled_from(bases), st.integers(-3, 3), st.integers(60, 250)) | log_spec
    vector = st.integers(0, 6).flatmap(
        lambda x: st.tuples(
            st.just(x),
            st.tuples(*[st.integers(-2, 2)] * n),
            st.none() if x == 0 else log,  # x = 0: a unit vector, log x = -inf
            log,
        )
    )
    vectors = draw(st.lists(vector, min_size=n + 1, max_size=10))
    grid = draw(
        st.lists(
            st.tuples(st.just("at"), st.integers(-8, 24))
            | st.tuples(st.just("qv"), st.integers(0, 9), st.integers(-1, 1)),
            min_size=1,
            max_size=5,
        )
    )
    return n, bits, vectors, grid


# n = 1, q = 1: (1, 0) is picked first at L = 1; (2, 1) and (3, 1) both
# come to L = 1.5 on their falling branch, (3, 1) lower by 2^-200, so their
# doubles are equal and the last pick must go to (3, 1), which has the
# larger x, with (2, 1) beyond it in the same cluster
STRADDLE = [
    (1, (0,), (16, 0, 60), (-24, 0, 60)),
    (2, (1,), (20, 0, 60), (-40, 0, 60)),
    (3, (1,), (20, -1, 200), (-40, 0, 60)),
]


def near_tie(e):
    """STRADDLE with (3, 1) lower by 2^-e: M = 5 and q = 1 give
    2 delta = 12 (2^-50 + 2^-255) + 2^-1019, between 2^-47 and 2^-46."""
    return [*STRADDLE[:2], (3, (1,), (20, -1, e), (-40, 0, 60))]


# exact L of (1, 0) is 2 - 2^-60 on its falling branch and that of (0, 1)
# is 2 - 2^-58 on its rising one; the truncated doubles of their logs give
# 2 - 2^-51 and 2: the doubles order them the other way round
REVERSED = [
    (1, (0,), (24, -1, 60), (-40, 0, 60)),
    (0, (1,), None, (8, -1, 58)),
]


# at 24 bits and q = 3 both rises, 3 - 2^-25 and 3 - 2^-24, round to 3:
# the working precision ties them, so (2, 1) comes first by x, though the
# doubles order (3, 1) first
COARSE_TIE = [
    (2, (1,), (16, 0, 60), (0, -1, 25)),
    (3, (1,), (16, 0, 60), (0, -1, 24)),
]


@settings(max_examples=200, deadline=None)
@given(case=cases())
@example(case=(1, 256, STRADDLE, [("at", 4)]))
@example(case=(1, 256, near_tie(47), [("at", 4)]))  # inside 2 delta
@example(case=(1, 256, near_tie(46), [("at", 4)]))  # outside 2 delta
@example(case=(1, 256, REVERSED, [("at", 4)]))
@example(case=(1, 53, REVERSED, [("at", 4), ("qv", 0, -1), ("qv", 0, 0), ("qv", 0, 1)]))
@example(case=(1, 24, COARSE_TIE, [("at", 12)]))
def test_profile_matches_the_reference(case):
    n, bits, vectors, grid = case
    pool, qs = build_case(n, bits, vectors, grid)
    expect = outcome(reference_profile, pool, qs, n)
    assert outcome(pgn.profile, pool, qs, n) == expect


@settings(max_examples=200, deadline=None)
@given(
    logs=st.lists(
        st.tuples(st.floats(-50, 50) | st.just(float("-inf")), st.floats(-50, 50), st.booleans()),
        min_size=1,
        max_size=12,
    ),
    q=st.floats(-20, 20),
    n=st.integers(1, 3),
)
def test_draws_come_in_float_L_order_from_either_list(logs, q, n):
    # a vector may sit on the list of its smaller branch: it is held back
    # until its float L comes up, so each vector is drawn once, in order
    fx, fy = [lx for lx, _, _ in logs], [ly for _, ly, _ in logs]
    falling = sorted((fx[r], r) for r, (_, _, up) in enumerate(logs) if not up)
    rising = sorted((fy[r], r) for r, (_, _, up) in enumerate(logs) if up)
    drawn = list(_draws(falling, rising, fx, fy, q, q / n))
    assert sorted(r for _, r in drawn) == list(range(len(logs)))
    assert [L for L, _ in drawn] == sorted(max(fx[r] - q, fy[r] + q / n) for r in range(len(logs)))


@pytest.mark.parametrize("e, scored", [(47, [1, 3, 2]), (46, [1, 3])], ids=["inside", "outside"])
def test_exact_L_only_for_picks_and_near_ties(monkeypatch, e, scored):
    # within 2 delta of (3, 1), (2, 1) is scored with it; beyond, it is
    # drawn after the last pick but never scored
    profile_module = sys.modules["dioph.pgn.profile"]
    xs = []
    exact = profile_module.vector_L

    def counted(v, q, n):
        xs.append(v.x)
        return exact(v, q, n)

    monkeypatch.setattr(profile_module, "vector_L", counted)
    pool, qs = build_case(1, 256, near_tie(e), [("at", 4)])
    assert pgn.profile(pool, qs, 1)[0].witnesses == (0, 2)
    assert xs == scored
    monkeypatch.undo()
    assert outcome(pgn.profile, pool, qs, 1) == outcome(reference_profile, pool, qs, 1)


@settings(max_examples=150, deadline=None)
@given(
    case=tied_pools(),
    grid=st.lists(st.integers(-16, 24), min_size=2, max_size=8, unique=True),
)
def test_cached_independence_matches_the_reference(case, grid):
    # repeated and dependent vectors, with several q: a cached answer is
    # reused only at a later q
    n, pool = case
    qs = [PR(g) / 4 for g in sorted(grid)]
    assert outcome(pgn.profile, pool, qs, n) == outcome(reference_profile, pool, qs, n)


def test_one_independence_test_per_set_and_vector(monkeypatch):
    # e at n = 2, x_max 10^4: the reference runs 728 tests on 218 fresh
    # bases; profile's sweep runs try_add once for each distinct (chosen
    # set, vector) among them
    t = pgn.TargetPoint.veronese(e_value(), 2)
    kept, _ = pgn.undominated_candidates(t, 10**4, widen=1)
    grid = pgn.build_q_grid(pgn.minimal_points(kept), 2, nlog(PR(10**4)))
    tests = []

    class Recording(IntBasis):
        def __init__(self, dim):
            super().__init__(dim)
            self.chosen = frozenset()

        def try_add(self, vec):
            tests.append((self.chosen, tuple(vec)))
            added = super().try_add(vec)
            if added:
                self.chosen |= {tuple(vec)}
            return added

    monkeypatch.setattr(sys.modules[__name__], "IntBasis", Recording)
    expect = outcome(reference_profile, kept, grid, 2)
    monkeypatch.undo()

    calls = 0
    try_add = IntBasis.try_add

    def counted(self, vec):
        nonlocal calls
        calls += 1
        return try_add(self, vec)

    monkeypatch.setattr(IntBasis, "try_add", counted)
    _undominated(kept, 2)
    pruning, calls = calls, 0
    assert outcome(pgn.profile, kept, grid, 2) == expect
    # the sweep's calls are those beyond the pruning's, which profile runs first
    assert (len(grid), len(tests), len(set(tests)), calls - pruning) == (218, 728, 93, 93)
