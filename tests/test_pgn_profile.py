import sys
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dioph.numerics
from dioph import pgn
from dioph.numerics import NAMED_CONSTANTS, PrecisionReal, e_value, golden_value
from dioph.numerics import exp as nexp, log as nlog
from dioph.pgn.vectors import _next_near, _undominated
from dioph.suites import exhaustive_minmax, thinned_pool

PR = PrecisionReal


def full_pool_greedy(pool, q, n):
    """(L, witnesses) of the greedy selection over every pool vector in
    (L, x, y, index) order: the unpruned profile."""
    entries = sorted((pgn.vector_L(v, q, n), v.x, v.y, i) for i, v in enumerate(pool))
    basis = pgn.IntBasis(n + 1)
    chosen = [(L, i) for L, _, _, i in entries if basis.try_add(pool[i].ints())]
    return tuple(L for L, _ in chosen), tuple(i for _, i in chosen)


def injected(x, y, log_x, log_Y, bits=256):
    return pgn.ApproxVector(
        x, y, PR(1, bits), bits, log_x=PR(log_x, bits), log_Y=PR(log_Y, bits)
    )


class TestVectorL:
    def test_symmetric_crossing(self):
        v = injected(3, (1,), "1", "-1")
        q, val = pgn.vector_min_point(v, 1)
        assert q == 1 and val == 0
        assert pgn.vector_L(v, 1, 1) == 0

    def test_value_at_zero_is_log_x(self):
        v = injected(3, (1,), "1", "-1")
        assert pgn.vector_L(v, 0, 1) == 1

    def test_min_point_formula(self):
        v = injected(7, (1, 2), "2", "-3")
        n = 2
        q, val = pgn.vector_min_point(v, n)
        assert q == n * (PR(2) - PR(-3)) / (n + 1)
        assert abs(pgn.vector_L(v, q, n) - val) < PR("1e-70")
        # one step either side sits strictly above the minimum
        assert pgn.vector_L(v, q - 1, n) > val
        assert pgn.vector_L(v, q + 1, n) > val

    def test_crossing_of_consecutive_vectors(self):
        # rising branch of the older record meets the falling branch of the
        # newer one at n (log x_new - log Y_old) / (n+1)
        n = 2
        old = injected(5, (1, 1), "1.6", "-0.9")
        new = injected(11, (2, 2), "2.4", "-1.4")
        q = pgn.crossing_q(old, new, n)
        assert q == n * (PR("2.4") - PR("-0.9")) / (n + 1)
        lhs = old.log_Y + q / n
        rhs = new.log_x - q
        assert abs(lhs - rhs) < PR("1e-70")


class TestProfile:
    def test_units_only_pool_n1(self):
        e1 = injected(1, (0,), "0", "0.481")  # log Y = log(golden)
        e2 = injected(0, (1,), float("-inf"), "0")
        samples = pgn.profile([e1, e2], [PR(1), PR(2)], 1)
        for s in samples:
            # e2 rises with slope 1, e1 rises from log Y
            expect = sorted([s.q + PR("0.481"), s.q])
            assert abs(s.L[0] - expect[0]) < PR("1e-70")
            assert abs(s.L[1] - expect[1]) < PR("1e-70")

    def test_insufficient_rank(self):
        v1 = injected(1, (2,), "0", "-1")
        v2 = injected(2, (4,), "0.7", "-2")  # dependent with v1
        with pytest.raises(pgn.InsufficientRank):
            pgn.profile([v1, v2], [PR(1)], 1)

    def test_grid_must_increase(self):
        t = pgn.TargetPoint.veronese(golden_value(), 1)
        pool = pgn.enumerate_candidates(t, 20, widen=0)
        with pytest.raises(ValueError):
            pgn.profile(pool, [PR(2), PR(1)], 1)

    def test_witnesses_are_independent_and_realize_values(self):
        t = pgn.TargetPoint.veronese(e_value(), 2)
        pool = pgn.enumerate_candidates(t, 200, widen=1)
        seq = pgn.minimal_points(pool)
        grid = pgn.build_q_grid(seq, 2, nlog(PR(200)), count=15)
        for s in pgn.profile(pool, grid, 2):
            rows = [pool[i].ints() for i in s.witnesses]
            assert pgn.int_rank(rows) == 3
            for j in range(3):
                worst = max(pgn.vector_L(pool[i], s.q, 2) for i in s.witnesses[: j + 1])
                assert worst == s.L[j]

    def test_matches_exhaustive_minmax(self):
        t = pgn.TargetPoint.veronese(e_value(), 2)
        pool = pgn.enumerate_candidates(t, 150, widen=1)
        for qf in ("1.5", "3.0", "4.5"):
            q = PR(qf)
            thin = thinned_pool(pool, q, 2, size=16)
            got = pgn.profile(thin, [q], 2)[0].L
            expect = exhaustive_minmax(thin, q, 2)
            assert list(got) == list(expect)

    @pytest.mark.parametrize(
        "n, x_max", [(1, 400), (2, 150), (3, 40)], ids=["n1", "n2", "n3"]
    )
    @pytest.mark.parametrize("widen", [0, 1])
    def test_matches_full_pool_greedy(self, n, x_max, widen):
        # the pruned pool must give the values and witnesses of a greedy
        # that scores every pool vector
        t = pgn.TargetPoint.veronese(e_value(), n)
        pool = pgn.enumerate_candidates(t, x_max, widen=widen)
        seq = pgn.minimal_points(pool)
        grid = pgn.build_q_grid(seq, n, nlog(PR(x_max)), count=12)
        for s in pgn.profile(pool, grid, n):
            assert (s.L, s.witnesses) == full_pool_greedy(pool, s.q, n)

    def test_exact_logs_only_for_certified_prefixes(self, monkeypatch):
        # exact logs are taken only for records and for the vectors that
        # survive pruning, not for every pool vector
        calls = 0
        exact_log = dioph.numerics.log

        def counted(v):
            nonlocal calls
            calls += 1
            return exact_log(v)

        for name, module in list(sys.modules.items()):
            if name.startswith("dioph") and getattr(module, "log", None) is exact_log:
                monkeypatch.setattr(module, "log", counted)
        t = pgn.TargetPoint.veronese(e_value(), 2)
        pool = pgn.enumerate_candidates(t, 10**4, widen=1)
        seq = pgn.minimal_points(pool)
        grid = pgn.build_q_grid(seq, 2, exact_log(PR(10**4)))
        pgn.profile(pool, grid, 2)
        assert calls < 0.002 * len(pool)

    def test_sorted_and_slope_bounds(self):
        t = pgn.TargetPoint.veronese(golden_value(), 1)
        pool = pgn.enumerate_candidates(t, 1000, widen=0)
        seq = pgn.minimal_points(pool)
        grid = pgn.build_q_grid(seq, 1, nlog(PR(1000)), count=60)
        prof = pgn.profile(pool, grid, 1)
        for s in prof:
            assert s.L[0] <= s.L[1]
        for a, b in zip(prof, prof[1:]):
            dq = b.q - a.q
            for j in range(2):
                assert abs(b.L[j] - a.L[j]) <= dq + PR("1e-60")

    def test_pool_monotone(self):
        t = pgn.TargetPoint.veronese(e_value(), 2)
        pool0 = pgn.enumerate_candidates(t, 200, widen=0)
        pool1 = pgn.enumerate_candidates(t, 200, widen=1)
        seq = pgn.minimal_points(pool0)
        grid = pgn.build_q_grid(seq, 2, nlog(PR(200)), count=25)
        p0 = pgn.profile(pool0, grid, 2)
        p1 = pgn.profile(pool1, grid, 2)
        for a, b in zip(p0, p1):
            for j in range(3):
                assert b.L[j] <= a.L[j]

    def test_L1_at_record_minima(self):
        t = pgn.TargetPoint.veronese(golden_value(), 1)
        pool = pgn.enumerate_candidates(t, 500, widen=0)
        seq = pgn.minimal_points(pool)
        q_max = nlog(PR(500))
        grid = pgn.build_q_grid(seq, 1, q_max, count=30)
        prof = pgn.profile(pool, grid, 1)
        for v in seq.points[1:]:
            qk, val = pgn.vector_min_point(v, 1)
            if not qk <= q_max:
                continue
            sample = next(s for s in prof if s.q == qk)
            assert abs(sample.L[0] - val) < PR("1e-60")


def ulps(q, k):
    """q moved by k units in the last place of its 256-bit mantissa."""
    _, man, exp, bc = q.raw
    return q + PR(k) * PR(2) ** (exp + bc - 256)


def vector_at(x, y, log_x, log_Y):
    """An injected vector whose Y is exp(log_Y), so x, Y and the logs agree."""
    return pgn.ApproxVector(x, y, nexp(log_Y), 256, log_x=log_x, log_Y=log_Y)


class TestMergeTies:
    # the profile draws the L order from a list in log x order and one in
    # log Y order; these pools force the ties that order must break as the
    # full-pool greedy does

    def test_equal_rounded_L_on_the_rising_branch_comes_out_by_x(self):
        # log Y differs by 2^-255 and log Y + q rounds to 4 for both, so
        # the vector of smaller Y but larger x must come second
        n, q = 1, PR(5)
        later = vector_at(2, (1,), PR(0), PR(-1))
        first = vector_at(1, (1,), PR(0), PR(-1) + PR(2) ** -255)
        pool = [later, first]
        assert later.Y < first.Y and later.log_Y < first.log_Y
        assert pgn.vector_L(later, q, n) == pgn.vector_L(first, q, n) == PR(4)
        sample = pgn.profile(pool, [q], n)[0]
        assert sample.witnesses == (1, 0)
        assert (sample.L, sample.witnesses) == full_pool_greedy(pool, q, n)

    @pytest.mark.parametrize(
        "q0, shift", [(PR(1) / 3, 0), (PR(13) / 7, 1), (PR(23) / 7, -1)],
        ids=["at_q_v", "ulp_above", "ulp_below"],
    )
    def test_grid_point_at_the_branch_switch(self, q0, shift):
        # log x and log Y cancel to L = -2e-8 at q0, so the roundings of
        # vector_L put it on the falling branch at and one ulp above its
        # q_v, and on the rising one an ulp below; a twin of smaller x with
        # the same log on the other side ties it at its L and comes first
        n = 4
        L = PR(-20) / 10**9
        log_x, log_Y = q0 + L, L - q0 / n
        v = pgn.ApproxVector(2, (1, 0, 0, 0), PR(1), 256, log_x=log_x, log_Y=log_Y)
        q = ulps(pgn.vector_min_point(v, n)[0], shift)
        fall, rise, L_v = log_x - q, log_Y + q / n, pgn.vector_L(v, q, n)
        assert (L_v == fall != rise) if shift >= 0 else (L_v == rise != fall)
        if shift >= 0:
            twin = pgn.ApproxVector(1, (0, 0, 0, 0), PR(1), 256, log_x=log_x, log_Y=log_Y - 1)
        else:
            twin = pgn.ApproxVector(1, (0, 0, 0, 0), PR(1), 256, log_x=log_x - 1, log_Y=log_Y)
        assert pgn.vector_L(twin, q, n) == pgn.vector_L(v, q, n)
        rest = [
            pgn.ApproxVector(x, e, PR(1), 256, log_x=PR(10), log_Y=PR(5))
            for x, e in ((3, (0, 1, 0, 0)), (4, (0, 0, 1, 0)), (5, (0, 0, 0, 1)))
        ]
        pool = [v, twin, *rest]
        sample = pgn.profile(pool, [q], n)[0]
        assert sample.witnesses[:2] == (1, 0)
        assert (sample.L, sample.witnesses) == full_pool_greedy(pool, q, n)

    def test_vector_L_calls_per_q(self, monkeypatch):
        # exact L is taken for the 3 picks at each of the 218 grid points and
        # for the near-ties the doubles cannot order, not for every kept
        # vector at each q (11,118 calls when 51 were kept) nor for every
        # drawn one (822)
        profile_module = sys.modules["dioph.pgn.profile"]
        calls = 0
        exact = profile_module.vector_L

        def counted(*args):
            nonlocal calls
            calls += 1
            return exact(*args)

        monkeypatch.setattr(profile_module, "vector_L", counted)
        t = pgn.TargetPoint.veronese(e_value(), 2)
        kept, _ = pgn.undominated_candidates(t, 10**4, widen=1)
        grid = pgn.build_q_grid(pgn.minimal_points(kept), 2, nlog(PR(10**4)))
        pgn.profile(kept, grid, 2)
        assert (len(kept), len(grid), calls) == (40, 218, 662)
        assert calls >= 3 * len(grid)


@st.composite
def tied_pools(draw):
    # vectors with small x, y and Y drawn from a few values, so x, Y and
    # whole vectors repeat; logs come from x and Y, so they are monotone
    n = draw(st.integers(1, 2))
    vec = st.builds(
        lambda x, y, k: pgn.ApproxVector(x, y, PR(k) / 8, 256),
        st.integers(0, 6),
        st.tuples(*[st.integers(-2, 2)] * n),
        st.integers(1, 12),
    )
    return n, draw(st.lists(vec, min_size=n + 1, max_size=24))


@settings(max_examples=150, deadline=None)
@given(
    case=tied_pools(),
    grid=st.lists(st.integers(-16, 24), min_size=1, max_size=4, unique=True),
)
def test_shuffled_pool_matches_full_pool_greedy(case, grid):
    n, pool = case
    qs = [PR(g) / 4 for g in sorted(grid)]
    if pgn.int_rank(v.ints() for v in pool) < n + 1:
        with pytest.raises(pgn.InsufficientRank):
            pgn.profile(pool, qs, n)
        return
    for s in pgn.profile(pool, qs, n):
        assert (s.L, s.witnesses) == full_pool_greedy(pool, s.q, n)


class CeilingFrontier:
    """The reference prune: `vectors._Frontier` before the span rule, which
    dropped a vector only when the basis was full and the vector's Y was
    at least its largest Y."""

    def __init__(self, n):
        self.n = n
        self.basis = []

    def offer(self, v):
        if len(self.basis) == self.n + 1 and v.Y >= self.basis[-1].Y:
            return False
        ints = pgn.IntBasis(self.n + 1)
        by_Y = sorted(self.basis + [v], key=lambda u: u.Y)
        self.basis = [u for u in by_Y if ints.try_add(u.ints())]
        return True


def stream_order(pool):
    return sorted(range(len(pool)), key=lambda i: (pool[i].x, pool[i].y, i))


def ceiling_undominated(pool, n):
    frontier = CeilingFrontier(n)
    return [i for i in stream_order(pool) if frontier.offer(pool[i])]


def span_dropped(pool, n):
    """The span rule by its statement: the indices of the vectors that lie
    in the span of the vectors before them in (x, y, index) order with Y
    no larger."""
    order = stream_order(pool)
    dropped = []
    for k, i in enumerate(order):
        below = [pool[j].ints() for j in order[:k] if pool[j].Y <= pool[i].Y]
        if pgn.int_rank(below + [pool[i].ints()]) == pgn.int_rank(below):
            dropped.append(i)
    return dropped


@settings(max_examples=150, deadline=None)
@given(
    case=tied_pools(),
    grid=st.lists(st.integers(-16, 24), min_size=1, max_size=4, unique=True),
)
def test_span_rule_keeps_a_subset_with_the_ceiling_rules_profile(case, grid):
    n, pool = case
    if pgn.int_rank(v.ints() for v in pool) < n + 1:
        return
    span, ceiling = _undominated(pool, n), ceiling_undominated(pool, n)
    assert sorted(set(range(len(pool))) - set(span)) == sorted(span_dropped(pool, n))
    assert set(span) <= set(ceiling)
    # the profile over the ceiling rule's vectors, pruned by that rule alone
    qs = [PR(g) / 4 for g in sorted(grid)]
    by_span = pgn.profile([pool[i] for i in span], qs, n)
    with mock.patch.object(sys.modules["dioph.pgn.profile"], "_undominated", ceiling_undominated):
        by_ceiling = pgn.profile([pool[i] for i in ceiling], qs, n)
    for a, b in zip(by_span, by_ceiling):
        assert a.L == b.L
        assert [span[i] for i in a.witnesses] == [ceiling[i] for i in b.witnesses]


class TestSpanRule:
    def test_drops_a_vector_in_the_span_of_a_partial_basis(self):
        # (3, 2, 1) = (1, 1, 0) + (2, 1, 1), both with smaller Y, while the
        # basis has two members: no full basis exists yet to drop it by
        a, b, v, c = (
            pgn.ApproxVector(x, y, PR(k) / 8, 256)
            for x, y, k in [(1, (1, 0), 1), (2, (1, 1), 2), (3, (2, 1), 3), (5, (3, 1), 4)]
        )
        assert _undominated([a, b, v, c], 2) == [0, 1, 3]
        assert ceiling_undominated([a, b, v, c], 2) == [0, 1, 2, 3]
        grid = [PR(g) / 4 for g in range(-8, 12)]
        for s in pgn.profile([a, b, v, c], grid, 2):
            assert (s.L, s.witnesses) == full_pool_greedy([a, b, v, c], s.q, 2)

    def test_keeps_a_vector_below_part_of_its_span(self):
        # the same sum, but (2, 1, 1) has a larger Y: (3, 2, 1) joins the
        # least-Y basis in its place
        a, b, v, c = (
            pgn.ApproxVector(x, y, PR(k) / 8, 256)
            for x, y, k in [(1, (1, 0), 1), (2, (1, 1), 4), (3, (2, 1), 3), (5, (3, 1), 5)]
        )
        assert _undominated([a, b, v, c], 2) == [0, 1, 2, 3]

    def test_near_rational_target(self):
        # xi_1 = 1e-6 puts a third of the pool in the plane y_1 = 0, which
        # holds two independent vectors, so a full basis waits for one off
        # it with Y near 1; the full-basis rule alone keeps 903
        t = pgn.TargetPoint.explicit(["0.000001", "0.70710678118654752440084436"])
        pool = pgn.enumerate_candidates(t, 300, widen=1)
        kept = _undominated(pool, 2)
        assert (len(kept), len(pool)) == (317, 2702)
        assert len(ceiling_undominated(pool, 2)) == 903
        assert stream_outcome(t, 300, 1) == pool_outcome(t, 300, 1)
        seq = pgn.minimal_points(pool)
        for s in pgn.profile(pool, pgn.build_q_grid(seq, 2, nlog(PR(300)), count=6), 2):
            assert (s.L, s.witnesses) == full_pool_greedy(pool, s.q, 2)


def vector_keys(vectors):
    return [(v.x, v.y, v.Y.raw) for v in vectors]


def pool_outcome(target, x_max, widen):
    """(kept keys, record keys, pool size) from the whole pool, or the
    RationalDependence message: the oracle for undominated_candidates."""
    try:
        pool = pgn.enumerate_candidates(target, x_max, widen)
    except pgn.RationalDependence as exc:
        return str(exc)
    kept = [pool[i] for i in _undominated(pool, target.n)]
    return vector_keys(kept), vector_keys(pgn.minimal_points(pool)), len(pool)


def stream_outcome(target, x_max, widen):
    try:
        kept, size = pgn.undominated_candidates(target, x_max, widen)
    except pgn.RationalDependence as exc:
        return str(exc)
    return vector_keys(kept), vector_keys(pgn.minimal_points(kept)), size


# a coordinate is a dyadic k/2^m (rational by x = 2^m; its small
# numerators make equal errors common), a double, or a 30-digit decimal
# rounded to the working precision
coordinate = st.one_of(
    st.builds(lambda k, m: repr(k / 2**m), st.integers(-(2**14), 2**14), st.integers(0, 12)),
    st.floats(-20, 20, allow_nan=False).map(repr),
    st.integers(-(10**31), 10**31).map(lambda k: f"{k}e-30"),
)


@settings(max_examples=80, deadline=None)
@given(
    coords=st.integers(1, 3).flatmap(lambda n: st.lists(coordinate, min_size=n, max_size=n)),
    widen=st.integers(0, 2),
    x_max=st.integers(1, 400),
    bits=st.integers(64, 256),
)
@example(coords=["5.3"], widen=1, x_max=50, bits=256)
@example(coords=["0.25", "0.1"], widen=2, x_max=40, bits=64)
@example(coords=["-17.75"], widen=1, x_max=2, bits=64)  # a box minimum one below the bound
# (1, 0, ..., 0) lies outside the x = 1 box and is merged into it; 2.5 is a tie
@example(coords=["5.3", "-7.1"], widen=0, x_max=400, bits=256)
@example(coords=["2.5", "-3.7", "11.2"], widen=1, x_max=60, bits=128)
def test_stream_matches_the_pool(coords, widen, x_max, bits):
    # kept vectors, records and pool size of the stream against the whole
    # pool; x_max is cut so that no pool exceeds 2,000 vectors
    target = pgn.TargetPoint.explicit(coords, bits)
    x_max = max(1, min(x_max, 2000 // (2 * widen + 1) ** target.n))
    got = stream_outcome(target, x_max, widen)
    assert got == pool_outcome(target, x_max, widen)
    if not isinstance(got, str):
        # profile prunes the stream's output again and must keep all of it
        kept = pgn.undominated_candidates(target, x_max, widen)[0]
        assert _undominated(kept, target.n) == list(range(len(kept)))


def brute_next_near(Xi, E, bound, x):
    # the error of x' X_i over 2^E has period 2^E in x', and is 0 at x' = 2^E
    m = 1 << E
    return next(t for t in range(x + 1, x + 1 + m) if min(t * Xi % m, -t * Xi % m) < bound)


@settings(max_examples=300, deadline=None)
@given(
    case=st.integers(1, 12).flatmap(
        lambda E: st.tuples(
            st.just(E),
            st.integers(-(4 << E), 4 << E) | st.integers(-3, 3).map(lambda k: k << E),
            st.integers(1, 1 << (E - 1)),
            st.integers(0, 5 << E),
        )
    )
)
@example(case=(1, 1, 1, 0))  # the smallest E: 2^E = 2, bound = 1 = 2^(E-1)
@example(case=(5, 3 << 5, 4, 7))  # X_i = 0 mod 2^E: every x' is near
@example(case=(6, 5, 1, 3))  # bound 1: only a zero error, x' = 64
@example(case=(4, 3, 8, 5))  # bound = 2^(E-1): all but the ties are near
@example(case=(4, 8, 8, 1))  # xi = 1/2: each odd x' ties at exactly half
@example(case=(4, 24, 3, 16))  # a tie at half, bound below it
@example(case=(3, 7, 1, 20))  # a start beyond one period
@example(case=(12, 2531, 1, 0))  # 2531 / 2^12 near the golden ratio: a long descent
def test_next_near_matches_a_scan(case):
    E, Xi, bound, x = case
    assert _next_near(Xi, E, bound, x) == brute_next_near(Xi, E, bound, x)


class TestUndominatedCandidates:
    def test_support_vector_outside_the_first_box(self):
        # round(5.3) = 5, so the widen-1 box at x = 1 is y = 4..6 and the
        # pool adds (1, 0) to it
        t = pgn.TargetPoint.explicit(["5.3"])
        kept, size = pgn.undominated_candidates(t, 200, widen=1)
        assert size == 1 + 200 * 3 + 1
        assert (1, (0,)) in [(v.x, v.y) for v in kept]
        assert stream_outcome(t, 200, 1) == pool_outcome(t, 200, 1)

    @pytest.mark.parametrize("coords", [["5.3", "-7.1"], ["2.5", "-3.7", "11.2"]])
    def test_support_vector_merged_beyond_n1(self, coords):
        t = pgn.TargetPoint.explicit(coords)
        pool = pgn.enumerate_candidates(t, 20, widen=1)
        assert (1, (0,) * t.n) in [(v.x, v.y) for v in pool]
        assert pgn.undominated_candidates(t, 20, widen=1)[1] == len(pool) == t.n + 20 * 3**t.n + 1

    @pytest.mark.parametrize(
        "coords, message",
        [(["0.5"], "(2, 1)"), (["0.25", "-0.375"], "(8, 2, -3)"), (["0.1", "0.75"], "")],
    )
    def test_rational_target_raises_like_the_pool(self, coords, message):
        # 0.1 is not dyadic, so the last target only reaches a zero error
        # at x = 2^E, beyond x_max: both paths then return normally
        t = pgn.TargetPoint.explicit(coords, 64)
        got = stream_outcome(t, 300, 1)
        assert got == pool_outcome(t, 300, 1)
        if message:
            assert got == f"zero approximation error at {message}"
        else:
            assert not isinstance(got, str)

    def test_records_and_profile_match_the_pool(self):
        t = pgn.TargetPoint.veronese(e_value(), 2)
        pool = pgn.enumerate_candidates(t, 3000, widen=1)
        kept, size = pgn.undominated_candidates(t, 3000, widen=1)
        seq = pgn.minimal_points(pool)
        assert size == len(pool) and len(kept) < 0.01 * size
        assert [v.ints() for v in pgn.minimal_points(kept)] == [v.ints() for v in seq]
        grid = pgn.build_q_grid(seq, 2, nlog(PR(3000)), count=30)
        for a, b in zip(pgn.profile(pool, grid, 2), pgn.profile(kept, grid, 2)):
            assert a.L == b.L
            assert [pool[i].ints() for i in a.witnesses] == [kept[i].ints() for i in b.witnesses]


@pytest.mark.parametrize(
    "name, n, x_max, widen",
    [
        (name, n, x_max, widen)
        for name in ("golden", "e", "pi", "sqrt2")
        for n, x_max in ((1, 3000), (2, 1000))
        for widen in (0, 1, 2)
    ]
    # at n = 3 the stream jumps 25 (pi) and 82 (e) times below x = 300
    + [(name, 3, 300, widen) for name in ("e", "pi") for widen in (0, 1)],
)
def test_stream_matches_the_pool_where_it_jumps(name, n, x_max, widen):
    # past the first few x the frontier's bound is below 2^(E-1), so the
    # stream jumps over the boxes it would skip
    target = pgn.TargetPoint.veronese(NAMED_CONSTANTS[name](256), n)
    assert stream_outcome(target, x_max, widen) == pool_outcome(target, x_max, widen)


def test_stream_builds_few_boxes(monkeypatch):
    vectors_module = sys.modules["dioph.pgn.vectors"]
    built = []
    box = vectors_module._box

    def counted(X, E, widen, x):
        built.append(x)
        return box(X, E, widen, x)

    monkeypatch.setattr(vectors_module, "_box", counted)
    t = pgn.TargetPoint.veronese(golden_value(), 1)
    kept, size = pgn.undominated_candidates(t, 10**6, widen=1)
    assert size == 1 + 3 * 10**6 + 1
    assert len(built) < 100 and built == sorted(set(built))
    assert [v.x for v in pgn.minimal_points(kept)][-3:] == [317811, 514229, 832040]


class TestMinkowskiDefect:
    def test_trivial_sample(self):
        s = pgn.ProfileSample(PR(1), (PR(-1), PR(1)), (0, 1))
        assert pgn.minkowski_defect([s]) == 0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            pgn.minkowski_defect([])

    def test_golden_run_bounded(self):
        t = pgn.TargetPoint.veronese(golden_value(), 1)
        pool = pgn.enumerate_candidates(t, 10000, widen=0)
        seq = pgn.minimal_points(pool)
        grid = pgn.build_q_grid(seq, 1, nlog(PR(10000)), count=100)
        prof = pgn.profile(pool, grid, 1)
        d = pgn.minkowski_defect(prof)
        assert d < PR(1)  # stays far below the grid extent ~9.2


class TestBuildQGrid:
    def test_contains_breakpoints_and_increases(self):
        t = pgn.TargetPoint.veronese(golden_value(), 1)
        seq = pgn.minimal_points(pgn.enumerate_candidates(t, 100, widen=0))
        q_max = nlog(PR(100))
        grid = pgn.build_q_grid(seq, 1, q_max, count=10)
        assert all(a < b for a, b in zip(grid, grid[1:]))
        for v in seq.points:
            qk = pgn.vector_min_point(v, 1)[0]
            if PR("0.5") <= qk <= q_max:
                assert any(g == qk for g in grid)

    def test_validation(self):
        t = pgn.TargetPoint.veronese(golden_value(), 1)
        seq = pgn.minimal_points(pgn.enumerate_candidates(t, 10, widen=0))
        with pytest.raises(ValueError):
            pgn.build_q_grid(seq, 1, PR("0.1"), count=10)  # q_max below q_min
        with pytest.raises(ValueError):
            pgn.build_q_grid(seq, 1, PR(5), count=1)
