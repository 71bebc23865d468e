import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath.libmp import from_int, from_rational, mpf_mul, to_int

from dioph import pgn
from dioph.numerics import RND, PrecisionReal, e_value, golden_value, sqrt2_value
from dioph.suites import box_enumerate, box_records, fraction_rank

PR = PrecisionReal

# n = 1, 2, 3; the n = 2 point has a tie coordinate (x/2 is a half-integer
# for odd x) and a negative one, the n = 3 point two negative coordinates
ONE_ERROR_TARGETS = {
    "golden n=1": lambda: pgn.TargetPoint.veronese(golden_value(), 1),
    "0.5,-0.718 n=2": lambda: pgn.TargetPoint.explicit(["0.5", "-0.71828182845904523536"]),
    "-e n=3": lambda: pgn.TargetPoint.veronese(-e_value(), 3),
}


def exact_error_raw(target, x, y):
    """max_i |x xi_i - y_i| in rational arithmetic, rounded once to the
    target's precision: the oracle for the pool's integer error formula."""
    worst = Fraction(0)
    for c, yi in zip(target.coords, y):
        sign, man, exp, _ = c.raw
        xi = Fraction((-1) ** sign * man) * Fraction(2) ** exp
        worst = max(worst, abs(x * xi - yi))
    return from_rational(worst.numerator, worst.denominator, target.precision_bits, RND)


def float_rounded_base(target, x):
    """The nearest-integer vector by float rounding: x xi_i rounded to the
    working precision, then to the nearest integer with ties to even."""
    p = target.precision_bits
    return tuple(int(to_int(mpf_mul(from_int(x), c.raw, p, RND), RND)) for c in target.coords)


def sorted_records(candidates):
    """The record scan as one sort by (x, Y, y): the oracle for the
    integer-keyed scan of minimal_points."""
    pool = sorted((v for v in candidates if v.x >= 1), key=lambda v: (v.x, v.Y, v.y))
    records, best = [], None
    for v in pool:
        if best is None or v.Y < best:
            records.append(v)
            best = v.Y
    return records


def fibs_up_to(limit):
    out = [1, 2]
    while True:
        nxt = out[-1] + out[-2]
        if nxt > limit:
            return [f for f in out if f <= limit]
        out.append(nxt)


class TestTargetPoint:
    def test_veronese_powers_recomputed(self):
        t = pgn.TargetPoint.veronese("1.5", 3, 256)
        assert t.n == 3
        assert t.coords[1] == PR("2.25")
        assert t.coords[2] == PR("3.375")

    def test_explicit(self):
        t = pgn.TargetPoint.explicit(["0.25", "0.5"], 128)
        assert t.n == 2 and t.precision_bits == 128

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_coordinates_rejected(self, bad):
        # scaled() would read them as 0 and report a bogus RationalDependence
        with pytest.raises(ValueError, match="must be finite"):
            pgn.TargetPoint.veronese(PR(bad), 2)
        with pytest.raises(ValueError, match="must be finite"):
            pgn.TargetPoint.explicit(["0.5", bad])

    @pytest.mark.parametrize("bits", [0, -1])
    def test_no_precision_below_one_bit(self, bits):
        # 0 is refused, not read as the default
        with pytest.raises(ValueError, match="precision_bits must be a positive integer"):
            pgn.TargetPoint.veronese("1.5", 2, bits)
        with pytest.raises(ValueError, match="precision_bits must be a positive integer"):
            pgn.TargetPoint.explicit(["0.5"], bits)

    def test_label(self):
        t = pgn.TargetPoint.veronese(e_value(), 2, label="e")
        assert t.source == "veronese(e)"


class TestApproxVector:
    def test_from_target_error(self):
        t = pgn.TargetPoint.veronese(golden_value(), 1)
        v = pgn.ApproxVector.from_target(t, 1, (2,))
        assert abs(v.Y - (2 - golden_value())) < PR("1e-70")
        assert v.ints() == (1, 2)

    @pytest.mark.parametrize("y", [(0,), (0, 1, 0)])
    def test_from_target_rejects_a_y_of_the_wrong_length(self, y):
        t = pgn.TargetPoint.explicit(["0.3", "0.7"])
        with pytest.raises(ValueError, match="dimension 2"):
            pgn.ApproxVector.from_target(t, 1, y)

    def test_zero_error_raises(self):
        t = pgn.TargetPoint.explicit(["0.5"])
        with pytest.raises(pgn.RationalDependence):
            pgn.ApproxVector.from_target(t, 2, (1,))

    @pytest.mark.parametrize("name", sorted(ONE_ERROR_TARGETS))
    def test_one_error_formula(self, name):
        # from_target and the pool share one exact-integer error rounded
        # once; the rational oracle pins that rounding
        t = ONE_ERROR_TARGETS[name]()
        for v in pgn.enumerate_candidates(t, 200, widen=1):
            assert pgn.ApproxVector.from_target(t, v.x, v.y).Y == v.Y
            assert v.Y.raw == exact_error_raw(t, v.x, v.y)

    def test_unit_vector_logs(self):
        v = pgn.ApproxVector(0, (1, 0), PR(1), 256)
        assert not v.log_x.is_finite and v.log_x < 0
        assert v.log_Y == 0


class TestEnumerateCandidates:
    def test_golden_small(self):
        t = pgn.TargetPoint.veronese(golden_value(), 1)
        pool = pgn.enumerate_candidates(t, 13, widen=0)
        xs = sorted({v.x for v in pool if v.x >= 1})
        assert xs == list(range(1, 14))
        # unit-type support: (0, 1) and (1, 0)
        assert any(v.x == 0 and v.y == (1,) for v in pool)
        assert any(v.x == 1 and v.y == (0,) for v in pool)

    def test_x_max_one_contains_rounded_vector(self):
        t = pgn.TargetPoint.veronese(e_value(), 2)
        pool = pgn.enumerate_candidates(t, 1, widen=0)
        assert any(v.x == 1 and v.y == (3, 7) for v in pool)  # round(e), round(e^2)

    def test_pool_matches_box_oracle(self):
        # widen=1 pool covers exactly the |y - x xi| <= 1.5 box (plus units)
        t = pgn.TargetPoint.veronese(e_value(), 2)
        pool = pgn.enumerate_candidates(t, 50, widen=1)
        box = {ints for ints, _ in box_enumerate(t, 50, "1.5")}
        pool_main = {v.ints() for v in pool if v.x >= 1}
        extras = pool_main - box
        # only the unit-type support vector may fall outside the box
        assert extras <= {(1, 0, 0)}
        assert box <= pool_main

    def test_deduplicated(self):
        t = pgn.TargetPoint.veronese(golden_value(), 1)
        pool = pgn.enumerate_candidates(t, 30, widen=2)
        keys = [(v.x, v.y) for v in pool]
        assert len(keys) == len(set(keys))

    def test_sorted_by_x_then_y(self):
        t = pgn.TargetPoint.veronese(sqrt2_value(), 2)
        pool = pgn.enumerate_candidates(t, 20, widen=1)
        keys = [(v.x, v.y) for v in pool]
        assert keys == sorted(keys)

    def test_rational_target_raises(self):
        t = pgn.TargetPoint.explicit(["0.5"])
        with pytest.raises(pgn.RationalDependence):
            pgn.enumerate_candidates(t, 10, widen=0)

    def test_validation(self):
        t = pgn.TargetPoint.veronese(e_value(), 1)
        with pytest.raises(ValueError):
            pgn.enumerate_candidates(t, 0)
        with pytest.raises(ValueError):
            pgn.enumerate_candidates(t, 5, widen=-1)

    @pytest.mark.parametrize("name", sorted(ONE_ERROR_TARGETS))
    def test_rounded_vector_matches_float_rounding(self, name):
        t = ONE_ERROR_TARGETS[name]()
        by_x = {}
        for v in pgn.enumerate_candidates(t, 200, widen=0):
            by_x.setdefault(v.x, []).append(v.y)
        for x in range(1, 201):
            # x = 1 also holds the unit-type vector (1, 0, ..., 0)
            assert float_rounded_base(t, x) in by_x[x]
            assert len(by_x[x]) == 1 or x == 1

    def test_negative_coordinates(self):
        t = pgn.TargetPoint.explicit(["-0.71828182845904523536", "0.333333333333333314829"])
        pool = pgn.enumerate_candidates(t, 40, widen=1)
        assert all(v.Y.sign() > 0 for v in pool)
        seq = pgn.minimal_points(pool)
        assert all(a.x < b.x and b.Y < a.Y for a, b in zip(seq, seq.points[1:]))
        # rounded vector at x = 1 points at the nearest integers (-1, 0)
        assert any(v.x == 1 and v.y == (-1, 0) for v in pool)


@settings(max_examples=60, deadline=None)
@given(
    k=st.integers(1, 31).filter(lambda k: k % 2),
    m=st.integers(1, 5),
    negative=st.booleans(),
)
def test_rounded_vector_ties_match_float_rounding(k, m, negative):
    # xi_1 = +-k/2^m puts x xi_1 exactly on a half-integer for some x; the
    # irrational xi_2 keeps every error nonzero
    c = Fraction(-k if negative else k, 2 ** m)
    t = pgn.TargetPoint.explicit([f"{float(c)!r}", "2.71828182845904523536"])
    keys = {(v.x, v.y) for v in pgn.enumerate_candidates(t, 64, widen=0)}
    for x in range(1, 65):
        assert (x, float_rounded_base(t, x)) in keys


class TestMinimalPoints:
    def test_golden_records_are_fibonacci(self):
        t = pgn.TargetPoint.veronese(golden_value(), 1)
        pool = pgn.enumerate_candidates(t, 13, widen=0)
        seq = pgn.minimal_points(pool)
        assert [v.x for v in seq] == [1, 2, 3, 5, 8, 13]

    def test_single_candidate(self):
        t = pgn.TargetPoint.veronese(golden_value(), 1)
        v = pgn.ApproxVector.from_target(t, 1, (2,))
        seq = pgn.minimal_points([v])
        assert len(seq) == 1 and seq[0] is v

    def test_strictly_improving(self):
        t = pgn.TargetPoint.veronese(e_value(), 2)
        seq = pgn.minimal_points(pgn.enumerate_candidates(t, 500, widen=1))
        for a, b in zip(seq, seq.points[1:]):
            assert a.x < b.x and b.Y < a.Y

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("name", ["golden", "e", "sqrt2"])
    def test_brute_force_oracle(self, n, name):
        xi = {"golden": golden_value, "e": e_value, "sqrt2": sqrt2_value}[name]()
        t = pgn.TargetPoint.veronese(xi, n)
        seq = pgn.minimal_points(pgn.enumerate_candidates(t, 60, widen=1))
        assert [v.ints() for v in seq] == box_records(t, 60, "2")

    def test_units_excluded_from_records(self):
        t = pgn.TargetPoint.veronese(golden_value(), 1)
        seq = pgn.minimal_points(pgn.enumerate_candidates(t, 10, widen=0))
        assert all(v.x >= 1 for v in seq)

    def test_deterministic(self):
        t = pgn.TargetPoint.veronese(sqrt2_value(), 2)
        pool = pgn.enumerate_candidates(t, 100, widen=1)
        a = [v.ints() for v in pgn.minimal_points(pool)]
        b = [v.ints() for v in pgn.minimal_points(list(reversed(pool)))]
        assert a == b

    def test_shuffled_pool_matches_sort_oracle(self):
        t = pgn.TargetPoint.veronese(e_value(), 2)
        pool = pgn.enumerate_candidates(t, 300, widen=1)
        random.Random(5).shuffle(pool)
        got = pgn.minimal_points(pool).points
        assert [id(v) for v in got] == [id(v) for v in sorted_records(pool)]


SYNTHETIC_Y = [PR(k) / 8 for k in range(1, 5)]


@settings(max_examples=200, deadline=None)
@given(
    rows=st.lists(
        st.tuples(
            st.integers(0, 5),
            st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
            st.integers(0, len(SYNTHETIC_Y) - 1),
        ),
        min_size=1,
        max_size=30,
    ),
    seed=st.integers(0, 2**16),
)
def test_record_scan_matches_sort_oracle(rows, seed):
    # few x, y and Y values: same-x ties, equal Y with different y, and
    # repeated (x, y) all occur; the oracle is the (x, Y, y) sort
    pool = [pgn.ApproxVector(x, y, SYNTHETIC_Y[k], 256) for x, y, k in rows]
    random.Random(seed).shuffle(pool)
    if all(v.x == 0 for v in pool):
        with pytest.raises(pgn.InsufficientData):
            pgn.minimal_points(pool)
        return
    got = pgn.minimal_points(pool).points
    assert [id(v) for v in got] == [id(v) for v in sorted_records(pool)]


class TestIntRank:
    def test_small_cases(self):
        assert pgn.int_rank([(1, 0), (0, 1)]) == 2
        assert pgn.int_rank([(2, 4), (1, 2)]) == 1
        assert pgn.int_rank([]) == 0
        assert pgn.int_rank([(0, 0, 0)]) == 0

    def test_incremental_basis(self):
        b = pgn.IntBasis(3)
        assert b.try_add((1, 2, 3))
        assert not b.try_add((2, 4, 6))
        assert b.try_add((0, 1, 1))
        assert b.try_add((0, 0, 5))
        assert not b.try_add((1, 3, 9 - 5))  # (1,2,3)+(0,1,1) = (1,3,4)
        assert b.count == 3

    def test_large_entries_exact(self):
        # would collapse under double-precision arithmetic
        big = 10**30
        rows = [(big, big + 1), (big + 1, big + 2)]
        assert pgn.int_rank(rows) == 2
        rows = [(big, 2 * big), (3 * big, 6 * big)]
        assert pgn.int_rank(rows) == 1

    def test_agrees_with_fraction_oracle(self):
        rng = random.Random(99)
        for _ in range(100):
            dim = rng.randint(1, 5)
            rows = [
                [rng.randint(-20, 20) for _ in range(dim)]
                for _ in range(rng.randint(1, 6))
            ]
            assert pgn.int_rank(rows) == fraction_rank(rows)


@st.composite
def row_sequences(draw):
    """(dim, rows): rows that are free, zero, or integer combinations of the
    rows before them, so that dependent rows are common."""
    dim = draw(st.integers(1, 5))
    small = st.integers(-3, 3)
    huge = st.integers(-(10**30), 10**30)
    rows = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["free", "zero", "combination"] if rows else ["free", "zero"]))
        if kind == "free":
            rows.append(draw(st.lists(small | huge, min_size=dim, max_size=dim)))
        elif kind == "zero":
            rows.append([0] * dim)
        else:
            coeffs = draw(st.lists(small | huge, min_size=len(rows), max_size=len(rows)))
            rows.append([sum(c * r[i] for c, r in zip(coeffs, rows)) for i in range(dim)])
    return dim, rows


@settings(max_examples=300, deadline=None)
@given(case=row_sequences())
def test_each_try_add_answer_matches_the_fraction_rank(case):
    # try_add reports independence of each row from the rows before it
    dim, rows = case
    basis = pgn.IntBasis(dim)
    for k, row in enumerate(rows):
        rank = fraction_rank(rows[: k + 1])
        assert basis.try_add(row) == (rank > fraction_rank(rows[:k]))
        assert basis.count == rank
