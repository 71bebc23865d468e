import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from dioph.numerics import (
    DEFAULT_TOL,
    Bracket,
    InvalidBracket,
    InvalidPoint,
    NoConvergence,
    PrecisionReal,
    at_precision,
    e_value,
    exp,
    find_root,
    format_real,
    golden_value,
    liouville_value,
    log,
    pi_value,
    scan_brackets,
    sqrt,
    sqrt2_value,
)

PR = PrecisionReal


class TestPrecisionReal:
    def test_arithmetic_uses_max_precision(self):
        a = PR("0.1", 128)
        b = PR("0.2", 320)
        assert (a + b).precision_bits == 320
        assert (a * b).precision_bits == 320
        assert (a / b).precision_bits == 320

    def test_exact_comparisons(self):
        tiny = PR(1, 256) / (1 << 200)
        assert PR(1, 256) + tiny > PR(1, 256)
        assert PR(1, 256) == PR(1, 64)

    def test_int_and_float_coercion(self):
        assert float(PR(3) * 2) == 6.0
        assert int(PR("2.6")) == 3  # nearest
        assert PR(2) ** -2 == PR("0.25")

    def test_pow_zero_of_infinity_is_one(self):
        assert PR(float("inf")) ** 0 == 1
        assert float(PR(float("inf")) ** -2) == 0.0

    def test_comparison_with_scalars(self):
        assert PR("0.5") < 1
        assert PR("0.5") >= 0.5
        assert 2 > PR("1.5")

    def test_division_by_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            PR(1) / PR(0)

    def test_log_of_negative_raises(self):
        with pytest.raises(ValueError):
            log(PR(-1))
        assert not log(PR(0)).is_finite

    def test_hash_agrees_with_equality(self):
        assert len({PR(1), 1}) == 1
        assert hash(PR(0.5)) == hash(0.5)
        assert hash(PR(1, 256)) == hash(PR(1, 64))

    def test_repr_and_str(self):
        v = PR("1.5", 128)
        assert "1.5" in repr(v)
        assert str(v).startswith("1.5")


class TestConstants:
    def test_against_mpmath(self):
        mp.prec = 300
        assert abs(float(pi_value(256)) - float(mp.pi)) < 1e-15
        assert abs(float(e_value(256)) - float(mp.e)) < 1e-15
        assert abs(float(sqrt2_value(256)) - 2**0.5) < 1e-15
        assert abs(float(golden_value(256)) - (1 + 5**0.5) / 2) < 1e-15

    def test_liouville_truncation(self):
        v = liouville_value(256)
        s = format_real(v, 30)
        assert s.startswith("0.110001000000000000000001")

    def test_liouville_deeper_terms_at_higher_precision(self):
        lo = liouville_value(256)
        hi = liouville_value(1024)
        assert hi > lo  # the 10^-120 term is resolved at 1024 bits


class TestFormatReal:
    def test_significant_digits(self):
        assert format_real(PR("123.456789012345"), 12) == "123.456789012"
        assert format_real(PR(0), 12) == "0"
        assert format_real(PR(float("inf"))) == "inf"

    def test_round_half_even(self):
        assert format_real(PR("2.5"), 1) == "2"
        assert format_real(PR("3.5"), 1) == "4"

    def test_deterministic(self):
        v = sqrt(PR(2, 512))
        assert format_real(v, 12) == format_real(v, 12) == "1.41421356237"


class TestFindRoot:
    def test_sqrt2(self):
        root = find_root(lambda t: t * t - 2, Bracket(PR(1), PR(2), -1, 1), "1e-30")
        assert abs(root - sqrt(PR(2))) < PR("1e-29")

    def test_growth_equation(self):
        # e^t / t = 2 sqrt(e), bracket (1, 3), the 1.7564... constant
        target = 2 * sqrt(e_value(256))
        root = find_root(lambda t: exp(t) / t - target, Bracket(PR(1), PR(3), -1, 1), "1e-12")
        assert abs(root - PR("1.7564")) < PR("5e-5")

    def test_linear(self):
        root = find_root(lambda t: t - 5, Bracket(PR(4), PR(6), -1, 1), "1e-10")
        assert abs(root - 5) < PR("1e-9")

    def test_mirrored_bracket_agrees(self):
        f = lambda t: t * t - 2
        g = lambda t: 2 - t * t
        r1 = find_root(f, Bracket(PR(1), PR(2), -1, 1), "1e-30")
        r2 = find_root(g, Bracket(PR(1), PR(2), 1, -1), "1e-30")
        assert abs(r1 - r2) < PR("1e-29")

    def test_monotone_accuracy_vs_analytic(self):
        root = find_root(lambda t: t**3 - 8, Bracket(PR(1), PR(3), -1, 1), "1e-30")
        assert abs(root - 2) < PR("1e-29")

    def test_doubling_precision_keeps_stable_digits(self):
        r1 = find_root(lambda t: t * t - 2, Bracket(PR(1, 256), PR(2, 256), -1, 1), "1e-30")
        r2 = find_root(lambda t: t * t - 2, Bracket(PR(1, 512), PR(2, 512), -1, 1), "1e-30")
        assert abs(r1 - r2) < PR("1e-29")

    def test_invalid_bracket_rejected(self):
        with pytest.raises(InvalidBracket):
            Bracket(PR(1), PR(2), 1, 1)
        with pytest.raises(InvalidBracket):
            Bracket(PR(2), PR(1), -1, 1)
        with pytest.raises(InvalidBracket):
            find_root(lambda t: t * t + 1, Bracket(PR(1), PR(2), -1, 1), "1e-10")

    def test_no_convergence_when_precision_too_low(self):
        b = Bracket(PR(1, 64), PR(2, 64), -1, 1)
        with pytest.raises(NoConvergence):
            find_root(lambda t: t * t - 2, b, "1e-40")

    def test_deterministic(self):
        f = lambda t: t * t * t - t - 1
        b = Bracket(PR(1), PR(2), -1, 1)
        assert find_root(f, b, "1e-30") == find_root(f, b, "1e-30")

    @pytest.mark.parametrize("bits", [64, 72, 80, 96, 128, 256])
    def test_default_tol_is_reachable_at_every_precision(self, bits):
        # a fixed 1e-30 stalls below about 100 bits
        b = Bracket(PR(1, bits), PR(2, bits), -1, 1)
        root = find_root(lambda t: t * t - 2, b)
        assert root == find_root(lambda t: t * t - 2, b, at_precision(DEFAULT_TOL, bits))
        assert abs(root - sqrt(PR(2, 512))) <= 2 * at_precision(DEFAULT_TOL, bits)


class TestAtPrecision:
    def test_stated_value_at_256_bits(self):
        for stated in ("1e-30", "1e-20", "1e-60"):
            assert at_precision(stated, 256) == PR(stated, 256)

    def test_precision_floor_below_it(self):
        assert at_precision(DEFAULT_TOL, 64) == PR(2) ** -56
        assert at_precision("1e-20", 64) == PR(2) ** -56
        assert at_precision("1e-20", 75) == PR("1e-20", 75)
        assert at_precision(0, 256) == PR(2) ** -248

    def test_result_carries_the_precision(self):
        assert at_precision("0.1", 64).precision_bits == 64
        assert at_precision("0.1", 64) == PR("0.1", 64)

    def test_below_eight_bits(self):
        # the floor exceeds 1 there; it is still a power of two, not an error
        assert at_precision(0, 6) == 4


class TestScan:
    def test_square_grid(self):
        [br] = scan_brackets(lambda t: t * t - 2, 0, 2, 4)
        assert float(br.lo) == 1.0 and float(br.hi) == 1.5

    def test_cosine_grid(self):
        from mpmath import cos

        def f(t):
            with mp.workprec(256):
                return PR(cos(t.value))

        [br] = scan_brackets(f, 0, 4, 8)
        assert float(br.lo) == 1.5 and float(br.hi) == 2.0

    def test_no_sign_change(self):
        assert scan_brackets(lambda t: t * t + 1, 0, 2, 8) == []

    def test_invalid_points_skipped(self):
        def f(t):
            if t < PR("0.5"):
                raise InvalidPoint("left half undefined")
            return t - PR("0.75")

        [br] = scan_brackets(f, 0, 1, 8)
        assert float(br.lo) == 0.625 and float(br.hi) == 0.75

    def test_none_and_multiple_brackets(self):
        # two roots, both landing exactly on grid points
        f = lambda t: (t - 1) * (t - 2)
        found = scan_brackets(f, 0, 3, 6)
        assert len(found) == 2
        r1 = find_root(f, found[0], "1e-30")
        r2 = find_root(f, found[1], "1e-30")
        assert float(r1) == 1.0 and float(r2) == 2.0

    def test_first_bracket_returned(self):
        f = lambda t: (t - 1) * (t - 2)
        br = scan_brackets(f, 0, 3, 6)[0]
        assert float(br.hi) <= 1.5

    def test_zero_run_before_sign(self):
        # flat-zero stretch followed by a sign: the boundary root survives
        def f(t):
            return PR(0) if t <= 1 else t - PR(2)

        found = scan_brackets(f, 0, 3, 6)
        assert found
        root = find_root(f, found[0], "1e-30")
        assert float(f(root)) == 0.0


def eager_scan(values):
    """Oracle: every sign-change cell of the grid 0, 1, ..., len(values) - 1,
    read from the list of values (None marks an invalid point)."""
    signs = [None if v in ("raise", None) or v != v else (v > 0) - (v < 0) for v in values]
    found = []
    for i in range(len(values) - 1):
        a, b = signs[i], signs[i + 1]
        if a is None or b is None or (a == 0 and b == 0):
            continue
        if a == 0:
            if i > 0 and signs[i - 1] not in (None, 0):
                continue  # the previous cell already certified this root
            found.append((i, i + 1, -b, b))
        elif b == 0:
            found.append((i, i + 1, a, -a))
        elif a != b:
            found.append((i, i + 1, a, b))
    return found


# grid values: a sign, an exact zero, or one of the three invalid kinds
GRID_VALUES = st.sampled_from([-1, 1, 0, "raise", None, float("nan")])


@settings(max_examples=300, deadline=None)
@given(values=st.lists(GRID_VALUES, min_size=3, max_size=13))
def test_scan_brackets_matches_the_oracle(values):
    steps = len(values) - 1

    def f(x):
        v = values[int(x)]  # the grid on [0, steps] is exactly 0, 1, ..., steps
        if v == "raise":
            raise InvalidPoint("marked invalid")
        return v

    found = scan_brackets(f, 0, steps, steps)
    assert [(int(b.lo), int(b.hi), b.f_lo_sign, b.f_hi_sign) for b in found] == eager_scan(values)
