import pytest
from conftest import bisect_root
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from dioph.numerics import (
    DEFAULT_TOL,
    NAMED_CONSTANTS,
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

    def test_raw_tuple_is_not_a_value(self):
        # a raw mpf goes through _make; a tuple here would skip every check
        with pytest.raises(TypeError):
            PR((0, 1, 0, 1))


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

    @pytest.mark.parametrize("name", sorted(NAMED_CONSTANTS))
    @pytest.mark.parametrize("bits", [0, -1])
    def test_no_precision_below_one_bit(self, name, bits):
        # libmp returns a 0-bit value at 0, which sqrt never finishes, and
        # hangs on a negative precision
        with pytest.raises(ValueError, match="precision_bits must be a positive integer"):
            NAMED_CONSTANTS[name](bits)


class TestFormatReal:
    def test_significant_digits(self):
        assert format_real(PR("123.456789012345"), 12) == "123.456789012"
        assert format_real(PR(0), 12) == "0"
        assert format_real(PR(float("inf"))) == "inf"
        # far outside decimal's default exponent range of +-999999
        assert format_real(PR("1e-400000000"), 12) == "1.00000000000e-400000000"
        assert format_real(PR("-2.5e400000000"), 3) == "-2.50e+400000000"

    def test_round_half_even(self):
        assert format_real(PR("2.5"), 1) == "2"
        assert format_real(PR("3.5"), 1) == "4"

    def test_deterministic(self):
        v = sqrt(PR(2, 512))
        assert format_real(v, 12) == format_real(v, 12) == "1.41421356237"


class TestFindRoot:
    def test_sqrt2(self):
        root = find_root(lambda t: t * t - 2, PR(1), PR(2), "1e-30")
        assert abs(root - sqrt(PR(2))) < PR("1e-29")

    def test_growth_equation(self):
        # e^t / t = 2 sqrt(e), bracket (1, 3), the 1.7564... constant
        target = 2 * sqrt(e_value(256))
        root = find_root(lambda t: exp(t) / t - target, PR(1), PR(3), "1e-12")
        assert abs(root - PR("1.7564")) < PR("5e-5")

    def test_linear(self):
        root = find_root(lambda t: t - 5, PR(4), PR(6), "1e-10")
        assert abs(root - 5) < PR("1e-9")

    def test_mirrored_bracket_agrees(self):
        f = lambda t: t * t - 2
        g = lambda t: 2 - t * t
        r1 = find_root(f, PR(1), PR(2), "1e-30")
        r2 = find_root(g, PR(1), PR(2), "1e-30")
        assert abs(r1 - r2) < PR("1e-29")

    def test_monotone_accuracy_vs_analytic(self):
        root = find_root(lambda t: t**3 - 8, PR(1), PR(3), "1e-30")
        assert abs(root - 2) < PR("1e-29")

    def test_doubling_precision_keeps_stable_digits(self):
        r1 = find_root(lambda t: t * t - 2, PR(1, 256), PR(2, 256), "1e-30")
        r2 = find_root(lambda t: t * t - 2, PR(1, 512), PR(2, 512), "1e-30")
        assert abs(r1 - r2) < PR("1e-29")

    def test_invalid_bracket_rejected(self):
        def f(t):
            raise AssertionError("f is not evaluated on an empty bracket")

        for lo, hi in ((PR(2), PR(1)), (PR(1), PR(1))):
            with pytest.raises(InvalidBracket, match="bracket requires lo < hi"):
                find_root(f, lo, hi, "1e-10")
        with pytest.raises(InvalidBracket, match="same sign"):
            find_root(lambda t: t * t + 1, PR(1), PR(2), "1e-10")

    def test_no_convergence_when_precision_too_low(self):
        with pytest.raises(NoConvergence):
            find_root(lambda t: t * t - 2, PR(1, 64), PR(2, 64), "1e-40")

    def test_deterministic(self):
        f = lambda t: t * t * t - t - 1
        assert find_root(f, PR(1), PR(2), "1e-30") == find_root(f, PR(1), PR(2), "1e-30")

    @pytest.mark.parametrize("bits", [64, 72, 80, 96, 128, 256])
    def test_default_tol_is_reachable_at_every_precision(self, bits):
        # a fixed 1e-30 stalls below about 100 bits
        lo, hi = PR(1, bits), PR(2, bits)
        root = find_root(lambda t: t * t - 2, lo, hi)
        assert root == find_root(lambda t: t * t - 2, lo, hi, at_precision(DEFAULT_TOL, bits))
        assert abs(root - sqrt(PR(2, 512))) <= 2 * at_precision(DEFAULT_TOL, bits)


class TestSecantSteps:
    @pytest.mark.parametrize("bits", [64, 256])
    def test_smooth_root_takes_few_evaluations(self, bits):
        evals = []

        def f(t):
            evals.append(t)
            return t * t - 2

        root = find_root(f, PR(1, bits), PR(2, bits))
        assert abs(root - sqrt(PR(2, 512))) <= at_precision(DEFAULT_TOL, bits)
        assert len(evals) <= 12


def adversarial(kind: str, c: PR, left: PR, right: PR):
    """A function of x whose one sign change is at c: a step from -left to
    +right, a kink whose slope goes from left to right, or, for right >= 1,
    exp(right (x - c)) - 1, which stays near -1 and then turns steep."""
    if kind == "step":
        return lambda x: -left if x < c else right
    if kind == "kink":
        return lambda x: (left if x < c else right) * (x - c)
    return lambda x: exp(right * (x - c)) - 1


@settings(max_examples=200, deadline=None)
@given(
    kind=st.sampled_from(["step", "kink", "exp"]),
    lo=st.integers(min_value=-10, max_value=10),
    width=st.integers(min_value=-3, max_value=3),
    frac=st.floats(min_value=0.001, max_value=0.999),
    left=st.integers(min_value=-40, max_value=40),
    right=st.integers(min_value=-40, max_value=40),
    falling=st.booleans(),
    bits=st.sampled_from([64, 256]),
)
def test_secant_steps_on_adversarial_sign_changes(kind, lo, width, frac, left, right, falling, bits):
    ten = PR(10, bits)
    lo = PR(lo, bits)
    hi = lo + ten**width
    c = lo + (hi - lo) * PR(frac, bits)
    g = adversarial(kind, c, ten**left, ten ** (abs(right) if kind == "exp" else right))
    f = (lambda x: -g(x)) if falling else g
    taken = []

    def counted(x):
        taken.append(x)
        return f(x)

    root = find_root(counted, lo, hi)
    tol = at_precision(DEFAULT_TOL, bits)
    assert all(lo <= x <= hi for x in taken)
    assert abs(root - c) <= tol * max(abs(lo), abs(hi), PR(1, bits))
    _, bisection = bisect_root(f, lo, hi, tol)
    assert len(taken) <= 4 * bisection


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

    def test_memo_keeps_equal_stated_values_of_other_types_apart(self):
        # PR("1e-20", 64) equals the string "1e-20", which at 256 bits is
        # another value; with equal hashes, one memo entry would serve both
        stated = PR("1e-20", 64)

        class SameHash(str):
            def __hash__(self):
                return hash(stated)

        text = SameHash("1e-20")
        assert stated == text
        assert at_precision(stated, 256) == PR(stated, 256)
        assert at_precision(text, 256) == PR("1e-20", 256) != PR(stated, 256)


class TestScan:
    def test_square_grid(self):
        [(lo, hi)] = scan_brackets(lambda t: t * t - 2, 0, 2, 4)
        assert float(lo) == 1.0 and float(hi) == 1.5

    def test_cosine_grid(self):
        from mpmath import cos

        def f(t):
            with mp.workprec(256):
                return PR(cos(t.value))

        [(lo, hi)] = scan_brackets(f, 0, 4, 8)
        assert float(lo) == 1.5 and float(hi) == 2.0

    def test_no_sign_change(self):
        assert scan_brackets(lambda t: t * t + 1, 0, 2, 8) == []

    def test_invalid_points_skipped(self):
        def f(t):
            if t < PR("0.5"):
                raise InvalidPoint("left half undefined")
            return t - PR("0.75")

        [(lo, hi)] = scan_brackets(f, 0, 1, 8)
        assert float(lo) == 0.625 and float(hi) == 0.75

    def test_none_and_multiple_brackets(self):
        # two roots, both landing exactly on grid points
        f = lambda t: (t - 1) * (t - 2)
        found = scan_brackets(f, 0, 3, 6)
        assert len(found) == 2
        r1 = find_root(f, *found[0], "1e-30")
        r2 = find_root(f, *found[1], "1e-30")
        assert float(r1) == 1.0 and float(r2) == 2.0

    def test_first_bracket_returned(self):
        f = lambda t: (t - 1) * (t - 2)
        _, hi = scan_brackets(f, 0, 3, 6)[0]
        assert float(hi) <= 1.5

    def test_zero_run_before_sign(self):
        # flat-zero stretch followed by a sign: the boundary root survives
        def f(t):
            return PR(0) if t <= 1 else t - PR(2)

        found = scan_brackets(f, 0, 3, 6)
        assert found
        root = find_root(f, *found[0], "1e-30")
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
            found.append((i, i + 1))
        elif b == 0 or a != b:
            found.append((i, i + 1))
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
    assert [(int(lo), int(hi)) for lo, hi in found] == eager_scan(values)
