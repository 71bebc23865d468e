"""PrecisionReal's operators against an oracle made from libmp directly.

Each operator must return exactly what the libmp function returns at the
larger of the two operand precisions with round-nearest, after a Scalar
operand is rounded at the PrecisionReal operand's precision.  The oracle
reads only the operands' raw mpf and precision, so it holds whichever path
the wrapper takes to the result, the memo of small ints' exact raws too.

``reference_format_real`` is format_real as it ran in a fresh
``decimal.localcontext`` per call, verbatim; the two must print the same
string for every value.
"""

import copy
import operator
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath.libmp import (
    finf,
    fninf,
    fnan,
    fone,
    fzero,
    from_float,
    from_int,
    from_man_exp,
    from_str,
    mpf_add,
    mpf_cmp,
    mpf_div,
    mpf_mul,
    mpf_pow_int,
    mpf_sub,
    round_nearest,
)

from dioph.numerics import _SMALL_INTS, PrecisionReal, format_real

PR = PrecisionReal
# below 9 bits some memoized small ints round and others do not
BITS = st.sampled_from([1, 2, 3, 7, 11, 64, 256, 300])
EDGE = max(_SMALL_INTS)  # the memo holds -EDGE..EDGE

floats = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [float("inf"), float("-inf"), float("nan"), -0.0, 0.0]
)
ints = (
    st.integers(-(2**70), 2**70)
    | st.integers(-(2**400), 2**400)
    | st.just(True)
    | st.sampled_from([0, EDGE - 1, EDGE, EDGE + 1, -EDGE + 1, -EDGE, -EDGE - 1, 2**63])
    | st.integers(-EDGE - 1, EDGE + 1)
)
decimal_strings = st.builds(
    lambda man, exp: f"{man}e{exp}", st.integers(-(10**25), 10**25), st.integers(-40, 40)
)
scalars = floats | ints | decimal_strings
reals = st.builds(PR, scalars, BITS)
operands = reals | scalars

ARITHMETIC = [
    (operator.add, mpf_add),
    (operator.sub, mpf_sub),
    (operator.mul, mpf_mul),
    (operator.truediv, mpf_div),
]
ORDERINGS = [operator.lt, operator.le, operator.gt, operator.ge]


def raw_at(x, bits: int):
    """(raw mpf, precision) of an operand, a Scalar taken at bits."""
    if isinstance(x, PR):
        return x.raw, x.precision_bits
    if isinstance(x, int):
        return from_int(x, bits, round_nearest), bits
    if isinstance(x, float):
        return from_float(x, bits, round_nearest), bits
    return from_str(x, bits, round_nearest), bits


def both_raw(x, y):
    bits = x.precision_bits if isinstance(x, PR) else y.precision_bits
    return raw_at(x, bits), raw_at(y, bits)


def outcome(fn):
    """fn()'s (raw, precision), or the type of the exception it raised."""
    try:
        r = fn()
    except (ZeroDivisionError, ValueError, TypeError) as exc:
        return type(exc)
    if isinstance(r, PR):
        return r.raw, r.precision_bits
    return r


def oracle_arithmetic(libop, x, y):
    (rx, px), (ry, py) = both_raw(x, y)
    p = max(px, py)
    return outcome(lambda: (libop(rx, ry, p, round_nearest), p))


def oracle_ordering(op, x, y):
    (rx, _), (ry, _) = both_raw(x, y)
    if fnan in (rx, ry):
        return ValueError
    return op(mpf_cmp(rx, ry), 0)


def oracle_equal(x, y) -> bool:
    (rx, _), (ry, _) = both_raw(x, y)
    return fnan not in (rx, ry) and mpf_cmp(rx, ry) == 0


@settings(max_examples=300, deadline=None)
@given(a=reals, b=operands)
def test_arithmetic_rounds_at_the_larger_precision(a, b):
    for op, libop in ARITHMETIC:
        got = outcome(lambda: op(a, b))
        assert got == oracle_arithmetic(libop, a, b), (op, a, b)
        # the reflected form, b op a
        got = outcome(lambda: op(b, a))
        assert got == oracle_arithmetic(libop, b, a), (op, b, a)


@settings(max_examples=300, deadline=None)
@given(a=reals, b=operands)
def test_comparisons_are_exact(a, b):
    for op in ORDERINGS:
        assert outcome(lambda: op(a, b)) == oracle_ordering(op, a, b), (op, a, b)
        assert outcome(lambda: op(b, a)) == oracle_ordering(op, b, a), (op, b, a)
    equal = oracle_equal(a, b)
    assert (a == b) is equal and (b == a) is equal
    assert (a != b) is (not equal) and (b != a) is (not equal)


@pytest.mark.parametrize("bits", range(1, 13))
def test_every_memoized_int_rounds_as_from_int(bits):
    # the memo's whole range and one past each end, at precisions that
    # round some of its ints and at 9 to 12 bits, which round none
    a = PR(3, bits)
    for k in range(-EDGE - 1, EDGE + 2):
        for op, libop in ARITHMETIC:
            assert outcome(lambda: op(a, k)) == oracle_arithmetic(libop, a, k), (op, k)
            assert outcome(lambda: op(k, a)) == oracle_arithmetic(libop, k, a), (op, k)
        for op in ORDERINGS:
            assert op(a, k) == oracle_ordering(op, a, k), (op, k)
        assert (a == k) is oracle_equal(a, k), k


@settings(max_examples=200, deadline=None)
@given(a=reals, k=st.integers(-6, 6) | st.just(True))
def test_integer_power(a, k):
    p = a.precision_bits
    expected = (fone, p) if k == 0 else outcome(lambda: (mpf_pow_int(a.raw, k, p, round_nearest), p))
    assert outcome(lambda: a**k) == expected


@settings(max_examples=50, deadline=None)
@given(a=reals, b=reals)
def test_power_takes_only_ints(a, b):
    with pytest.raises(TypeError):
        a**b
    with pytest.raises(TypeError):
        a**0.5
    with pytest.raises(TypeError):
        2**a


@pytest.mark.parametrize("zero", [0, 0.0, -0.0, "0", PR(0, 64), PR(0, 300)])
@pytest.mark.parametrize("bits", [64, 256, 300])
def test_division_by_zero_raises(zero, bits):
    with pytest.raises(ZeroDivisionError):
        PR("1.5", bits) / zero
    with pytest.raises(ZeroDivisionError):
        3 / PR(zero, bits)


@pytest.mark.parametrize("op", ORDERINGS)
@pytest.mark.parametrize("other", [1, 0.5, "2", PR(1, 64), PR(1, 300), float("nan")])
def test_nan_ordering_raises(op, other):
    nan = PR(float("nan"), 256)
    with pytest.raises(ValueError, match="ordering comparison with NaN"):
        op(nan, other)
    with pytest.raises(ValueError, match="ordering comparison with NaN"):
        op(other, nan)
    assert nan != other and not nan == other


@pytest.mark.parametrize("other", [None, Fraction(1, 3)])
@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul, operator.truediv, *ORDERINGS])
def test_other_types_raise_type_error(other, op):
    a = PR("0.75", 256)
    with pytest.raises(TypeError):
        op(a, other)
    with pytest.raises(TypeError):
        op(other, a)


@pytest.mark.parametrize("other", [None, Fraction(3, 4)])
def test_other_types_are_never_equal(other):
    a = PR("0.75", 256)
    assert not a == other and a != other


@pytest.mark.parametrize("name", ["raw", "precision_bits", "other"])
def test_attributes_cannot_be_assigned(name):
    a = PR("0.75", 256)
    b = a + a  # built by the operator's own path, not __init__
    for x in (a, b):
        with pytest.raises(AttributeError):
            setattr(x, name, 1)
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert b.raw == mpf_add(a.raw, a.raw, 256, round_nearest) and b.precision_bits == 256


@pytest.mark.parametrize(
    "copier", [copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))]
)
@pytest.mark.parametrize(
    "value, bits",
    [("0.75", 256), ("-1e-300", 64), ("0", 7), ("inf", 128), ("-inf", 53), ("nan", 256)],
)
def test_copies_keep_raw_and_bits(copier, value, bits):
    a = PR(value, bits)
    b = copier(a)
    assert type(b) is PR and b.raw == a.raw and b.precision_bits == a.precision_bits
    with pytest.raises(AttributeError):
        b.raw = a.raw



def reference_format_real(x, significant: int = 12) -> str:
    r = x if isinstance(x, PrecisionReal) else PrecisionReal(x)
    if r.raw == fnan:
        return "nan"
    if r.raw == finf:
        return "inf"
    if r.raw == fninf:
        return "-inf"
    if r.raw == fzero:
        return "0"
    import decimal

    sign, man, expo, _ = r.raw
    with decimal.localcontext() as ctx:
        ctx.prec = significant + 20
        ctx.Emax = decimal.MAX_EMAX
        ctx.Emin = decimal.MIN_EMIN
        d = decimal.Decimal(int(man)) * (decimal.Decimal(2) ** expo)
        if sign:
            d = -d
        out = format(d, f".{significant}g")
    return out


def dyadic(man: int, exp: int) -> PR:
    """man 2^exp exactly, at the bits of man's mantissa."""
    return PR._make(from_man_exp(man, exp), max(1, abs(man).bit_length()))


# man 2^exp with a mantissa of 1 to 4096 bits, far beyond decimal's default
# exponent range of +-999999 once the mantissa's digits are counted in
dyadics = st.builds(
    lambda bits, man, exp, neg: dyadic((-1 if neg else 1) * (man % 2**bits | 2 ** (bits - 1)), exp),
    st.integers(1, 4096),
    st.integers(0, 2**4096),
    st.integers(-(10**6), 10**6),
    st.booleans(),
)
# (2a + 1)/2 10^k with a of `significant` digits: exactly halfway between
# two printable values, as 123456789012.5 is at 12 digits
ties = st.builds(
    lambda a, k, neg: PR((-1 if neg else 1) * (2 * a + 1) * 10**k, 512) / 2,
    st.integers(10**11, 10**12 - 1) | st.integers(10**5, 10**6 - 1),
    st.integers(0, 30),
    st.booleans(),
)


@settings(max_examples=500, deadline=None)
@given(x=dyadics | ties, significant=st.sampled_from([6, 12]))
def test_format_real_matches_the_reference(x, significant):
    assert format_real(x, significant) == reference_format_real(x, significant)


@pytest.mark.parametrize("significant", [6, 12])
@pytest.mark.parametrize(
    "value",
    ["nan", "inf", "-inf", "0", "-0", "123456789012.5", "123456789013.5", "-1234565", "2.5e-7"],
)
def test_format_real_matches_the_reference_at(value, significant):
    x = PR(value, 256)
    assert format_real(x, significant) == reference_format_real(x, significant)
