from decimal import Decimal, getcontext, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from congestspan.exact import (as_fraction, ceil_fraction, ceil_log2_int,
                               count_ge_pow, count_le_pow, count_lt_pow,
                               floor_log2, npow_decimal, pow_ceil)


class TestAsFraction:
    def test_decimal_string(self):
        assert as_fraction("0.34") == Fraction(17, 50)

    def test_slash_string(self):
        assert as_fraction("1/3") == Fraction(1, 3)

    def test_float_uses_shortest_repr(self):
        # 0.34 the double is not 17/50, but the user meant 17/50
        assert as_fraction(0.34) == Fraction(17, 50)

    def test_int_and_fraction_pass_through(self):
        assert as_fraction(2) == Fraction(2)
        assert as_fraction(Fraction(3, 7)) == Fraction(3, 7)

    def test_rejects_junk(self):
        with pytest.raises(TypeError):
            as_fraction(object())

    def test_zero_denominator_is_a_value_error(self):
        with pytest.raises(ValueError, match="zero denominator"):
            as_fraction("1/0")


    def test_exponent_past_the_digit_limit_is_a_value_error(self):
        # 10^999999999 would take minutes to build; the limit is the one
        # Python puts on str -> int conversion
        assert as_fraction("1e-4300") == Fraction(1, 10 ** 4300)
        assert as_fraction("2.5E+3") == 2500
        for text in ("1e-4301", "1e999999999", "1E-999999999"):
            with pytest.raises(ValueError, match="exponent past 4300"):
                as_fraction(text)


class TestPowerComparisons:
    def test_float_slop_boundary(self):
        # 256**(1/8) == 2 exactly, although the double is 2.0000000000000004
        assert count_ge_pow(2, 256, Fraction(1, 8))
        assert count_le_pow(2, 256, Fraction(1, 8))
        assert not count_ge_pow(1, 256, Fraction(1, 8))

    def test_strictness(self):
        assert count_lt_pow(3, 32, Fraction(1, 2))   # 3 < sqrt(32) ~ 5.66
        assert not count_lt_pow(6, 32, Fraction(1, 2))

    def test_negative_exponent(self):
        assert count_ge_pow(1, 100, Fraction(-1, 2))   # 1 >= 100^(-1/2)
        assert not count_ge_pow(0, 100, Fraction(-1, 2))

    def test_pow_ceil_and_floor(self):
        assert pow_ceil(256, Fraction(1, 8)) == 2
        assert pow_ceil(5, Fraction(1, 3)) == 2     # 5^(1/3) ~ 1.71
        assert pow_ceil(1, Fraction(7, 2)) == 1

    def test_nth_root_ceil(self):
        # integer roots: the least t with t**q >= x
        assert pow_ceil(256, Fraction(1, 8)) == 2
        assert pow_ceil(257, Fraction(1, 8)) == 3
        assert pow_ceil(1, Fraction(1, 4)) == 1
        assert pow_ceil(10, Fraction(1, 1)) == 10


class TestLogsAndCeil:
    def test_floor_log2(self):
        assert floor_log2(Fraction(1)) == 0
        assert floor_log2(Fraction(3)) == 1
        assert floor_log2(Fraction(4)) == 2
        assert floor_log2(Fraction(1, 3)) == -2

    def test_ceil_log2_int(self):
        assert [ceil_log2_int(n) for n in (1, 2, 3, 4, 16, 17, 256)] == \
            [0, 1, 2, 2, 4, 5, 8]

    def test_ceil_fraction(self):
        assert ceil_fraction(Fraction(7, 2)) == 4
        assert ceil_fraction(Fraction(4, 2)) == 2
        assert ceil_fraction(Fraction(-7, 2)) == -3


def test_npow_decimal_accuracy():
    val = npow_decimal(256, Fraction(1, 8))
    assert abs(val - Decimal(2)) < Decimal("1e-40")


def test_npow_decimal_leaves_the_callers_precision_alone():
    with localcontext() as ctx:
        ctx.prec = 17
        assert len(npow_decimal(3, Fraction(1, 2)).as_tuple().digits) == 60
        assert getcontext().prec == 17


@settings(max_examples=120, deadline=None)
@given(count=st.integers(0, 5000), n=st.integers(1, 1000),
       p=st.integers(0, 7), q=st.integers(1, 7))
def test_comparisons_are_mutually_consistent(count, n, p, q):
    expo = Fraction(p, q)
    ge, le = count_ge_pow(count, n, expo), count_le_pow(count, n, expo)
    assert ge or le
    assert count_lt_pow(count, n, expo) == (not ge)
    k = pow_ceil(n, expo)
    assert count_ge_pow(k, n, expo)
    assert k == 0 or not count_ge_pow(k - 1, n, expo)
