"""Exact comparisons of integer counts against fractional powers of n.

Thresholds like n^(1/k) are irrational in general, so float powers are not
trustworthy at the boundaries (3125**(1/5) evaluates slightly above 5.0).
Every comparison here is done in big-integer arithmetic: for expo = p/q,
count >= n^(p/q) iff count^q >= n^p. Sums of several such powers, which have
no integer reformulation, go through Decimal with generous precision.
"""

from __future__ import annotations

from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Union

Rational = Union[int, float, str, Fraction]


# the most decimal digits Python converts between an int and text by
# default; a decimal exponent is held to it too, since 10^exponent is built
MAX_DIGITS = 4300


def as_fraction(x: Rational) -> Fraction:
    """Exact rational from int, Fraction, decimal string, or 'p/q' string;
    a q of 0 is a ValueError, like any other malformed string, and so is an
    exponent past MAX_DIGITS, as in 1e-999999999.

    Floats are converted through their shortest repr so that 0.34 means
    34/100, not the binary expansion of the double.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(repr(x))
    if isinstance(x, str):
        if "/" in x:
            num, den = map(int, x.split("/", 1))
            if not den:
                raise ValueError(f"{x!r} has a zero denominator")
            return Fraction(num, den)
        exponent = x.lower().partition("e")[2].strip().lstrip("+-")
        if exponent.isdecimal() and int(exponent) > MAX_DIGITS:
            raise ValueError(f"{x!r} has an exponent past {MAX_DIGITS}")
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as a rational")


def count_ge_pow(count: int, n: int, expo: Fraction) -> bool:
    """count >= n**expo, exactly."""
    if count < 0:
        raise ValueError("count must be nonnegative")
    p, q = expo.numerator, expo.denominator
    if p >= 0:
        return count ** q >= n ** p
    return count ** q * n ** (-p) >= 1


def count_gt_pow(count: int, n: int, expo: Fraction) -> bool:
    p, q = expo.numerator, expo.denominator
    if p >= 0:
        return count ** q > n ** p
    return count ** q * n ** (-p) > 1


def count_le_pow(count: int, n: int, expo: Fraction) -> bool:
    return not count_gt_pow(count, n, expo)


def count_lt_pow(count: int, n: int, expo: Fraction) -> bool:
    return not count_ge_pow(count, n, expo)


def pow_ceil(n: int, expo: Fraction) -> int:
    """Smallest integer >= n**expo (n >= 1, expo >= 0)."""
    if n < 1 or expo < 0:
        raise ValueError("need n >= 1 and expo >= 0")
    k = int(float(n) ** float(expo))
    while not count_ge_pow(k, n, expo):
        k += 1
    while k > 0 and count_ge_pow(k - 1, n, expo):
        k -= 1
    return k


def floor_log2(x: Fraction) -> int:
    """Largest k with 2**k <= x, for positive rational x."""
    if x <= 0:
        raise ValueError("need x > 0")
    k = 0
    if x >= 1:
        while Fraction(2) ** (k + 1) <= x:
            k += 1
    else:
        while Fraction(2) ** k > x:
            k -= 1
    return k


def ceil_fraction(x: Fraction) -> int:
    return -((-x.numerator) // x.denominator)


def ceil_log2_int(n: int) -> int:
    """ceil(log2(n)) for n >= 1."""
    if n < 1:
        raise ValueError("need n >= 1")
    return (n - 1).bit_length()


def npow_decimal(n: int, expo: Fraction) -> Decimal:
    """n**expo as a Decimal with 60 significant digits; the caller's
    decimal context is left as it was.

    Used only where several fractional powers must be summed; single-term
    comparisons should use the exact count_*_pow functions instead.
    """
    if n == 0:
        return Decimal(0)
    with localcontext() as ctx:
        ctx.prec = 60
        return (Decimal(expo.numerator) / Decimal(expo.denominator)
                * Decimal(n).ln()).exp()
