"""Encoded-size measurements over log-spaced integers.

The sample points are exact: the j-th of n points spanning ``[1, 10**d]`` is
``floor(10 ** (d*j/(n-1)))``. Each is seeded from a decimal power carried a
few digits past its own length. A seed whose fraction is clear of a whole
number by more than its proven error gives the floor at once; any other is
corrected by whole steps until integer arithmetic proves it is the floor, so
arbitrarily large samples stay precise.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Context, Decimal
from fractions import Fraction

from .codec import canonical_bit_length, encode, exponent_field_length
from .decimal_values import DecimalValue, parse_decimal

__all__ = [
    "BenchRow",
    "decimal_to_int",
    "log_spaced_integers",
    "measure",
    "size_rows",
]


@dataclass(frozen=True, slots=True)
class BenchRow:
    value: int
    measured_bits: int
    law_bits: int
    approx_bits: float
    exponent_bits: int


_SEED_MARGIN = Decimal("1e-10")


def _power_of_ten_floor(t: int, n: int) -> int:
    """floor(10 ** (t/n)) for t >= 0, n >= 1, exactly.

    When n divides t the power is an integer. Otherwise 10 ** x, x = t/n, is
    irrational, and the seed, carried to p = q + 25 significant digits with
    q = floor(x), is within (12x + 1) * 1e-24 of it: the quotient x is off
    by at most half a unit in its last place, at most x * 1e-24 / 2 / 10**q,
    which moves 10 ** x by at most ln(10) * 10 ** x times that, under
    12x * 1e-24 since 10 ** x < 10 ** (q+1); the power adds at most one unit
    in its last place, 1e-24. For x < 1e12 that is under ``_SEED_MARGIN``,
    so a seed whose fractional part lies more than the margin from 0 and
    from 1 has the floor's integer part. Any other seed is corrected by
    whole steps until integer arithmetic proves the floor.
    """
    q, r = divmod(t, n)
    if not r:
        return 10**q
    context = Context(prec=q + 25)
    seed = context.power(Decimal(10), context.divide(t, n))
    root = int(seed)
    fraction = context.subtract(seed, root)
    if q < 10**12 and _SEED_MARGIN < fraction < 1 - _SEED_MARGIN:
        return root
    power = 10**t
    while root**n > power:
        root -= 1
    while (root + 1) ** n <= power:
        root += 1
    return root


def log_spaced_integers(max_value: int, samples: int) -> list[int]:
    """``samples`` ascending integers from 1 to ``max_value``, log-spaced, deduplicated."""
    if max_value < 1:
        raise ValueError("max_value must be >= 1")
    if samples <= 0:
        return []
    if samples == 1 or max_value == 1:
        return [max_value]
    # floor(log10(max_value)) without str(), which stops at 4,300 digits: the
    # bit-length estimate is never high, and below 2**(10**10) at most one low.
    decades = (max_value.bit_length() - 1) * 3010299956 // 10**10
    while 10 ** (decades + 1) <= max_value:
        decades += 1
    steps = samples - 1
    values = []
    for j in range(steps + 1):
        value = _power_of_ten_floor(decades * j, steps)
        if not values or value != values[-1]:
            values.append(value)
    if values[-1] != max_value:
        values.append(max_value)
    return values


def approx_bits(exponent: int, digit_count: int) -> Fraction:
    """The smooth size estimate 5 + 2*floor(log2(e+2)) + (10/3)*(n-1)."""
    return 5 + 2 * ((exponent + 2).bit_length() - 1) + Fraction(10, 3) * (digit_count - 1)


def measure(value: DecimalValue) -> BenchRow:
    bits = len(encode(value))
    form = value.form
    return BenchRow(
        value=decimal_to_int(value),
        measured_bits=bits,
        law_bits=canonical_bit_length(value),
        approx_bits=float(approx_bits(form.exponent, len(form.digits))),
        exponent_bits=exponent_field_length(form.exponent),
    )


def size_rows(max_value: int, samples: int) -> list[BenchRow]:
    return [
        measure(parse_decimal(str(v))) for v in log_spaced_integers(max_value, samples)
    ]


def decimal_to_int(value: DecimalValue) -> int:
    """The exact integer a finite value denotes; error if it has a fraction."""
    form = value.form
    shift = form.signed_exponent - (len(form.digits) - 1)
    if shift < 0:
        raise ValueError("value is not an integer")
    return (1 if form.sign > 0 else -1) * int(form.digits) * 10**shift
