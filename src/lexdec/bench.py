"""Encoded-size measurements over log-spaced integers.

The sample points are exact: the j-th of n points spanning ``[1, 10**d]`` is
``floor(10 ** (d*j/(n-1)))``. Each is seeded from a decimal power carried a
few digits past its own length, then corrected by whole steps until integer
arithmetic proves it is the floor, so arbitrarily large samples stay precise.
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


def _power_of_ten_floor(t: int, n: int) -> int:
    """floor(10 ** (t/n)) for t >= 0, n >= 1, exactly."""
    # 25 digits past the result's own leave the seed only steps from the floor.
    context = Context(prec=t // n + 25)
    root = int(context.power(Decimal(10), context.divide(t, n)))
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
    decades = len(str(max_value)) - 1
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
