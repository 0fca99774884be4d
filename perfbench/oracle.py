"""An output oracle built on the standard library's ``decimal`` module.

It shares no code with lexdec. Values compare by number, negative zero sorts
just below positive zero, and NaN sorts after everything, as the encoding
orders them.
"""

from __future__ import annotations

from collections import Counter
from decimal import Decimal


def value(text: str) -> Decimal:
    return Decimal(text)


def same(a: Decimal, b: Decimal) -> bool:
    """Equal numbers with equal signs; all NaNs are the same value."""
    if a.is_nan() or b.is_nan():
        return a.is_nan() and b.is_nan()
    return a == b and a.is_signed() == b.is_signed()


def sort_key(d: Decimal) -> tuple:
    if d.is_nan():
        return (1,)
    return (0, d, d.is_zero() and not d.is_signed())


def misordered(values: list[Decimal]) -> int:
    """Number of adjacent pairs whose first member sorts after the second."""
    keys = [sort_key(d) for d in values]
    return sum(1 for a, b in zip(keys, keys[1:]) if a > b)


def key_bits(d: Decimal) -> int:
    """Length of the canonical encoding by the paper's length law.

    ``2 + (2*floor(log2(e+2)) + 1) + 4 + 10*ceil((n-1)/3)`` for a finite
    non-zero value with ``n`` significant digits and exponent magnitude ``e``;
    3 bits for NaN and 2 for the zeros and infinities.
    """
    if d.is_nan():
        return 3
    if d.is_zero() or d.is_infinite():
        return 2
    n = len("".join(map(str, d.as_tuple().digits)).rstrip("0"))
    exponent = abs(d.adjusted())
    return 2 + 2 * (exponent + 2).bit_length() - 1 + 4 + 10 * ((n - 1 + 2) // 3)


def cli_sort_failures(input_lines: list[str], output: str, returncode: int) -> int:
    """Count the ways a ``sort`` run is wrong: exit code, lost or invented
    lines, and adjacent output lines out of numeric order."""
    failures = int(returncode != 0)
    lines = output.splitlines()
    wanted = Counter(line for line in input_lines if line.strip())
    got = Counter(lines)
    failures += sum(((wanted - got) + (got - wanted)).values())
    try:
        failures += misordered([value(line) for line in lines])
    except ArithmeticError:  # a line the oracle cannot even read
        failures += 1
    return failures
