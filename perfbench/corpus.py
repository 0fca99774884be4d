"""Seeded input generators for the benchmark workloads.

The benchmark owns its generators, so its inputs stay the same whatever
happens to the library's own test helpers. Every generator is a pure
function of its ``random.Random``; the same seed gives the same inputs.
"""

from __future__ import annotations

import random

DIGITS = "0123456789"

#: Special spellings, one per special value.
SPECIALS = ("0", "-0", "INF", "-INF", "NaN")
#: The specials that delimit themselves anywhere in a prefix-free stream.
#: ``INF`` read before a ``1`` bit decodes as NaN, and ``0`` or ``-INF``
#: decode as themselves only at the end of a stream, so streams leave them out.
STREAM_SPECIALS = ("-0", "NaN")

SPECIAL_SHARE = 0.03
MAX_WIDE_DIGITS = 60
MAX_WIDE_EXPONENT_DIGITS = 6  # |e| <= 10**6 - 1

MAX_SHORT_DIGITS = 12
MAX_SHORT_PLACES = 4
SHORT_ZEROS = ("0", "-0", "0.00", "-0.0")
SHORT_ZERO_SHARE = 0.02
SHORT_REPEAT_SHARE = 0.05


def rng_for(workload: str, seed: int) -> random.Random:
    """An independent generator per workload, so each draws its own inputs."""
    return random.Random(f"{workload}:{seed}")


def wide_numeral(rng: random.Random, specials: tuple[str, ...] = SPECIALS) -> str:
    """A numeral with 1-60 significant digits and |e| <= 10**6, or a special.

    Both signs and both exponent signs occur equally often; the exponent is
    log-uniform so that short and long exponent fields both appear.
    """
    if rng.random() < SPECIAL_SHARE:
        return rng.choice(specials)
    n = rng.randint(1, MAX_WIDE_DIGITS)
    digits = str(rng.randint(1, 9))
    if n > 1:
        digits += "".join(rng.choices(DIGITS, k=n - 2)) + str(rng.randint(1, 9))
    exponent = int(10 ** rng.uniform(0, MAX_WIDE_EXPONENT_DIGITS)) - 1
    sign = "-" if rng.random() < 0.5 else ""
    exponent_sign = "-" if exponent and rng.random() < 0.5 else ""
    mantissa = digits[0] + ("." + digits[1:] if n > 1 else "")
    return f"{sign}{mantissa}E{exponent_sign}{exponent}"


def wide_numerals(rng: random.Random, count: int, specials=SPECIALS) -> list[str]:
    return [wide_numeral(rng, specials) for _ in range(count)]


def short_numeral(rng: random.Random) -> str:
    """A plain numeral with 1-12 digits and up to 4 decimal places, or a zero."""
    if rng.random() < SHORT_ZERO_SHARE:
        return rng.choice(SHORT_ZEROS)
    total = rng.randint(1, MAX_SHORT_DIGITS)
    places = rng.randint(0, min(MAX_SHORT_PLACES, total))
    whole_digits = total - places
    whole = (
        str(rng.randint(10 ** (whole_digits - 1), 10**whole_digits - 1))
        if whole_digits
        else "0"
    )
    fraction = "." + "".join(rng.choices(DIGITS, k=places)) if places else ""
    sign = "-" if rng.random() < 0.5 else ""
    return sign + whole + fraction


def short_lines(rng: random.Random, count: int) -> list[str]:
    """Short numerals in which about 5% of lines repeat an earlier line."""
    lines: list[str] = []
    for _ in range(count):
        if lines and rng.random() < SHORT_REPEAT_SHARE:
            lines.append(rng.choice(lines))
        else:
            lines.append(short_numeral(rng))
    return lines
