"""Every encoder against the paper's layout, as ``paper_model`` writes it."""

import random

import pytest
from hypothesis import given

from lexdec import (
    DecimalValue,
    ExponentSign,
    KeyWidthError,
    ScientificForm,
    Sign,
    canonical_bit_length,
    fixed_width_key,
    parse_decimal,
)
from lexdec.selftest import random_finite

import paper_model
from golden import EXPONENT_FIELD_TABLE, SMALL_INTEGER_TABLE, WORKED_EXAMPLES
from strategies import FRAMINGS, SPECIALS, as_decimal, decimal_values


def finite(sign, exponent, digits):
    """The value ``sign * digits[0].digits[1:] * 10**exponent``."""
    exponent_sign = ExponentSign.NEGATIVE if exponent < 0 else ExponentSign.NON_NEGATIVE
    return DecimalValue.finite(ScientificForm(sign, exponent_sign, abs(exponent), digits))


def check(value):
    """``value``'s encodings in the three framings, its canonical length and
    its fixed-width keys, cut or too narrow and padded, are the model's."""
    length = canonical_bit_length(value)
    widths = {length // 8 * 8 or 8, -(-length // 8) * 8}
    outputs = {framing: write(value).to_text() for framing, (write, *_) in FRAMINGS.items()}
    for width in widths:
        try:
            outputs[width] = format(int.from_bytes(fixed_width_key(value, width)), f"0{width}b")
        except KeyWidthError:
            outputs[width] = None
    assert outputs == paper_model.encodings(as_decimal(value), widths)
    assert len(outputs["canonical"]) == length


@pytest.mark.parametrize("text, bits", WORKED_EXAMPLES + SMALL_INTEGER_TABLE, ids=lambda row: row)
def test_golden_tables(text, bits):
    assert paper_model.encodings(text)["canonical"] == bits.replace(" ", "")
    check(parse_decimal(text))


@pytest.mark.parametrize("exponent, plain, flipped", EXPONENT_FIELD_TABLE, ids=lambda row: row)
def test_exponent_field_table(exponent, plain, flipped):
    assert paper_model.exponent_field(exponent, False) == plain
    assert paper_model.exponent_field(exponent, True) == flipped


@pytest.mark.parametrize("special", SPECIALS, ids=lambda special: special.kind.name.lower())
def test_specials(special):
    check(special)


@given(decimal_values())
def test_decimal_values(value):
    check(value)


def test_seeded_random_values():
    rng = random.Random(32)
    for _ in range(2000):
        check(random_finite(rng))


SIGNS = pytest.mark.parametrize("sign", Sign, ids=lambda sign: sign.name.lower())
EXPONENTS = pytest.mark.parametrize("exponent", [3, -3], ids=["e_positive", "e_negative"])


@SIGNS
@EXPONENTS
def test_every_declet_text(sign, exponent):
    # Each three-digit text as a group before the last, all in one value,
    # and as the last group, where it may be cut short and padded.
    texts = [f"{declet:03d}" for declet in range(1000)]
    for digits in ["7" + "".join(texts) + "1"] + ["7" + text.rstrip("0") for text in texts]:
        check(finite(sign, exponent, digits))


@SIGNS
@EXPONENTS
def test_every_declet_count_to_130(sign, exponent):
    # Past the packer's blocks of 64 groups, whole and one or two digits
    # short; odd, so no text ends in 0.
    rng = random.Random(130)
    for count in range(131):
        for length in {max(1, 3 * count - 1), max(1, 3 * count), 3 * count + 1}:
            check(finite(sign, exponent, str(rng.randrange(10 ** (length - 1), 10**length) | 1)))


@SIGNS
def test_long_significand(sign):
    # 10,001 digits, past the 4,300 that int() converts.
    check(finite(sign, 25, "1" + "0123456789" * 1000))


@SIGNS
@pytest.mark.parametrize("exponent_sign", [1, -1], ids=["e_positive", "e_negative"])
def test_extreme_exponents(sign, exponent_sign):
    # |e| up to the default limit of 2**32.
    for exponent in range(2**32 - 2, 2**32 + 1):
        check(finite(sign, exponent_sign * exponent, "15"))
