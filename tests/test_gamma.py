"""The exponent field: its codewords, order, prefix property and round trip."""

import functools
import random

import pytest
from hypothesis import given
import hypothesis.strategies as st

from lexdec import (
    BitString,
    DecodeError,
    DecodeErrorKind,
    ExponentSign,
    ScientificForm,
    Sign,
    lex_compare,
)
from lexdec.codec import _field_ends, _read_exponent, encode_exponent, exponent_field

from golden import EXPONENT_FIELD_TABLE as GOLDEN_EXPONENT_FIELDS

# Codewords of k = e+2 for the smallest exponent fields. The k = 4 row follows
# from the construction (binary 100 -> two ones, a zero, then "00"); its
# length must match its neighbours at the same bit count.
GOLDEN_CODEWORDS = {
    2: "100",
    3: "101",
    4: "11000",
    5: "11001",
    6: "11010",
}


def field_text(exponent, invert):
    """The exponent field as ``0``/``1`` text, from the integer writer."""
    code, width = exponent_field(exponent, invert)
    return format(code, f"0{width}b")


def field_bits(exponent, invert):
    return BitString._raw(*exponent_field(exponent, invert))


def read_field(bits, position=0):
    """``(exponent, inverted, end)`` of the field at ``position`` in a bit
    string, by the decoder's integer reader. Read as a positive value's
    field, its exponent sign is negative exactly when it is flipped; no
    field of the input reaches the limit 2**length."""
    value, length = bits._value, bits._length
    exponent_sign, exponent, end = _read_exponent(value, length, position, False, 1 << length)
    return exponent, exponent_sign is ExponentSign.NEGATIVE, end


def test_golden_codewords():
    for k, expected in GOLDEN_CODEWORDS.items():
        assert field_text(k - 2, False) == expected


def test_decode_examples():
    for text, exponent, inverted in [
        ("100", 0, False),
        ("11010", 4, False),
        ("011", 0, True),
    ]:
        # Trailing junk must not be read.
        assert read_field(BitString(text + "111")) == (exponent, inverted, len(text))


def test_decode_truncation():
    for text in ["11", "1101", "", "0010"]:
        with pytest.raises(DecodeError) as exc:
            read_field(BitString(text))
        assert exc.value.kind is DecodeErrorKind.TRUNCATED_INPUT


def test_golden_exponent_fields():
    for exponent, plain, flipped in GOLDEN_EXPONENT_FIELDS:
        assert field_text(exponent, False) == plain
        assert field_text(exponent, True) == flipped


def test_exponent_examples():
    assert field_text(0, False) == "100"
    assert field_text(2, True) == "00111"
    assert field_text(9, False) == "1110011"
    assert field_text(5, True) == "00100"


def test_decode_exponent_examples():
    # Field length is found from the run of identical leading bits: three
    # ones here, so the field spans seven bits.
    bits = BitString("1110011" + "0100000000010100000011000101011001")
    assert read_field(bits) == (9, False, 7)
    assert field_text(9, False) == "1110011"
    assert read_field(BitString("100" + "0001")) == (0, False, 3)
    assert read_field(BitString("00111" + "1")) == (2, True, 5)


def test_exponent_field_invariants():
    text = field_text(9, False)
    assert len(text) % 2 == 1
    assert len(text) == 2 * (9 + 2).bit_length() - 1
    assert text[0] == "1"
    assert field_text(9, True)[0] == "0"


@pytest.mark.parametrize("exponent", [-1, -2, -5])
@pytest.mark.parametrize("invert", [False, True])
def test_encode_exponent_rejects_negative(exponent, invert):
    # The adapter's own check; the integer writer trusts its callers.
    with pytest.raises(ValueError, match="^exponent must be non-negative$"):
        encode_exponent(exponent, invert)


def test_round_trip_exhaustive_to_one_million():
    for exponent in range(10**6 + 1):
        for invert in (False, True):
            bits = field_bits(exponent, invert)
            assert read_field(bits) == (exponent, invert, len(bits))


@given(st.integers(10**6, 10**30), st.booleans())
def test_round_trip_large_sampled(exponent, invert):
    bits = field_bits(exponent, invert)
    assert read_field(bits) == (exponent, invert, len(bits))


@given(st.integers(0, 10**9), st.integers(0, 10**9))
def test_order_non_inverted(e1, e2):
    if e1 < e2:
        assert lex_compare(field_bits(e1, False), field_bits(e2, False)) == -1


@given(st.integers(0, 10**9), st.integers(0, 10**9))
def test_order_inverted(e1, e2):
    if e1 < e2:
        assert lex_compare(field_bits(e1, True), field_bits(e2, True)) == 1


def test_order_exhaustive_small():
    plain = [field_bits(e, False) for e in range(200)]
    flipped = [field_bits(e, True) for e in range(200)]
    ordered = sorted(plain, key=functools.cmp_to_key(lex_compare))
    assert ordered == plain
    ordered = sorted(flipped, key=functools.cmp_to_key(lex_compare), reverse=True)
    assert ordered == flipped


@pytest.mark.parametrize("invert", [False, True])
def test_prefix_code_property(invert):
    codes = [field_text(e, invert) for e in range(256)]
    for i, a in enumerate(codes):
        for j, b in enumerate(codes):
            if i != j:
                assert not b.startswith(a)


def test_concatenations_split_unambiguously():
    rng = random.Random(11)
    for _ in range(200):
        exponents = [rng.randint(0, 10**6) for _ in range(rng.randint(1, 8))]
        invert = rng.random() < 0.5
        stream = BitString("")
        for e in exponents:
            stream = stream + field_bits(e, invert)
        decoded = []
        position = 0
        while position < len(stream):
            exponent, _, position = read_field(stream, position)
            decoded.append(exponent)
        assert decoded == exponents


@given(st.integers(0, 10**12), st.booleans())
def test_length_law(exponent, invert):
    width = exponent_field(exponent, invert)[1]
    n = (exponent + 2).bit_length()
    assert width == 2 * n - 1
    header_end, exponent_end, _ = _field_ends(
        ScientificForm(Sign.POSITIVE, ExponentSign.NON_NEGATIVE, exponent, "1")
    )
    assert width == exponent_end - header_end
