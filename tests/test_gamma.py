"""The exponent field: its codewords, order, prefix property and round trip."""

import functools
import random

import pytest
from hypothesis import given
import hypothesis.strategies as st

from lexdec import (
    BitCursor,
    BitString,
    DecodeError,
    DecodeErrorKind,
    decode_exponent,
    encode_exponent,
    lex_compare,
)
from lexdec.codec import exponent_field_length

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


def test_golden_codewords():
    for k, expected in GOLDEN_CODEWORDS.items():
        assert encode_exponent(k - 2, False).bits.to_text() == expected


def test_decode_examples():
    for text, exponent, inverted in [
        ("100", 0, False),
        ("11010", 4, False),
        ("011", 0, True),
    ]:
        cursor = BitCursor(BitString(text + "111"))  # trailing junk must not be read
        field = decode_exponent(cursor)
        assert (field.exponent, field.inverted) == (exponent, inverted)
        assert cursor.position == len(text)


def test_decode_truncation():
    for text in ["11", "1101", "", "0010"]:
        with pytest.raises(DecodeError) as exc:
            decode_exponent(BitCursor(BitString(text)))
        assert exc.value.kind is DecodeErrorKind.TRUNCATED_INPUT


def test_golden_exponent_fields():
    for exponent, plain, flipped in GOLDEN_EXPONENT_FIELDS:
        assert encode_exponent(exponent, False).bits.to_text() == plain
        assert encode_exponent(exponent, True).bits.to_text() == flipped


def test_exponent_examples():
    assert encode_exponent(0, False).bits.to_text() == "100"
    assert encode_exponent(2, True).bits.to_text() == "00111"
    assert encode_exponent(9, False).bits.to_text() == "1110011"
    assert encode_exponent(5, True).bits.to_text() == "00100"


def test_decode_exponent_examples():
    # Field length is found from the run of identical leading bits: three
    # ones here, so the field spans seven bits.
    cursor = BitCursor(BitString("1110011" + "0100000000010100000011000101011001"))
    field = decode_exponent(cursor)
    assert (field.exponent, field.inverted) == (9, False)
    assert cursor.position == 7
    assert len(field.bits) == 7

    cursor = BitCursor(BitString("100" + "0001"))
    field = decode_exponent(cursor)
    assert (field.exponent, field.inverted) == (0, False)
    assert cursor.position == 3

    cursor = BitCursor(BitString("00111" + "1"))
    field = decode_exponent(cursor)
    assert (field.exponent, field.inverted) == (2, True)
    assert cursor.position == 5


def test_exponent_field_invariants():
    field = encode_exponent(9, False)
    assert len(field.bits) % 2 == 1
    assert len(field.bits) == 2 * (9 + 2).bit_length() - 1
    assert field.bits.to_text()[0] == "1"
    assert encode_exponent(9, True).bits.to_text()[0] == "0"


@pytest.mark.parametrize("exponent", [-1, -2, -5])
@pytest.mark.parametrize("invert", [False, True])
def test_encode_exponent_rejects_negative(exponent, invert):
    with pytest.raises(ValueError, match="^exponent must be non-negative$"):
        encode_exponent(exponent, invert)


def test_round_trip_exhaustive_to_one_million():
    for exponent in range(10**6 + 1):
        for invert in (False, True):
            field = encode_exponent(exponent, invert)
            cursor = BitCursor(field.bits)
            decoded = decode_exponent(cursor)
            assert decoded.exponent == exponent
            assert decoded.inverted is invert
            assert cursor.at_end()


@given(st.integers(10**6, 10**30), st.booleans())
def test_round_trip_large_sampled(exponent, invert):
    field = encode_exponent(exponent, invert)
    decoded = decode_exponent(BitCursor(field.bits))
    assert (decoded.exponent, decoded.inverted) == (exponent, invert)


@given(st.integers(0, 10**9), st.integers(0, 10**9))
def test_order_non_inverted(e1, e2):
    if e1 < e2:
        assert lex_compare(encode_exponent(e1, False).bits, encode_exponent(e2, False).bits) == -1


@given(st.integers(0, 10**9), st.integers(0, 10**9))
def test_order_inverted(e1, e2):
    if e1 < e2:
        assert lex_compare(encode_exponent(e1, True).bits, encode_exponent(e2, True).bits) == 1


def test_order_exhaustive_small():
    plain = [encode_exponent(e, False).bits for e in range(200)]
    flipped = [encode_exponent(e, True).bits for e in range(200)]
    ordered = sorted(plain, key=functools.cmp_to_key(lex_compare))
    assert ordered == plain
    ordered = sorted(flipped, key=functools.cmp_to_key(lex_compare), reverse=True)
    assert ordered == flipped


@pytest.mark.parametrize("invert", [False, True])
def test_prefix_code_property(invert):
    codes = [encode_exponent(e, invert).bits.to_text() for e in range(256)]
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
            stream = stream + encode_exponent(e, invert).bits
        cursor = BitCursor(stream)
        decoded = []
        while not cursor.at_end():
            decoded.append(decode_exponent(cursor).exponent)
        assert decoded == exponents


@given(st.integers(0, 10**12), st.booleans())
def test_length_law(exponent, invert):
    bits = encode_exponent(exponent, invert).bits
    n = (exponent + 2).bit_length()
    assert len(bits) == 2 * n - 1
    assert len(bits) == exponent_field_length(exponent)
