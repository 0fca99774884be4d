"""Fuzzed decoding: any bits either fail with a typed error or re-encode to themselves."""

from unittest import mock

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from lexdec import (
    NAN,
    BitString,
    DecimalValue,
    DecodeError,
    ExponentLimitError,
    ExponentSign,
    Kind,
    ScientificForm,
    Sign,
    decode,
    decode_prefix_free_stream,
    encode,
    encode_prefix_free,
)
from lexdec import codec

from strategies import decimal_values

# Runs of one bit value reach the long exponent fields and the all-zero tails.
runs = st.lists(st.tuples(st.sampled_from("01"), st.integers(1, 400)), min_size=1, max_size=4).map(
    lambda pairs: "".join(bit * count for bit, count in pairs)
)
encodings = st.one_of(
    decimal_values().map(lambda v: encode(v).to_text()),
    decimal_values().map(lambda v: encode(v, trim=True).to_text()),
    decimal_values().map(lambda v: encode_prefix_free(v).to_text()),
)


@st.composite
def bit_texts(draw):
    """A few pieces of noise, runs and valid encodings, with at most one bit flipped."""
    pieces = st.one_of(st.text("01", max_size=64), runs, encodings)
    text = "".join(draw(st.lists(pieces, min_size=1, max_size=4)))
    if text and draw(st.booleans()):
        i = draw(st.integers(0, len(text) - 1))
        text = text[:i] + "10"[int(text[i])] + text[i + 1 :]
    return text


packed = st.one_of(
    st.binary(max_size=64),
    st.builds(lambda byte, n: byte * n, st.sampled_from([b"\x00", b"\xff", b"\x80", b"\x7f"]), st.integers(1, 64)),
)


def check_decode(text: str, trim: bool) -> None:
    try:
        value = decode(BitString(text), trim=trim)
    except (DecodeError, ExponentLimitError):
        return
    canonical = encode(value).to_text()
    if value.kind is not Kind.FINITE:
        assert text == canonical
    elif trim:
        # A short last group was zero-extended, or zero bits were appended.
        assert text.rstrip("0") == canonical.rstrip("0")
    else:
        # Only an all-zero tail is tolerated.
        assert text.startswith(canonical) and not text[len(canonical) :].strip("0")


def check_stream(text: str) -> None:
    try:
        values = decode_prefix_free_stream(BitString(text))
    except (DecodeError, ExponentLimitError):
        return
    stream = BitString()
    for value in values:
        stream = stream + encode_prefix_free(value)
    assert stream == BitString(text)


@given(bit_texts())
def test_decode(text):
    check_decode(text, trim=False)


@given(bit_texts())
def test_decode_trimmed(text):
    check_decode(text, trim=True)


@given(bit_texts())
# -1.224 whose chain goes on into a zero declet, then -9.015: once decoded as
# the two values, which re-encode 11 bits shorter.
@example("00011100011100001000100000000000000110000111110110010")
def test_decode_prefix_free_stream(text):
    check_stream(text)


@given(packed, st.integers(-1, 7))
def test_from_bytes(data, pad):
    bit_length = 8 * len(data) - pad
    try:
        bits = BitString.from_bytes(data, bit_length)
    except ValueError:
        assert bit_length < 0 or pad < 0 or int.from_bytes(data, "big") & ((1 << pad) - 1)
        return
    assert bits.to_bytes() == (data, bit_length)
    text = bits.to_text()
    check_decode(text, trim=False)
    check_decode(text, trim=True)
    check_stream(text)


@st.composite
def long_values(draw):
    """Finite values of 100 to 1,000 digits, longer than the stream
    splitter's first window."""
    digits = str(draw(st.integers(10**98, 10**999 - 1))) + str(draw(st.integers(1, 9)))
    exponent = draw(st.integers(0, 10**6))
    negative_exponent = exponent > 0 and draw(st.booleans())
    form = ScientificForm(
        sign=draw(st.sampled_from(Sign)),
        exponent_sign=ExponentSign.NEGATIVE if negative_exponent else ExponentSign.NON_NEGATIVE,
        exponent=exponent,
        digits=digits,
    )
    return DecimalValue.finite(form)


def stream_outcome(text: str):
    """The values a stream splits into, or its error's type, kind and position."""
    try:
        return decode_prefix_free_stream(BitString(text))
    except DecodeError as error:
        return type(error), error.kind, error.position
    except ExponentLimitError as error:
        return type(error), str(error)


@pytest.mark.parametrize(
    "window_bytes", [codec._WINDOW_BYTES, 1], ids=["first-window", "one-byte-window"]
)
@pytest.mark.parametrize("offset", range(8))
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_stream_reads_through_windows(window_bytes, offset, data):
    # A one-byte first window makes nearly every read retry.
    with mock.patch.object(codec, "_WINDOW_BYTES", window_bytes):
        check_stream_windows(offset, data)


def check_stream_windows(offset, data):
    # NaN is 3 bits and 3 is its own inverse mod 8, so 3 * offset % 8 NaNs in
    # front put the first long value at bit ``offset`` of a byte.
    values = [NAN] * (3 * offset % 8) + data.draw(st.lists(long_values(), min_size=1, max_size=4))
    texts = [encode_prefix_free(value).to_text() for value in values]
    assert decode_prefix_free_stream(BitString("".join(texts))) == values

    # Flip one bit of value k, or cut the stream inside it. From there on the
    # stream holds the same bits as ``rest``, read alone from bit 0, so it
    # must split the same way, its errors shifted by the bits before value k.
    k = data.draw(st.integers(3 * offset % 8, len(values) - 1))
    before = "".join(texts[:k])
    i = data.draw(st.integers(0, len(texts[k]) - 1))
    if data.draw(st.booleans()):
        flipped = texts[k][:i] + "10"[int(texts[k][i])] + texts[k][i + 1 :]
        rest = flipped + "".join(texts[k + 1 :])
    else:
        rest = texts[k][:i]
    expected = stream_outcome(rest)
    got = stream_outcome(before + rest)
    if isinstance(expected, list):
        assert got == values[:k] + expected
    elif expected[0] is DecodeError:
        assert got == (DecodeError, expected[1], expected[2] + len(before))
    else:
        assert got == expected
