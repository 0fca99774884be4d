"""Fuzzed decoding: any bits either fail with a typed error or re-encode to themselves."""

import hypothesis.strategies as st
from hypothesis import given

from lexdec import (
    BitString,
    DecodeError,
    ExponentLimitError,
    Kind,
    decode,
    decode_prefix_free_stream,
    encode,
    encode_prefix_free,
)

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
