"""Fuzzed decoding: any bits either fail with a typed error or re-encode to themselves."""

import functools
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
    compare_numeric,
    encode,
    encode_prefix_free,
    lex_compare,
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


# The 5-bit heads (sign header and exponent field) of |e| <= 1: 10 100 and
# 00 011 for e = 0, the other four for e = 1 under either exponent sign.
SMALL_EXPONENT_HEADS = (0b10100, 0b00011, 0b10101, 0b10010, 0b00010, 0b00101)


def inputs_of_length(length):
    """Every bit string of ``length`` bits, as its integer and length."""
    return ((value, length) for value in range(1 << length))


def short_inputs():
    """Every bit string of at most 14 bits."""
    return (pair for length in range(15) for pair in inputs_of_length(length))


def headed_inputs():
    """Every 16-bit tail behind each of the small-exponent heads."""
    return ((head << 16 | tail, 21) for head in SMALL_EXPONENT_HEADS for tail in range(1 << 16))


# Each framing's decoder, as a list of values; its encoder; and whether zero
# bits after a finite value's encoding are padding.
LANGUAGES = {
    "canonical": (lambda bits: [decode(bits)], encode, True),
    "trimmed": (
        lambda bits: [decode(bits, trim=True)],
        functools.partial(encode, trim=True),
        True,
    ),
    "prefix_free": (decode_prefix_free_stream, encode_prefix_free, False),
}


def check_language(framing, inputs, accepted=None):
    """Decode each ``(value, length)`` input under ``framing``, and return
    the inputs that neither re-encode to themselves, up to a zero tail where
    that is padding, nor fail with a typed error inside the input. The
    values that the accepted inputs decode to are added to ``accepted``."""
    read, write, padded = LANGUAGES[framing]
    bad = []
    for value, length in inputs:
        try:
            values = read(BitString._raw(value, length))
        except ExponentLimitError:
            continue
        except DecodeError as error:
            if not 0 <= error.position <= length:
                bad.append((format(value, f"0{length}b"), error))
            continue
        # Re-encoded from the left, as integers; then the tail left over.
        rest, written = length, 0
        for decoded in values:
            bits = write(decoded)
            rest -= len(bits)
            if rest < 0:
                break
            written |= bits._value << rest
        if rest < 0 or written != value or (rest and not (padded and decoded.kind is Kind.FINITE)):
            bad.append((format(value, f"0{length}b"), values))
        elif accepted is not None:
            accepted.update(values)
    return bad


@functools.cache
def short_language(framing):
    """:func:`check_language` over every input of at most 14 bits, and the
    values they decode to; read once for the two tests that use them."""
    accepted = set()
    return check_language(framing, short_inputs(), accepted), accepted


@pytest.mark.parametrize(
    "framing, inputs",
    [
        ("canonical", short_inputs),
        ("trimmed", short_inputs),
        ("prefix_free", short_inputs),
        ("prefix_free", headed_inputs),
    ],
    ids=["canonical-short", "trimmed-short", "prefix_free-short", "prefix_free-headed"],
)
def test_every_short_input_is_an_encoding_or_a_typed_error(framing, inputs):
    # Sampling can miss a fault whose smallest witness is short: a stream
    # whose chain of groups ran on into a zero declet, 21 bits behind one of
    # the heads above, once decoded, and the tests above did not find it
    # for a long time. An enumeration meets it at once.
    if inputs is short_inputs:
        bad, _ = short_language(framing)
    else:
        bad = check_language(framing, inputs())
    assert not bad, f"{len(bad)} inputs, the first {bad[:3]}"


# Adjacent keys whose values are not below one another: both zeros are equal
# as numbers, and NaN, whose key sorts last, compares with nothing.
KEY_NEIGHBOURS = {(Kind.NEGATIVE_ZERO, Kind.POSITIVE_ZERO): 0, (Kind.POSITIVE_INFINITY, Kind.NAN): None}


def test_short_encodings_sort_in_numeric_order():
    # Every value that an input of at most 14 bits decodes to, under any
    # framing, sorted by its canonical key: each adjacent pair of keys must
    # be in numeric order, so n log n work checks all pairs. Canonical keys
    # only: a zero-padded input and its canonical key decode to the same
    # value but compare unequal, by design, as a strict prefix sorts first.
    values = set().union(*(short_language(framing)[1] for framing in LANGUAGES))
    keyed = sorted(
        ((encode(value), value) for value in values),
        key=functools.cmp_to_key(lambda a, b: lex_compare(a[0], b[0])),
    )
    wrong = []
    for (low_key, low), (high_key, high) in zip(keyed, keyed[1:]):
        expected = KEY_NEIGHBOURS.get((low.kind, high.kind), -1)
        if lex_compare(low_key, high_key) != -1 or compare_numeric(low, high) != expected:
            wrong.append((low_key.to_text(), high_key.to_text()))
    assert len(values) > 1000 and not wrong, wrong[:3]


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
