"""Fuzzed decoding: any bits either fail with a typed error or re-encode to themselves."""

import bisect
import functools
import itertools
import random
from unittest import mock

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from lexdec import (
    NAN,
    NEGATIVE_ZERO,
    BitString,
    DecimalValue,
    DecodeError,
    DecodeErrorKind,
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
from lexdec.selftest import random_finite

from strategies import FRAMINGS, decimal_values

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


def check_language(framing, inputs, accepted=None):
    """Decode each ``(value, length)`` input under ``framing``, and return
    the inputs that neither re-encode to themselves, up to a zero tail where
    that is padding, nor fail with a typed error inside the input. The
    values that the accepted inputs decode to are added to ``accepted``."""
    write, read, _, padded = FRAMINGS[framing]
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
    [(framing, inputs) for inputs in (short_inputs, headed_inputs) for framing in FRAMINGS],
    ids=[f"{framing}-{inputs}" for inputs in ("short", "headed") for framing in FRAMINGS],
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
    values = set().union(*(short_language(framing)[1] for framing in FRAMINGS))
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
    splitter's first view."""
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
    # A one-byte first view makes nearly every read widen.
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
    assert stream_outcome(before + rest) == joined_outcome(values[:k], len(before), rest)


def joined_outcome(values_before, bits_before, rest):
    """What a stream must split into that is ``values_before``, taking
    ``bits_before`` bits, then ``rest``: those values and the values of
    ``rest``, or the error ``rest`` alone gives, its position shifted."""
    expected = stream_outcome(rest)
    if isinstance(expected, list):
        return values_before + expected
    if expected[0] is DecodeError:
        return DecodeError, expected[1], expected[2] + bits_before
    return expected


def wide_values(seed, count):
    """``count`` seeded values drawn as the benchmark's wide values are: 1 to
    60 digits, a log-uniform bound on |e| below 10**6, both signs of each,
    and one in 33 a negative zero or a NaN."""
    rng = random.Random(seed)
    return [
        rng.choice((NEGATIVE_ZERO, NAN))
        if rng.random() < 0.03
        else random_finite(rng, max_exponent=int(10 ** rng.uniform(0, 6)) - 1)
        for _ in range(count)
    ]


def chunk_ends(texts, window_bytes):
    """Where the splitter's chunks for first views end inside the stream of
    ``texts``: it reads ``4 * window_bytes`` bytes from a value's first byte
    when the value's view, its first ``8 * window_bytes`` bits, ends past
    the last chunk, and it drops the chunk after a value longer than its
    view, which it read through wider views."""
    length = sum(map(len, texts))
    view = 8 * window_bytes
    ends, end, position = [], 0, 0
    for text in texts:
        if end < position + view <= length:
            end = 8 * min((position >> 3) + 4 * window_bytes, (length + 7) // 8)
            if end < length:
                ends.append(end)
        if len(text) > view:
            end = 0
        position += len(text)
    return ends


def wide_stream_faults(values, flips):
    """What the splitter, at the current view size, gets wrong on the
    stream of ``values``: the split itself, then, for each bit position in
    ``flips``, the stream with that bit flipped, judged as
    ``check_stream_windows`` judges it."""
    texts = [encode_prefix_free(value).to_text() for value in values]
    stream = "".join(texts)
    faults = [] if decode_prefix_free_stream(BitString(stream)) == values else ["split"]
    starts = list(itertools.accumulate(map(len, texts), initial=0))
    for flip in flips:
        k = bisect.bisect_right(starts, flip) - 1  # the value holding the bit
        rest = stream[starts[k] : flip] + "10"[int(stream[flip])] + stream[flip + 1 :]
        expected = joined_outcome(values[:k], starts[k], rest)
        if stream_outcome(stream[: starts[k]] + rest) != expected:
            faults.append(f"bit {flip}")
    return faults


@pytest.mark.parametrize("window_bytes", [codec._WINDOW_BYTES, 2, 1])
def test_wide_stream_splits_through_chunks(window_bytes):
    # About 2,000 values of at most a few hundred bits carry each chunk
    # across several values. Bits on either side of the last two chunk ends
    # are flipped: a view cut from a chunk's last bits, or the first read
    # after a refill, meets them.
    values = wide_values(1, 2000)
    with mock.patch.object(codec, "_WINDOW_BYTES", window_bytes):
        texts = [encode_prefix_free(value).to_text() for value in values]
        ends = chunk_ends(texts, window_bytes)
        assert len(ends) > 50
        flips = [bit for end in ends[-2:] for bit in (end - 1, end)]
        assert not wide_stream_faults(values, flips)


def test_a_value_past_its_view_is_read_once_per_wider_window(monkeypatch):
    # 200 values of 1,000 digits, 3,600-odd bits each: the 512-bit view cuts
    # each short, and each cut doubles the view, so the reads are views of
    # 512, 1,024, 2,048 and 4,096 bits, the last of which holds the value.
    rng = random.Random(5)
    values = []
    for _ in range(200):
        digits = str(rng.randrange(1, 10)) + str(rng.randrange(10**998)).zfill(998) + "7"
        exponent_sign = rng.choice(list(ExponentSign))
        form = ScientificForm(rng.choice(list(Sign)), exponent_sign, rng.randrange(1, 10**6), digits)
        values.append(DecimalValue.finite(form))
    parts = [encode_prefix_free(value) for value in values]
    assert all(8 * 256 < len(part) <= 8 * 512 - 8 for part in parts)
    stream = BitString._raw(0, 0)
    for part in parts:
        stream = stream + part
    reads = mock.Mock(wraps=codec._read_value)
    monkeypatch.setattr(codec, "_WINDOW_BYTES", 64)
    monkeypatch.setattr(codec, "_read_value", reads)
    assert decode_prefix_free_stream(stream) == values
    assert reads.call_count == 4 * len(values)


def test_a_value_ending_at_its_view_end_is_read_once(monkeypatch):
    # 1e14 is 16 bits prefix-free, as wide as a 2-byte view: its closing 0
    # is the view's last bit, so the first read is final.
    form = ScientificForm(Sign.POSITIVE, ExponentSign.NON_NEGATIVE, 14, "1")
    part = encode_prefix_free(DecimalValue.finite(form))
    assert len(part) == 16
    stream = BitString._raw(0, 0)
    for _ in range(50):
        stream = stream + part
    reads = mock.Mock(wraps=codec._read_value)
    monkeypatch.setattr(codec, "_WINDOW_BYTES", 2)
    monkeypatch.setattr(codec, "_read_value", reads)
    assert len(decode_prefix_free_stream(stream)) == 50
    assert reads.call_count == 50


@pytest.mark.parametrize("window_bytes", [codec._WINDOW_BYTES, 2, 1])
def test_a_fault_only_a_wider_view_reaches_counts_from_the_stream_start(window_bytes):
    # A declet of 1000, the 200th of a 900-digit value, lies past the value's
    # first view at every size: only a widened view reaches it.
    head = encode_prefix_free(NAN) + encode_prefix_free(NEGATIVE_ZERO) + encode_prefix_free(NAN)
    form = ScientificForm(Sign.POSITIVE, ExponentSign.NON_NEGATIVE, 0, "1" + "2" * 899)
    text = encode_prefix_free(DecimalValue.finite(form)).to_text()
    # The header, the exponent field, the tetrade, 199 groups, a continuation bit.
    declet = 2 + 3 + 4 + 11 * 199 + 1
    assert 8 * 64 < declet and text[declet : declet + 10] == "0011011110"  # 222
    faulty = text[:declet] + "1111101000" + text[declet + 10 :]
    with mock.patch.object(codec, "_WINDOW_BYTES", window_bytes):
        with pytest.raises(DecodeError) as exc:
            decode_prefix_free_stream(head + BitString(faulty))
    assert exc.value.kind is DecodeErrorKind.DIGIT_OUT_OF_RANGE
    assert exc.value.position == len(head) + declet
