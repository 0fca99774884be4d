"""Encoder/decoder golden values, error taxonomy, and properties."""

import dataclasses
import functools
import gc
import importlib
import re
import sys
import timeit
import tracemalloc
import types
from pathlib import Path

import pytest
from hypothesis import example, given
import hypothesis.strategies as st

import lexdec.bench
import lexdec.cli
import lexdec.selftest
from lexdec import (
    NAN,
    NEGATIVE_INFINITY,
    NEGATIVE_ZERO,
    POSITIVE_INFINITY,
    POSITIVE_ZERO,
    BitString,
    DEFAULT_MAX_EXPONENT,
    DecimalValue,
    DecodeError,
    DecodeErrorKind,
    ExponentLimitError,
    ExponentSign,
    Kind,
    ParseError,
    Sign,
    canonical_bit_length,
    compare_numeric,
    decode,
    decode_prefix_free_stream,
    encode,
    encode_prefix_free,
    fixed_width_key,
    lex_compare,
    parse_decimal,
    render_decimal,
)
from lexdec.codec import (
    BitCursor,
    _BLOCK,
    _declet_digits,
    _field_ends,
    _read_exponent,
    _spread_ones,
    _ten_minus,
    _write,
    decode_exponent,
    decode_significand,
    encode_exponent,
    encode_significand,
)
from lexdec.decimal_values import _finite_value

from golden import DECODE_WORKED_EXAMPLE, SMALL_INTEGER_TABLE, WORKED_EXAMPLES
from strategies import FRAMINGS, SPECIALS, canonical_digits, decimal_values, finite_values


# 1.001002003: a positive value with exponent 0 and three declets.
THREE_DECLETS = "10 100 0001 0000000001 0000000010 0000000011"

# Every decode failure class, with the bit position the error must report.
ERROR_TAXONOMY = [
    # exponent 0 marked negative can never be produced
    ("10011 0001", DecodeErrorKind.NEGATIVE_ZERO_EXPONENT, 2),
    ("00100 1001", DecodeErrorKind.NEGATIVE_ZERO_EXPONENT, 2),
    # tetrade and declet range checks
    ("10 100 1010", DecodeErrorKind.DIGIT_OUT_OF_RANGE, 5),
    ("10 100 1111", DecodeErrorKind.DIGIT_OUT_OF_RANGE, 5),
    ("10 101 0001 1111101000", DecodeErrorKind.DIGIT_OUT_OF_RANGE, 9),
    # a declet fault is met before the cut tail behind it
    ("10 100 0001 1111101000 001", DecodeErrorKind.DIGIT_OUT_OF_RANGE, 9),
    # significand outside [1, 10)
    ("10 100 0000", DecodeErrorKind.SIGNIFICAND_OUT_OF_RANGE, 5),
    ("10 100 0000 0111110100", DecodeErrorKind.SIGNIFICAND_OUT_OF_RANGE, 5),
    ("00 011 1001 0001100100", DecodeErrorKind.SIGNIFICAND_OUT_OF_RANGE, 5),
    ("00 011 0000", DecodeErrorKind.SIGNIFICAND_OUT_OF_RANGE, 5),
    # headers that are not a special and not a finite start
    ("01 0", DecodeErrorKind.INVALID_HEADER, 0),
    ("0100", DecodeErrorKind.INVALID_HEADER, 0),
    ("110", DecodeErrorKind.INVALID_HEADER, 0),
    ("1110", DecodeErrorKind.INVALID_HEADER, 0),
    ("1111", DecodeErrorKind.INVALID_HEADER, 0),
    # inputs that stop mid-field, at the offset of the failed read
    ("", DecodeErrorKind.TRUNCATED_INPUT, 0),
    ("1", DecodeErrorKind.TRUNCATED_INPUT, 0),
    ("10 1", DecodeErrorKind.TRUNCATED_INPUT, 3),
    ("10 100", DecodeErrorKind.TRUNCATED_INPUT, 5),
    ("10 100 00", DecodeErrorKind.TRUNCATED_INPUT, 5),
    ("10 101 0001 00011", DecodeErrorKind.TRUNCATED_INPUT, 9),
    # faults after three valid declets, read back from a declet index
    (THREE_DECLETS + " 1111101000", DecodeErrorKind.DIGIT_OUT_OF_RANGE, 39),
    (THREE_DECLETS + " 00101", DecodeErrorKind.TRUNCATED_INPUT, 39),
]

# The late faults above in the two other framings. Trimmed: the canonical
# bits less their trailing zeros, and the error position, or the value when
# the short last group is zero-extended into a valid one. Prefix-free: the
# same groups with a continuation bit after each, and the error position.
LATE_FAULTS = [
    (
        THREE_DECLETS + " 1111101000",
        39,
        "10 100 0001 1 0000000001 1 0000000010 1 0000000011 1 1111101000 0",
        43,
    ),
    (
        THREE_DECLETS + " 00101",
        "1.00100200316",
        "10 100 0001 1 0000000001 1 0000000010 1 0000000011 1 00101",
        43,
    ),
]


class TestGolden:
    @pytest.mark.parametrize("text,expected", WORKED_EXAMPLES)
    def test_worked_examples(self, text, expected):
        assert encode(parse_decimal(text)) == BitString(expected)

    @pytest.mark.parametrize("text,expected", SMALL_INTEGER_TABLE)
    def test_small_integers(self, text, expected):
        value = parse_decimal(text)
        assert encode(value) == BitString(expected)
        assert decode(BitString(expected)) == value


class TestSpecials:
    def test_encodings(self):
        assert encode(POSITIVE_ZERO).to_text() == "10"
        assert encode(NEGATIVE_ZERO).to_text() == "01"
        assert encode(NEGATIVE_INFINITY).to_text() == "00"
        assert encode(POSITIVE_INFINITY).to_text() == "11"
        assert encode(NAN).to_text() == "111"

    def test_placement(self):
        negatives = [encode(parse_decimal(t)) for t in ("-1e30", "-2", "-0.003")]
        positives = [encode(parse_decimal(t)) for t in ("0.001", "5", "7e22")]
        for enc in negatives:
            assert lex_compare(encode(NEGATIVE_INFINITY), enc) == -1
            assert lex_compare(enc, encode(NEGATIVE_ZERO)) == -1
        assert lex_compare(encode(NEGATIVE_ZERO), encode(POSITIVE_ZERO)) == -1
        for enc in positives:
            assert lex_compare(encode(POSITIVE_ZERO), enc) == -1
            assert lex_compare(enc, encode(POSITIVE_INFINITY)) == -1
        assert lex_compare(encode(POSITIVE_INFINITY), encode(NAN)) == -1


class TestDecode:
    def test_worked_example(self):
        value = decode(BitString(DECODE_WORKED_EXAMPLE))
        assert value == parse_decimal("4005012345")

    def test_zero(self):
        assert decode(BitString("10")) == POSITIVE_ZERO

    @pytest.mark.parametrize(
        "text,kind,position",
        ERROR_TAXONOMY,
        ids=[f"{text}-{kind}" for text, kind, _ in ERROR_TAXONOMY],
    )
    def test_error_taxonomy(self, text, kind, position):
        with pytest.raises(DecodeError) as exc:
            decode(BitString(text))
        assert (exc.value.kind, exc.value.position) == (kind, position)

    @pytest.mark.parametrize("text,trimmed,stream,stream_position", LATE_FAULTS)
    def test_late_faults_in_every_framing(self, text, trimmed, stream, stream_position):
        kind = next(k for t, k, _ in ERROR_TAXONOMY if t == text)
        bits = BitString(text).strip_trailing_zeros()
        if isinstance(trimmed, str):
            assert decode(bits, trim=True) == parse_decimal(trimmed)
        else:
            with pytest.raises(DecodeError) as exc:
                decode(bits, trim=True)
            assert (exc.value.kind, exc.value.position) == (kind, trimmed)
        with pytest.raises(DecodeError) as exc:
            decode_prefix_free_stream(BitString(stream))
        assert (exc.value.kind, exc.value.position) == (kind, stream_position)

    def test_error_positions(self):
        with pytest.raises(DecodeError) as exc:
            decode(BitString("10 100 1010"))
        assert exc.value.position == 5
        with pytest.raises(DecodeError) as exc:
            decode(BitString("10011 0001"))
        assert exc.value.position == 2
        with pytest.raises(DecodeError) as exc:
            decode(BitString("01 0"))
        assert exc.value.position == 0

    def test_negative_complement_out_of_range(self):
        # Stored digits 9.1 mean a significand of 0.9, below the range.
        with pytest.raises(DecodeError) as exc:
            decode(BitString("00 011") + BitString("1001 0001100100"))
        assert exc.value.kind is DecodeErrorKind.SIGNIFICAND_OUT_OF_RANGE

    def test_byte_alignment_padding_is_tolerated(self):
        # A canonical encoding padded with zero bits to a byte boundary
        # still decodes; the pad is not significand content.
        bits = encode(parse_decimal("1"))
        data, length = bits.to_bytes()
        padded = BitString.from_bytes(data, 8 * len(data))
        assert decode(padded) == parse_decimal("1")

    def test_whole_zero_declets_are_normalized_away(self):
        lenient = BitString("10 100 0001 0000000000")
        assert decode(lenient) == parse_decimal("1")

    @pytest.mark.parametrize(
        "stream,position",
        [
            ("10 100 0001 1 0000000000 0", 10),
            ("10 100 0001 1 0011100000 1 0000000000 0", 21),
            ("00 011 1000 1 1100001000 1 0000000000 0 00 011 1001 0", 21),
        ],
        ids=["positive", "positive-two-declets", "negative-then-value"],
    )
    def test_a_chain_ending_in_a_zero_declet_is_rejected(self, stream, position):
        # The prefix-free writer ends the chain at the last non-zero declet,
        # so a stream that decoded this would not re-encode to itself.
        with pytest.raises(DecodeError) as exc:
            decode_prefix_free_stream(BitString(stream))
        assert (exc.value.kind, exc.value.position) == (DecodeErrorKind.SIGNIFICAND_OUT_OF_RANGE, position)

    @pytest.mark.parametrize("decoder", [decode, decode_prefix_free_stream, BitCursor])
    @pytest.mark.parametrize("source", [b"\x80", "101", [1, 0, 1], None])
    def test_rejects_non_bitstring_input(self, decoder, source):
        # Raw to_bytes() output once read as a bogus truncation at bit 0.
        with pytest.raises(TypeError):
            decoder(source)

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: decode(5), "decode takes a BitString, not int"),
            (
                lambda: decode_prefix_free_stream("10"),
                "decode_prefix_free_stream takes a BitString, not str",
            ),
            (lambda: encode_significand(123, False), "significand digits must be a str, not int"),
            (lambda: encode_significand(0, False), "significand digits must be a str, not int"),
            (
                lambda: encode_significand(None, False),
                "significand digits must be a str, not NoneType",
            ),
            (
                lambda: fixed_width_key("1", 64),
                "fixed_width_key takes a DecimalValue, not str",
            ),
        ],
        ids=[
            "decode-int",
            "stream-str",
            "significand-int",
            "significand-zero",
            "significand-none",
            "fixed-width-str",
        ],
    )
    def test_wrong_argument_types_name_the_function(self, call, message):
        with pytest.raises(TypeError) as exc:
            call()
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "call",
        [
            lambda x: encode(x),
            lambda x: encode(x, trim=True),
            lambda x: encode_prefix_free(x),
            lambda x: fixed_width_key(x, 64),
            lambda x: canonical_bit_length(x),
            lambda x: lex_compare(x, BitString("11")),
            lambda x: lex_compare(BitString("11"), x),
        ],
        ids=["encode", "encode-trim", "prefix-free", "fixed-width", "bit-length", "lex-a", "lex-b"],
    )
    @pytest.mark.parametrize("source", [1.5, "10", None])
    def test_encode_side_rejects_other_types(self, call, source):
        with pytest.raises(TypeError, match="DecimalValue|BitString"):
            call(source)

    @pytest.mark.parametrize(
        "call, name",
        [
            (lambda n: BitString.from_bytes(b"\x80", n), "bit_length"),
            (lambda n: fixed_width_key(parse_decimal("1"), n), "width_bits"),
            (lambda n: parse_decimal("1e5", max_exponent=n), "max_exponent"),
            (lambda n: parse_decimal("INF", max_exponent=n), "max_exponent"),
            (lambda n: decode(BitString("10100001"), max_exponent=n), "max_exponent"),
            (
                lambda n: decode_prefix_free_stream(BitString("1010000010"), max_exponent=n),
                "max_exponent",
            ),
        ],
        ids=["from-bytes", "fixed-width", "parse", "parse-special", "decode", "stream"],
    )
    @pytest.mark.parametrize(
        "number", [True, 16.0, float("inf"), "16", None], ids=["bool", "float", "inf", "str", "none"]
    )
    def test_numeric_arguments_must_be_ints(self, call, name, number):
        # Each once leaked a bare TypeError, a ValueError from format() or an
        # AttributeError, or was taken as a number.
        with pytest.raises(TypeError) as exc:
            call(number)
        assert str(exc.value) == f"{name} must be an int, not {type(number).__name__}"

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: DecodeError(None, 3), "kind must be a DecodeErrorKind, not NoneType"),
            (lambda: DecodeError("truncated input", 3), "kind must be a DecodeErrorKind, not str"),
            (lambda: ExponentLimitError("16", 4), "exponent must be an int, not str"),
            (lambda: ExponentLimitError(True, 4), "exponent must be an int, not bool"),
            (lambda: ExponentLimitError(None, 4), "exponent must be an int, not NoneType"),
            (
                lambda: DecodeError(DecodeErrorKind.TRUNCATED_INPUT, "16"),
                "position must be an int, not str",
            ),
            (
                lambda: DecodeError(DecodeErrorKind.TRUNCATED_INPUT, True),
                "position must be an int, not bool",
            ),
            (lambda: ExponentLimitError(5, None), "limit must be an int, not NoneType"),
            (lambda: ExponentLimitError(5, True), "limit must be an int, not bool"),
            (lambda: ParseError(None, 3), "message must be a str, not NoneType"),
            (lambda: ParseError("expected digit", 2.5), "position must be an int, not float"),
            (lambda: ParseError("expected digit", False), "position must be an int, not bool"),
        ],
        ids=[
            "decode-error-none",
            "decode-error-str",
            "limit-str",
            "limit-bool",
            "limit-none",
            "decode-position-str",
            "decode-position-bool",
            "limit-of-none",
            "limit-of-bool",
            "parse-message-none",
            "parse-position-float",
            "parse-position-bool",
        ],
    )
    def test_exception_and_key_constructors_check_their_arguments(self, call, message):
        # Each once raised AttributeError from its message, or built anyway,
        # with a message such as "truncated input at bit 16" that could not
        # be told from a real one.
        with pytest.raises(TypeError) as exc:
            call()
        assert str(exc.value) == message


class TestExponentLimit:
    # Header 10, then a 33-bit run: exponent + 2 >= 2**33, above the 2**32 default.
    OVER = "10" + "1" * 33 + "0" + "0" * 33 + "0001"

    @pytest.mark.parametrize(
        "decoder",
        [decode, functools.partial(decode, trim=True), decode_prefix_free_stream],
    )
    def test_rejected_with_the_default_limit(self, decoder):
        with pytest.raises(ExponentLimitError) as exc:
            decoder(BitString(self.OVER))
        assert exc.value.limit == DEFAULT_MAX_EXPONENT

    def test_rejected_from_the_run_length_alone(self):
        # 20,000-bit exponent: rejected before its payload is read (here the
        # payload is even missing), and the message does not try to print
        # the exponent in decimal.
        bits = BitString("10" + "1" * 20000 + "0")
        with pytest.raises(ExponentLimitError) as exc:
            decode(bits)
        assert exc.value.exponent == 2**20000 - 2
        assert "of 20000 bits" in str(exc.value)

    def test_exact_bound(self):
        at_limit = parse_decimal("1e-100", max_exponent=100)
        over = parse_decimal("-1e101", max_exponent=101)
        assert decode(encode(at_limit), max_exponent=100) == at_limit
        with pytest.raises(ExponentLimitError) as exc:
            decode(encode(over), max_exponent=100)
        assert (exc.value.exponent, exc.value.limit) == (101, 100)

    @pytest.mark.parametrize("text", ["1e4294967297", "-7.5e-9000000000"])
    def test_round_trip_under_a_raised_limit(self, text):
        value = parse_decimal(text, max_exponent=10**10)
        with pytest.raises(ExponentLimitError):
            decode(encode(value))
        assert decode(encode(value), max_exponent=10**10) == value
        assert decode(encode(value, trim=True), trim=True, max_exponent=10**10) == value
        stream = encode_prefix_free(value)
        assert decode_prefix_free_stream(stream, max_exponent=10**10) == [value]


# Arbitrary bit strings, with long runs of one bit spliced in so that huge
# exponent fields (past what Python renders in decimal) are reached too.
_chunks = st.one_of(
    st.text("01", max_size=40),
    st.tuples(st.sampled_from("01"), st.integers(1, 20000)).map(lambda p: p[0] * p[1]),
)
arbitrary_bits = st.lists(_chunks, max_size=6).map(lambda parts: BitString("".join(parts)))


class TestArbitraryBits:
    @given(arbitrary_bits, st.booleans())
    def test_decode_fails_only_in_a_typed_way(self, bits, trim):
        try:
            render_decimal(decode(bits, trim=trim))
        except (DecodeError, ExponentLimitError):
            pass

    @given(arbitrary_bits)
    def test_stream_split_fails_only_in_a_typed_way(self, bits):
        try:
            for value in decode_prefix_free_stream(bits):
                render_decimal(value)
        except (DecodeError, ExponentLimitError):
            pass


# The sign header and the exponent field of a value with exponent -3: k = 5
# gives the field 110 01, flipped in a positive value, whose signs differ.
HEADS = {False: BitString("10 00110"), True: BitString("00 11001")}


def written(digits, negative, continued):
    """``_write``'s encoding of the value with significand ``digits`` and
    exponent -3; its head is ``HEADS[negative]``."""
    sign = Sign.NEGATIVE if negative else Sign.POSITIVE
    return _write(_finite_value(sign, ExponentSign.NEGATIVE, 3, digits).form, continued)


class TestSignificand:
    """The significand behind a value's head, as ``_write`` writes it and
    ``decode`` reads it; the adapter's own checks last."""

    def test_decode_examples(self):
        assert decode(HEADS[True] + BitString("1000 1111001000")).form.digits == "1032"
        assert decode(HEADS[False] + BitString("0001")).form.digits == "1"

    def test_decode_rejects_complement_out_of_range(self):
        with pytest.raises(DecodeError) as exc:
            decode(HEADS[True] + BitString("1001 0001100100"))
        assert exc.value.kind is DecodeErrorKind.SIGNIFICAND_OUT_OF_RANGE

    @given(canonical_digits(), st.booleans())
    def test_round_trip(self, digits, negative):
        assert decode(written(digits, negative, False)).form.digits == digits

    @pytest.mark.parametrize(
        "digits,negative",
        [("", False), ("", True), ("10", True), ("10", False), ("05", False), ("0", False)],
        ids=["digits0-False", "digits1-True", "digits2-True", "10", "05", "0"],
    )
    def test_encode_rejects_digits_without_a_complement(self, digits, negative):
        # The adapter builds a ScientificForm, which takes canonical digits
        # only, in either sign. A negative significand ending in 0 has no
        # complement to ten; packed anyway, its last declet would read 1000.
        with pytest.raises(ValueError):
            encode_significand(digits, negative)

    @pytest.mark.parametrize(
        "digits", ["1\u0663", "12 3", "1_23", "1a", "\u0663", "\u0661\u0662", "\u00b2", "a1"]
    )
    def test_encode_rejects_what_is_not_ascii_digits(self, digits):
        message = "^significand digits must be ASCII 0-9, start with 1-9 and not end in 0$"
        with pytest.raises(ValueError, match=message):
            encode_significand(digits, False)


def read_at(adapter, bits, position):
    """What a field adapter reads at ``position`` and where its cursor ends,
    or its :class:`DecodeError`'s kind and position."""
    cursor = BitCursor(bits, position)
    try:
        result = adapter(cursor)
    except DecodeError as error:
        return error.kind, error.position
    return result, cursor.position


# Bits a field adapter might meet: random, or an exponent field or a
# significand of either sign, with random bits after it.
adapter_bits = st.one_of(
    st.text("01", max_size=60),
    st.builds(
        lambda exponent, invert, tail: encode_exponent(exponent, invert).to_text() + tail,
        st.integers(0, 10**6),
        st.booleans(),
        st.text("01", max_size=12),
    ),
    st.builds(
        lambda digits, negative, tail: encode_significand(digits, negative).to_text() + tail,
        canonical_digits(max_digits=80),
        st.booleans(),
        st.text("01", max_size=12),
    ),
)


@pytest.mark.parametrize(
    "adapter",
    [
        decode_exponent,
        functools.partial(decode_significand, negative=False),
        functools.partial(decode_significand, negative=True),
    ],
    ids=["exponent", "significand-positive", "significand-negative"],
)
@given(st.text("01", max_size=12), adapter_bits)
def test_adapters_read_after_a_prefix_as_from_the_start(adapter, prefix, text):
    # decode_significand reads behind a head of its own in place of the bits
    # before the cursor; every position it reports is moved back past it.
    alone, end = read_at(adapter, BitString(text), 0)
    assert read_at(adapter, BitString(prefix + text), len(prefix)) == (alone, end + len(prefix))


def as_is(value):
    return value


def negated(value):
    return DecimalValue.finite(dataclasses.replace(value.form, sign=Sign.NEGATIVE))


def unpacked(bits):
    """A new bit string with the bits of ``bits`` and no packed bytes kept, so
    that every timed call packs them again."""
    return BitString._raw(bits._value, len(bits))


def and_last_bit_flipped(value):
    """The encoding of ``value`` and a string that differs only in its last bit."""
    bits = encode(value)
    return bits, BitString._raw(bits._value ^ 1, len(bits))


class TestLongSignificands:
    """Significands past the 4,300 digits that ``int()`` converts from text."""

    DIGITS = "1" + "0123456789" * 1000  # 10,001 digits

    @pytest.mark.parametrize("sign", ["", "-"], ids=["positive", "negative"])
    def test_round_trip_in_every_framing(self, sign):
        text = f"{sign}1.{self.DIGITS[1:]}E25"
        value = parse_decimal(text)
        assert value.form.digits == self.DIGITS
        assert render_decimal(decode(encode(value))) == text
        assert render_decimal(decode(encode(value, trim=True), trim=True)) == text
        stream = encode_prefix_free(value) + encode_prefix_free(NEGATIVE_ZERO)
        assert decode_prefix_free_stream(stream) == [value, NEGATIVE_ZERO]
        assert canonical_bit_length(value) == len(encode(value))

    @pytest.mark.parametrize("sign", ["", "-"], ids=["positive", "negative"])
    def test_orders_against_its_last_digit_neighbour(self, sign):
        value = parse_decimal(f"{sign}1.{self.DIGITS[1:]}E25")
        smaller_magnitude = parse_decimal(f"{sign}1.{self.DIGITS[1:-1]}8E25")
        expected = 1 if sign == "" else -1
        assert compare_numeric(value, smaller_magnitude) == expected
        assert compare_numeric(smaller_magnitude, value) == -expected
        assert lex_compare(encode(value), encode(smaller_magnitude)) == expected

    @pytest.mark.parametrize(
        "prepare,operation",
        [
            (as_is, encode),
            (as_is, encode_prefix_free),
            (as_is, lambda value: decode_prefix_free_stream(encode_prefix_free(value))),
            (encode, decode),
            (functools.partial(encode, trim=True), functools.partial(decode, trim=True)),
            (negated, encode),
            (negated, encode_prefix_free),
            (lambda value: encode(value).to_bytes(), lambda packed: BitString.from_bytes(*packed)),
            (as_is, render_decimal),
            (lambda value: encode(negated(value)), decode),
            (encode, lambda bits: unpacked(bits).to_bytes()),
            (and_last_bit_flipped, lambda pair: lex_compare(*map(unpacked, pair))),
        ],
        ids=[
            "encode",
            "encode_prefix_free",
            "stream_round_trip",
            "decode",
            "decode_trim",
            "encode_negative",
            "encode_prefix_free_negative",
            "from_bytes",
            "render_decimal",
            "decode_negative",
            "to_bytes",
            "lex_compare",
        ],
    )
    def test_time_grows_near_linearly(self, prepare, operation):
        # A ratio of two timings on one machine, not a wall-clock bound:
        # n log n work grows about 9-fold from 50,000 to 400,000 digits,
        # quadratic work 64-fold.
        def best_of_3(value):
            given = prepare(value)
            return min(timeit.repeat(lambda: operation(given), number=1, repeat=3))

        short, long = (parse_decimal("1." + "0123456789" * n) for n in (5_000, 40_000))
        ratio = best_of_3(long) / best_of_3(short)
        assert ratio < 20

    @pytest.mark.parametrize("encoder", [encode, encode_prefix_free])
    @pytest.mark.parametrize("prepare", [as_is, negated], ids=["positive", "negative"])
    def test_encoding_memory_grows_near_linearly(self, prepare, encoder):
        # The peak of traced allocations while encoding, at 50,000 and at
        # 400,000 digits: about 8 times as much for 8 times the digits.
        def peak(value):
            given = prepare(value)
            tracemalloc.start()
            try:
                encoder(given)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        short, long = (parse_decimal("1." + "0123456789" * n) for n in (5_000, 40_000))
        assert peak(long) / peak(short) < 12


def test_stream_split_time_grows_near_linearly_in_values():
    # A ratio of two timings on one machine, as above: splitting 16,000 short
    # values takes about 8 times as long as splitting 2,000 when each value
    # costs the same, 64 times when each costs time in the stream's length.
    parts = [encode_prefix_free(parse_decimal(f"-{i}.{i * 7}e{i % 50}")) for i in range(1, 16_001)]

    def best_of_3(count):
        stream = BitString()
        for part in parts[:count]:
            stream = stream + part
        runs = timeit.repeat(lambda: decode_prefix_free_stream(stream), number=1, repeat=3)
        return min(runs)

    assert best_of_3(16_000) / best_of_3(2_000) < 20


def test_stream_split_time_grows_near_linearly_after_a_long_value():
    # One value of n digits, then n NaNs: about 8 times the time for 8 times
    # n, unless each NaN is cut from the chunk read for the long value, which
    # grows with n.
    def best_of_3(count):
        stream = encode_prefix_free(parse_decimal("1." + "7" * count))
        stream = stream + BitString("111" * count)
        runs = timeit.repeat(lambda: decode_prefix_free_stream(stream), number=1, repeat=3)
        return min(runs)

    assert best_of_3(40_000) / best_of_3(5_000) < 20


def stored_groups(digits, negative, stride=10):
    """The stored tetrade digit above the ``stride``-bit declet slots, as
    one integer, as the decoder reads them from the significand behind a
    7-bit head: without the continuation bits of an 11-bit stride."""
    count = (len(digits) + 1) // 3
    shift = stride * count  # where the tetrade's slot starts
    # An 11-bit stride's chain ends in a 0 after the last group; drop it.
    bits = written(digits, negative, stride == 11)._value >> stride - 10
    return (bits >> shift & 15) << shift | bits & 1023 * _spread_ones(count, stride)


class TestComplement:
    """The complement to ten on the stored tetrade digit above the declet slots."""

    def test_examples(self):
        for digits, stored in [("1032", "8968"), ("405", "595"), ("9", "1"), ("15", "85")]:
            count = (len(digits) + 1) // 3
            groups = _ten_minus(stored_groups(digits, False), count, 10)
            first = groups >> 10 * count
            text = _declet_digits(first, groups ^ first << 10 * count, count, 10)
            assert text[: len(digits)] == stored
            assert groups == stored_groups(digits, True)

    @pytest.mark.parametrize("stride", [10, 11])
    @pytest.mark.parametrize("count", [_BLOCK, _BLOCK + 1], ids=["table", "computed"])
    def test_at_the_table_end(self, count, stride):
        digits = ("123456789" * count)[: 3 * count + 1]
        groups = _ten_minus(stored_groups(digits, False, stride), count, stride)
        first = groups >> stride * count
        text = _declet_digits(first, groups ^ first << stride * count, count, stride)
        assert text == str(10 ** len(digits) - int(digits))
        assert groups == stored_groups(digits, True, stride)

    @given(canonical_digits())
    def test_involution(self, digits):
        groups, count = stored_groups(digits, False), (len(digits) + 1) // 3
        assert _ten_minus(_ten_minus(groups, count, 10), count, 10) == groups


@given(
    st.integers(1, 9),
    st.integers(0, 300).flatmap(lambda n: st.lists(st.integers(0, 999), min_size=n, max_size=n)),
    st.sampled_from([10, 11]),
)
@example(1, [], 10)
@example(9, [], 11)
@example(5, list(range(999, 935, -1)), 10)  # one full block
@example(5, list(range(999, 935, -1)), 11)
@example(1, list(range(65)), 10)  # one past it
@example(1, list(range(65)), 11)
@example(9, [999] * 129, 10)
@example(9, [999] * 129, 11)
@example(3, [0] * 299 + [1], 10)  # a low half that starts with zero declets
@example(3, [0] * 299 + [1], 11)
def test_declet_digits_writes_three_digits_per_declet(first, declets, stride):
    slots = 0
    for declet in declets:
        slots = slots << stride | declet
    want = str(first) + "".join(f"{d:03d}" for d in declets)
    assert _declet_digits(first, slots, len(declets), stride) == want


class TestDecletOutOfRange:
    """A declet above 999 is reported at its first bit, the leftmost one
    first, wherever it stands in a long significand and in every framing."""

    # 200 declets; the last is 999, so trimming leaves the encoding whole.
    DIGITS = "1." + "".join(f"{37 * i % 1000:03d}" for i in range(1, 200)) + "999"

    def with_declet(self, sign, framing, index, declet):
        """The value's encoding with its ``index``-th declet replaced, and
        where that declet starts."""
        write, _, stride, _ = FRAMINGS[framing]
        text = write(parse_decimal(f"{sign}{self.DIGITS}E-7")).to_text()
        continued = stride - 10
        start = len(text) - continued - 200 * stride  # the first declet's group
        at = start + stride * index + continued
        return BitString(text[:at] + f"{declet:010b}" + text[at + 10 :]), at

    @pytest.mark.parametrize("framing", list(FRAMINGS))
    @pytest.mark.parametrize("sign", ["", "-"], ids=["positive", "negative"])
    @pytest.mark.parametrize("index", [0, 64, 65, 199])
    @pytest.mark.parametrize("declet", [1000, 1023])
    def test_position_is_the_declet_start(self, framing, sign, index, declet):
        bits, at = self.with_declet(sign, framing, index, declet)
        with pytest.raises(DecodeError) as exc:
            FRAMINGS[framing][1](bits)
        assert (exc.value.kind, exc.value.position) == (DecodeErrorKind.DIGIT_OUT_OF_RANGE, at)

    @pytest.mark.parametrize("framing", list(FRAMINGS))
    @pytest.mark.parametrize("sign", ["", "-"], ids=["positive", "negative"])
    @pytest.mark.parametrize("index", [0, 64, 65, 199])
    def test_999_decodes(self, framing, sign, index):
        write, read, _, _ = FRAMINGS[framing]
        bits, _ = self.with_declet(sign, framing, index, 999)
        [value] = read(bits)
        assert write(value) == bits


# Small fields make equal exponents and shared leading digits common, so
# that pairs are ordered by their significands too.
any_values = st.one_of(decimal_values(), decimal_values(max_digits=10, max_exponent=100))


class TestRoundTrip:
    @pytest.mark.parametrize("framing", FRAMINGS)
    @given(value=any_values)
    @example(value=NEGATIVE_INFINITY)
    @example(value=NEGATIVE_ZERO)
    @example(value=POSITIVE_ZERO)
    @example(value=POSITIVE_INFINITY)
    @example(value=NAN)
    def test_decode_inverts_encode(self, framing, value):
        write, read, _, _ = FRAMINGS[framing]
        assert read(write(value)) == [value]

    def test_trim_examples(self):
        assert encode(parse_decimal("2"), trim=True).to_text() == "10100001"
        assert encode(parse_decimal("8"), trim=True).to_text() == "101001"
        assert encode(parse_decimal("1"), trim=True).to_text() == "101000001"
        assert decode(BitString("10100001"), trim=True) == parse_decimal("2")


class TestOrder:
    @pytest.mark.parametrize("framing", FRAMINGS)
    @given(a=any_values, b=any_values)
    def test_lexicographic_matches_numeric(self, framing, a, b):
        expected = compare_numeric(a, b)
        if expected is None or (expected == 0 and a != b):
            return  # NaN, or the two zeros: numerically tied, encodings distinct
        write = FRAMINGS[framing][0]
        assert lex_compare(write(a), write(b)) == expected

    @staticmethod
    def assert_byte_keys_agree(a, b):
        # `lexdec sort`'s key: the encoding's bytes, zero-padded, with no length.
        a_key, b_key = encode(a).to_bytes()[0], encode(b).to_bytes()[0]
        assert (a_key == b_key) == (a == b)
        assert (a_key > b_key) - (a_key < b_key) == lex_compare(encode(a), encode(b))

    @given(decimal_values(), decimal_values())
    def test_byte_keys_sort_as_the_encodings_do(self, a, b):
        self.assert_byte_keys_agree(a, b)

    def test_byte_keys_of_the_specials_and_bit_prefix_pairs(self):
        # In each pair the first encoding is a proper prefix of the second's
        # bits, so only the zero padding stands between the two keys.
        pairs = [("1.2", "1.2001"), ("1", "1.001"), ("0", "1e-9"), ("-INF", "-1"), ("INF", "NaN")]
        values = list(SPECIALS)
        for short, long in pairs:
            a, b = parse_decimal(short), parse_decimal(long)
            assert encode(b).to_text().startswith(encode(a).to_text())
            values += [a, b]
        for a in values:
            for b in values:
                self.assert_byte_keys_agree(a, b)

    @given(finite_values())
    def test_header_law(self, value):
        assert not encode(value).to_text().startswith(("10011", "00100"))


class TestLengthLaw:
    def test_examples(self):
        assert canonical_bit_length(parse_decimal("1")) == 9
        assert canonical_bit_length(parse_decimal("15")) == 19
        assert canonical_bit_length(parse_decimal("1e9")) == 13
        assert canonical_bit_length(POSITIVE_ZERO) == 2
        assert canonical_bit_length(NAN) == 3


SIGN_PAIRS = [parse_decimal(text) for text in ("1.5e3", "-1.5e3", "1.5e-3", "-1.5e-3")]


class TestFieldEnds:
    """``_field_ends`` cuts ``encode``'s output into exactly its fields."""

    @given(finite_values(max_digits=200, max_exponent=10**12))
    @example(SIGN_PAIRS[0])
    @example(SIGN_PAIRS[1])
    @example(SIGN_PAIRS[2])
    @example(SIGN_PAIRS[3])
    def test_ends_tile_the_encoding(self, value):
        bits = encode(value)
        header_end, exponent_end, group_ends = _field_ends(value.form)
        assert header_end == 2
        # The exponent field ends where the decoder's field reader stops.
        f = value.form
        negative = f.sign is Sign.NEGATIVE
        field = _read_exponent(bits._value, len(bits), header_end, negative, f.exponent)
        assert field == (f.exponent_sign, f.exponent, exponent_end)
        text = bits.to_text()
        assert int(text[exponent_end : group_ends[0]], 2) <= 9
        assert all(int(text[a:b], 2) <= 999 for a, b in zip(group_ends, group_ends[1:]))
        assert group_ends[-1] == len(bits) == canonical_bit_length(value)

    @given(decimal_values(max_digits=200, max_exponent=10**12))
    @example(SIGN_PAIRS[1])
    @example(SIGN_PAIRS[2])
    def test_grouped_output_is_the_encoding(self, value):
        bits = encode(value)
        grouped = lexdec.cli._group_bits(value, bits)
        assert grouped.replace(" ", "") == bits.to_text()
        if value.kind is Kind.FINITE:
            # Header, exponent field, tetrade and declets, none of them empty.
            assert len(grouped.split(" ")) == 2 + len(_field_ends(value.form)[2])


def test_public_names_resolve():
    lexdec = importlib.import_module("lexdec")
    assert [name for name in lexdec.__all__ if not hasattr(lexdec, name)] == []
    for module in ("lexdec.variants", "lexdec.gamma"):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(module)


def test_readme_lists_exactly_the_public_names():
    lexdec = importlib.import_module("lexdec")
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    library = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"`(\w+)`", library.split("(`lexdec.__all__`):", 1)[1])
    assert sorted(listed) == sorted(lexdec.__all__)
    assert len(lexdec.__all__) == len(set(lexdec.__all__)) == 27


def code_objects(code):
    """``code`` and every code object nested in it, comprehensions included."""
    yield code
    for constant in code.co_consts:
        if isinstance(constant, types.CodeType):
            yield from code_objects(constant)


@pytest.mark.parametrize(
    "function",
    [
        parse_decimal,
        render_decimal,
        compare_numeric,
        lexdec.decimal_values._finite_value,
        lexdec.decimal_values._rank,
        lexdec.decimal_values._compare_magnitude,
        encode,
        encode_prefix_free,
        fixed_width_key,
        canonical_bit_length,
        lexdec.codec._field_ends,
        lexdec.codec._write,
        lexdec.codec._lane_slots,
        lexdec.codec._read_exponent,
        lexdec.codec._read_value,
        lexdec.codec._ten_minus,
        lexdec.codec._declet_digits,
        lexdec.cli._group_bits,
    ],
    ids=lambda function: function.__qualname__,
)
def test_per_value_paths_read_no_enum_member_off_its_class(function):
    # Python 3.11 serves ``Kind.FINITE`` through a descriptor; the per-value
    # paths read module constants instead.
    names = {name for code in code_objects(function.__code__) for name in code.co_names}
    assert names.isdisjoint({"Kind", "Sign", "ExponentSign"})


def python_calls(call, *args):
    """The names of the Python functions that ``call(*args)`` enters, in order.

    The cyclic collector is off during the call: a collection there would
    run other objects' finalizers (``__del__``, generator close) inside it.
    """
    names = []

    def profile(frame, event, arg):
        if event == "call":
            names.append(frame.f_code.co_name)

    collecting = gc.isenabled()
    gc.collect()
    gc.disable()
    sys.setprofile(profile)
    try:
        call(*args)
    finally:
        sys.setprofile(None)
        if collecting:
            gc.enable()
    return names


@pytest.mark.parametrize("text", ["7", "-1.032e2", "4005012345e-9", "-2.5e-300"])
def test_reading_a_finite_value_takes_one_frame_and_four_helpers(text):
    # Reading a key back: from_bytes builds its result without a further
    # call, and decode's one frame calls only the exponent-field reader,
    # the declet printer, the complement (negative values) and the builder.
    data, length = encode(parse_decimal(text)).to_bytes()
    assert python_calls(BitString.from_bytes, data, length) == ["from_bytes"]
    calls = python_calls(decode, BitString.from_bytes(data, length))
    helpers = ["_read_exponent", "_declet_digits", "_finite_value"]
    if text.startswith("-"):
        helpers.insert(1, "_ten_minus")
    assert calls == ["decode", "_read_value", *helpers]


@pytest.mark.parametrize("text", ["7e20", "-1.5e-20", "2.5e21", "-4e-21", "1e-300", "-9.75e300"])
def test_rendering_a_finite_value_calls_no_helper(text):
    # Plain notation needs no helper, and scientific notation writes its
    # exponent with an inline str(); only an exponent past str()'s digit
    # limit falls back to the decimal module's.
    assert python_calls(render_decimal, parse_decimal(text)) == ["render_decimal"]


@pytest.mark.parametrize("text", ["7", "-1.032e2", "4005012345e-9", "-2.5e-300", "0.5E+07"])
def test_parsing_a_finite_numeral_calls_only_the_builder(text):
    # The match, the exponent's int() and the bound checks run inline; only
    # text the numeral pattern rejects goes on to _special_or_error.
    assert python_calls(parse_decimal, text) == ["parse_decimal", "_finite_value"]


@pytest.mark.parametrize("text", ["7", "-1.032e2", "4005012345e-9", "-2.5e-300"])
@pytest.mark.parametrize("write", [encode, encode_prefix_free], ids=lambda write: write.__name__)
def test_writing_a_finite_value_takes_one_frame_and_three_helpers(write, text):
    # The one writer calls only the exponent-field writer, the lane packer
    # and, for a negative value, the complement that the reader also takes.
    helpers = ["exponent_field", "_lane_slots"]
    if text.startswith("-"):
        helpers.append("_ten_minus")
    assert python_calls(write, parse_decimal(text)) == [write.__name__, "_write", *helpers]


@pytest.mark.parametrize("text", ["7", "-1.032e2", "4005012345e-9", "-2.5e-300"])
def test_splitting_a_stream_reads_each_value_in_one_frame(text):
    # The splitter reads each value through the reader's one frame, with the
    # helpers that decode calls and no other.
    bits = encode_prefix_free(parse_decimal(text))
    helpers = ["_read_exponent", "_declet_digits", "_finite_value"]
    if text.startswith("-"):
        helpers.insert(1, "_ten_minus")
    calls = python_calls(decode_prefix_free_stream, bits)
    assert calls == ["decode_prefix_free_stream", "to_bytes", "_read_value", *helpers]


_ADAPTER_NAMES = {
    "BitCursor",
    "ExponentField",
    "encode_exponent",
    "decode_exponent",
    "encode_significand",
    "decode_significand",
}


def test_field_internals_are_not_public():
    lexdec = importlib.import_module("lexdec")
    assert _ADAPTER_NAMES.isdisjoint(lexdec.__all__)
    assert not hasattr(lexdec, "ExponentField")
    assert not hasattr(lexdec.codec, "ExponentField")
    assert not hasattr(lexdec.bits, "BitCursor")
    assert not hasattr(BitCursor, "at_end")
    for module in (lexdec.bits, lexdec.codec):
        assert _ADAPTER_NAMES.isdisjoint(module.__all__)
    assert {"_field_ends", "SPECIAL_ENCODINGS"}.isdisjoint(lexdec.codec.__all__)
    assert not hasattr(lexdec.codec, "exponent_field_length")


_LAYOUT_NAMES = {
    "TETRADE_BITS",
    "DECLET_BITS",
    "DECLET_DIGITS",
    "EXPONENT_OFFSET",
    "exponent_field",
    "exponent_field_length",
}


@pytest.mark.parametrize(
    "module", [lexdec.cli, lexdec.bench, lexdec.selftest], ids=lambda module: module.__name__
)
def test_only_codec_describes_the_layout(module):
    # The CLI's grouped output, bench-size's columns and the selftest's
    # stored slots read the field ends from codec._field_ends; none works
    # out a width of its own or reads a field through an adapter.
    code = compile(Path(module.__file__).read_text(), module.__file__, "exec")
    names = {name for nested in code_objects(code) for name in nested.co_names}
    assert names.isdisjoint(_LAYOUT_NAMES | _ADAPTER_NAMES)
