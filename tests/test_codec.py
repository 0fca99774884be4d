"""Encoder/decoder golden values, error taxonomy, and properties."""

import functools
import importlib
import re
import timeit
from pathlib import Path

import pytest
from hypothesis import given
import hypothesis.strategies as st

from lexdec import (
    NAN,
    NEGATIVE_INFINITY,
    NEGATIVE_ZERO,
    POSITIVE_INFINITY,
    POSITIVE_ZERO,
    BitString,
    DEFAULT_MAX_EXPONENT,
    DecodeError,
    DecodeErrorKind,
    ExponentLimitError,
    ExponentSign,
    Kind,
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
from lexdec.bits import BitCursor
from lexdec.codec import (
    _complement,
    _digit_text,
    _significand_layout,
    decode_significand,
    encode_significand,
)

from golden import DECODE_WORKED_EXAMPLE, SMALL_INTEGER_TABLE, WORKED_EXAMPLES
from strategies import canonical_digits, decimal_values, finite_values


def oracle_encode(value) -> str:
    """Re-derive the encoding from first principles with string arithmetic.

    Independent of the library's bit machinery: fields are built as text and
    the negative-significand complement is computed as the integer 10^n - D.
    """
    specials = {
        Kind.NEGATIVE_INFINITY: "00",
        Kind.NEGATIVE_ZERO: "01",
        Kind.POSITIVE_ZERO: "10",
        Kind.POSITIVE_INFINITY: "11",
        Kind.NAN: "111",
    }
    if value.kind is not Kind.FINITE:
        return specials[value.kind]
    f = value.form
    negative = f.sign is Sign.NEGATIVE

    binary = bin(f.exponent + 2)[2:]
    field = "1" * (len(binary) - 1) + "0" + binary[1:]
    invert = negative != (f.exponent_sign is ExponentSign.NEGATIVE)
    if invert:
        field = "".join("1" if c == "0" else "0" for c in field)

    n = len(f.digits)
    stored = str(10**n - int(f.digits)).zfill(n) if negative else f.digits
    rest = stored[1:]
    rest += "0" * (-len(rest) % 3)
    out = ("00" if negative else "10") + field + format(int(stored[0]), "04b")
    for i in range(0, len(rest), 3):
        out += format(int(rest[i : i + 3]), "010b")
    return out


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

    def test_derived_example_against_oracle(self):
        value = parse_decimal("100")
        assert encode(value).to_text() == "10110000001"
        assert oracle_encode(value) == "10110000001"

    @pytest.mark.parametrize("text,expected", WORKED_EXAMPLES + SMALL_INTEGER_TABLE)
    def test_oracle_agrees_on_golden_values(self, text, expected):
        assert oracle_encode(parse_decimal(text)) == BitString(expected).to_text()

    @given(decimal_values())
    def test_oracle_agrees_everywhere(self, value):
        assert encode(value).to_text() == oracle_encode(value)


class TestSpecials:
    def test_encodings(self):
        assert encode(POSITIVE_ZERO).to_text() == "10"
        assert encode(NEGATIVE_ZERO).to_text() == "01"
        assert encode(NEGATIVE_INFINITY).to_text() == "00"
        assert encode(POSITIVE_INFINITY).to_text() == "11"
        assert encode(NAN).to_text() == "111"

    def test_round_trip(self):
        for value in (POSITIVE_ZERO, NEGATIVE_ZERO, POSITIVE_INFINITY, NEGATIVE_INFINITY, NAN):
            assert decode(encode(value)) == value
            assert decode(encode(value, trim=True), trim=True) == value

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
            (lambda: encode_significand(123, False), "encode_significand takes a str, not int"),
        ],
        ids=["decode-int", "stream-str", "significand-int"],
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


class TestSignificand:
    def test_encode_examples(self):
        assert encode_significand("1032", True) == BitString("1000 1111001000")
        assert encode_significand(
            "4005012345", False
        ) == BitString("0100 0000000101 0000001100 0101011001")
        assert encode_significand("707106", False) == BitString(
            "0111 0001000111 0000111100"
        )
        assert encode_significand("1", False) == BitString("0001")

    def test_decode_examples(self):
        cursor = BitCursor(BitString("1000 1111001000"))
        assert decode_significand(cursor, negative=True) == "1032"
        cursor = BitCursor(BitString("0001"))
        assert decode_significand(cursor, negative=False) == "1"

    def test_decode_rejects_complement_out_of_range(self):
        cursor = BitCursor(BitString("1001 0001100100"))
        with pytest.raises(DecodeError) as exc:
            decode_significand(cursor, negative=True)
        assert exc.value.kind is DecodeErrorKind.SIGNIFICAND_OUT_OF_RANGE

    @pytest.mark.parametrize(
        "digits,negative",
        [("", False), ("", True), ("10", True)],
        ids=["digits0-False", "digits1-True", "digits2-True"],
    )
    def test_encode_rejects_digits_without_a_complement(self, digits, negative):
        # A negative significand ending in 0 has no complement to ten; packed
        # anyway, its last declet would read 1000, which no decoder accepts.
        with pytest.raises(ValueError):
            encode_significand(digits, negative)

    @given(canonical_digits(), st.booleans())
    def test_round_trip(self, digits, negative):
        bits = encode_significand(digits, negative)
        assert decode_significand(BitCursor(bits), negative=negative) == digits

    @pytest.mark.parametrize("digits", ["1\u0663", "12 3", "1_23", "1a"])
    def test_encode_rejects_what_is_not_ascii_digits(self, digits):
        with pytest.raises(ValueError, match="^significand digits must be ASCII 0-9$"):
            encode_significand(digits, False)


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
        "operation",
        [
            encode,
            encode_prefix_free,
            lambda value: decode_prefix_free_stream(encode_prefix_free(value)),
        ],
        ids=["encode", "encode_prefix_free", "stream_round_trip"],
    )
    def test_time_grows_near_linearly(self, operation):
        # A ratio of two timings on one machine, not a wall-clock bound:
        # n log n work grows about 9-fold from 50,000 to 400,000 digits,
        # quadratic work 64-fold.
        def best_of_3(value):
            return min(timeit.repeat(lambda: operation(value), number=1, repeat=3))

        short, long = (parse_decimal("1." + "0123456789" * n) for n in (5_000, 40_000))
        ratio = best_of_3(long) / best_of_3(short)
        assert ratio < 20


class TestComplement:
    """The complement to ten on the layout's tetrade digit and declets."""

    def test_examples(self):
        for digits, stored in [("1032", "8968"), ("405", "595"), ("9", "1"), ("15", "85")]:
            layout = _complement(*_significand_layout(digits, False))
            assert _digit_text(*layout)[: len(digits)] == stored
            assert layout == _significand_layout(digits, True)

    @given(canonical_digits())
    def test_involution(self, digits):
        layout = _significand_layout(digits, False)
        assert _complement(*_complement(*layout)) == layout


def int_slice_layout(digits, negative):
    """The layout as ``int()`` on each three-digit slice builds it."""
    padded = digits + "00"
    declets = [int(padded[i : i + 3]) for i in range(1, len(digits), 3)]
    return _complement(int(digits[0]), declets) if negative else (int(digits[0]), declets)


class TestDecletTable:
    """The layout's table lookups agree with converting each slice by ``int()``."""

    @pytest.mark.parametrize("negative", [False, True])
    def test_every_three_digit_text(self, negative):
        for declet in range(1000):
            text = f"{declet:03d}"
            # Whole, and cut short so that the padding fills the group.
            for digits in ("7" + text, "7" + text[:2], "7" + text[:1], "7" + text + "1"):
                assert _significand_layout(digits, negative) == int_slice_layout(digits, negative)

    @given(canonical_digits(max_digits=60), st.booleans())
    def test_digit_texts(self, digits, negative):
        assert _significand_layout(digits, negative) == int_slice_layout(digits, negative)


class TestRoundTrip:
    @given(decimal_values())
    def test_decode_inverts_encode(self, value):
        assert decode(encode(value)) == value

    @given(decimal_values())
    def test_trimmed_round_trip(self, value):
        assert decode(encode(value, trim=True), trim=True) == value

    def test_trim_examples(self):
        assert encode(parse_decimal("2"), trim=True).to_text() == "10100001"
        assert encode(parse_decimal("8"), trim=True).to_text() == "101001"
        assert encode(parse_decimal("1"), trim=True).to_text() == "101000001"
        assert decode(BitString("10100001"), trim=True) == parse_decimal("2")

    @given(finite_values(max_digits=10, max_exponent=100), finite_values(max_digits=10, max_exponent=100))
    def test_trimmed_encodings_preserve_order(self, a, b):
        expected = compare_numeric(a, b)
        got = lex_compare(encode(a, trim=True), encode(b, trim=True))
        assert got == expected


class TestOrder:
    @given(decimal_values(), decimal_values())
    def test_lexicographic_matches_numeric(self, a, b):
        expected = compare_numeric(a, b)
        if expected is None:
            return
        if expected == 0 and a != b:
            return  # the two zeros: numerically tied, encodings distinct
        assert lex_compare(encode(a), encode(b)) == expected

    @given(finite_values())
    def test_header_law(self, value):
        assert not encode(value).to_text().startswith(("10011", "00100"))


class TestLengthLaw:
    @given(decimal_values())
    def test_matches_measurement(self, value):
        assert len(encode(value)) == canonical_bit_length(value)

    def test_examples(self):
        assert canonical_bit_length(parse_decimal("1")) == 9
        assert canonical_bit_length(parse_decimal("15")) == 19
        assert canonical_bit_length(parse_decimal("1e9")) == 13
        assert canonical_bit_length(POSITIVE_ZERO) == 2
        assert canonical_bit_length(NAN) == 3


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
    assert len(lexdec.__all__) == len(set(lexdec.__all__)) == 28


def test_field_internals_are_not_public():
    lexdec = importlib.import_module("lexdec")
    internals = {
        "BitCursor",
        "ExponentField",
        "encode_exponent",
        "decode_exponent",
        "encode_significand",
        "decode_significand",
    }
    assert internals.isdisjoint(lexdec.__all__)
    assert not hasattr(lexdec, "ExponentField")
    assert not hasattr(BitCursor, "at_end")
    for module in (lexdec.bits, lexdec.codec):
        assert internals.isdisjoint(module.__all__)
    assert {"exponent_field_length", "SPECIAL_ENCODINGS"}.isdisjoint(lexdec.codec.__all__)
