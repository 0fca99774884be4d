"""Prefix-free and fixed-width variants."""

import random

import pytest
from hypothesis import given

from lexdec import (
    NAN,
    NEGATIVE_INFINITY,
    NEGATIVE_ZERO,
    POSITIVE_INFINITY,
    POSITIVE_ZERO,
    BitString,
    DecodeError,
    DecodeErrorKind,
    KeyWidthError,
    compare_numeric,
    decode,
    decode_prefix_free_stream,
    encode,
    encode_prefix_free,
    fixed_width_key,
    parse_decimal,
)
from lexdec.selftest import random_finite

from strategies import decodable_sequence, finite_values


def pf(text):
    return encode_prefix_free(parse_decimal(text))


class TestPrefixFree:
    def test_specials_carry_no_continuation_bits(self):
        assert pf("-INF") == BitString("00")
        assert pf("NaN") == BitString("111")

    def test_stream_examples(self):
        assert decode_prefix_free_stream(pf("1") + pf("2")) == [
            parse_decimal("1"),
            parse_decimal("2"),
        ]
        assert decode_prefix_free_stream(BitString("")) == []
        assert decode_prefix_free_stream(pf("-0.0405") + pf("0")) == [
            parse_decimal("-0.0405"),
            parse_decimal("0"),
        ]

    def test_nan_is_fine_mid_stream(self):
        stream = pf("NaN") + pf("7") + pf("NaN")
        assert decode_prefix_free_stream(stream) == [NAN, parse_decimal("7"), NAN]

    def test_positive_infinity_before_a_zero_headed_value(self):
        stream = pf("INF") + pf("-3")
        assert decode_prefix_free_stream(stream) == [POSITIVE_INFINITY, parse_decimal("-3")]
        stream = pf("INF") + pf("-0")
        assert decode_prefix_free_stream(stream) == [POSITIVE_INFINITY, NEGATIVE_ZERO]

    def test_terminal_specials(self):
        assert decode_prefix_free_stream(pf("5") + pf("INF")) == [
            parse_decimal("5"),
            POSITIVE_INFINITY,
        ]
        assert decode_prefix_free_stream(pf("5") + pf("-INF")) == [
            parse_decimal("5"),
            NEGATIVE_INFINITY,
        ]
        assert decode_prefix_free_stream(pf("5") + pf("0")) == [
            parse_decimal("5"),
            POSITIVE_ZERO,
        ]

    def test_dangling_fragment(self):
        with pytest.raises(DecodeError) as exc:
            decode_prefix_free_stream(BitString("1"))
        assert exc.value.kind is DecodeErrorKind.TRUNCATED_INPUT
        with pytest.raises(DecodeError):
            decode_prefix_free_stream(pf("1") + BitString("10 100"))

    def test_error_taxonomy_carries_over(self):
        with pytest.raises(DecodeError) as exc:
            decode_prefix_free_stream(BitString("10 011 0001 0"))
        assert exc.value.kind is DecodeErrorKind.NEGATIVE_ZERO_EXPONENT
        with pytest.raises(DecodeError) as exc:
            decode_prefix_free_stream(BitString("10 100 1010 0"))
        assert exc.value.kind is DecodeErrorKind.DIGIT_OUT_OF_RANGE

    @pytest.mark.parametrize(
        "fault,canonical",
        [
            ("10 011 0001 0", "10011 0001"),  # negative zero exponent
            ("10 100 1010 0", "10 100 1010"),  # tetrade out of range
            ("10 100 0000 0", "10 100 0000"),  # significand out of range
            ("10 1", "10 1"),  # cut inside the exponent field
        ],
    )
    def test_error_position_counts_from_stream_start(self, fault, canonical):
        head = pf("7") + pf("-0.0405") + pf("NaN")
        with pytest.raises(DecodeError) as exc:
            decode_prefix_free_stream(head + BitString(fault))
        with pytest.raises(DecodeError) as alone:
            decode(BitString(canonical))
        assert exc.value.kind is alone.value.kind
        assert exc.value.position == len(head) + alone.value.position

    def test_declet_error_position_counts_continuation_bits(self):
        head = pf("7") + pf("-0.0405")
        with pytest.raises(DecodeError) as exc:
            decode_prefix_free_stream(head + BitString("10 101 0001 1 1111101000 0"))
        assert exc.value.kind is DecodeErrorKind.DIGIT_OUT_OF_RANGE
        assert exc.value.position == len(head) + 10

    @pytest.mark.parametrize(
        "fault,kind,position",
        [
            # a declet fault is met before the cut group behind it
            ("10 100 0001 1 1111101000 1 00000", DecodeErrorKind.DIGIT_OUT_OF_RANGE, 10),
            # the input ends where a continuation bit is due
            ("10 100 0001 1 0000000001", DecodeErrorKind.TRUNCATED_INPUT, 20),
            # a continuation bit of 1 starts a declet the input cuts short
            ("10 100 0001 1 00000", DecodeErrorKind.TRUNCATED_INPUT, 10),
        ],
    )
    def test_faults_in_a_chain_in_reading_order(self, fault, kind, position):
        head = pf("7") + pf("-0.0405")
        with pytest.raises(DecodeError) as exc:
            decode_prefix_free_stream(head + BitString(fault))
        assert (exc.value.kind, exc.value.position) == (kind, len(head) + position)

    def test_fuzzed_sequences(self):
        rng = random.Random(97)
        for _ in range(500):
            sequence = decodable_sequence(rng)
            stream = BitString("")
            for value in sequence:
                stream = stream + encode_prefix_free(value)
            assert decode_prefix_free_stream(stream) == sequence


class TestFixedWidth:
    def test_examples(self):
        assert fixed_width_key(POSITIVE_ZERO, 16) == bytes([0x80, 0x00])
        assert fixed_width_key(parse_decimal("1"), 16) == bytes([0xA0, 0x80])
        with pytest.raises(KeyWidthError):
            fixed_width_key(parse_decimal("1e40"), 16)

    def test_key_shape(self):
        key = fixed_width_key(parse_decimal("-103.2"), 64)
        assert type(key) is bytes and len(key) == 8

    def test_invalid_widths(self):
        for width in (0, 4, 12, -8):
            with pytest.raises(ValueError):
                fixed_width_key(POSITIVE_ZERO, width)
        # Without the upper bound, the shift raised a bare MemoryError for
        # 2**64 + 8 and a bare OverflowError for 2**70; neither width gets as
        # far as allocating a key.
        for width in (2**64 + 8, 2**70):
            for value in (POSITIVE_ZERO, parse_decimal("1")):
                with pytest.raises(ValueError, match=r"^width_bits must be at most sys\.maxsize \("):
                    fixed_width_key(value, width)

    def test_truncation_keeps_prefix(self):
        value = parse_decimal("1.23456789012345678901234567890123")
        full = encode(value)
        key = fixed_width_key(value, 64)
        assert len(full) > 64
        assert key == BitString(full.to_text()[:64]).to_bytes()[0]

    def test_specials_order(self):
        width = 64
        keys = [
            fixed_width_key(v, width)
            for v in (
                NEGATIVE_INFINITY,
                parse_decimal("-1"),
                NEGATIVE_ZERO,
                POSITIVE_ZERO,
                parse_decimal("1"),
                POSITIVE_INFINITY,
                NAN,
            )
        ]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)

    @given(finite_values(max_digits=6, max_exponent=40), finite_values(max_digits=6, max_exponent=40))
    def test_bytewise_order_matches_numeric_without_truncation(self, a, b):
        # 6 digits and e <= 40 fit 64 bits untruncated, so order is strict.
        ka = fixed_width_key(a, 64)
        kb = fixed_width_key(b, 64)
        expected = compare_numeric(a, b)
        got = -1 if ka < kb else (1 if ka > kb else 0)
        assert got == expected

    def test_truncation_is_monotone(self):
        import functools

        rng = random.Random(5)
        values = [random_finite(rng, max_digits=40, max_exponent=10**6) for _ in range(300)]
        values.sort(key=functools.cmp_to_key(compare_numeric))
        keys = [fixed_width_key(v, 64) for v in values]
        assert keys == sorted(keys)
