"""The encoder and decoder: canonical, prefix-free and fixed-width forms.

Layout of a finite value, left to right:

* a 2-bit sign header: ``00`` negative, ``10`` positive;
* the exponent field: for the exponent magnitude ``e``, let ``k = e+2`` and
  ``N = k.bit_length()``; the field is ``N-1`` one bits, a zero, then the
  binary digits of ``k`` without their leading one, ``2N-1`` bits in all.
  These codewords sort in the order of their values and form a prefix code,
  so a reader finds the field's length from its leading run. The field is
  bit-flipped exactly when the overall sign and the exponent sign differ, so
  that larger numbers always get lexicographically larger encodings; flipped
  fields sort in reverse and are still a prefix code;
* the significand: the leading digit on 4 bits (tetrade), then the remaining
  digits in groups of three, each group on 10 bits (declet), the last group
  zero-padded to three digits. A negative value stores the digits of
  ``10 - m`` instead of ``m``, which reverses the significand order exactly
  where it must.

Special values: ``00`` negative infinity, ``01`` negative zero, ``10``
positive zero, ``11`` positive infinity, ``111`` NaN. Sorting the encodings
with :func:`lexdec.bits.lex_compare` therefore matches numeric order, with
negative zero immediately below positive zero.

The prefix-free form inserts a continuation bit after the tetrade and after
each declet (1: more groups follow, 0: done), so concatenated encodings split
apart again without a length prefix. The fixed-width form truncates or
zero-pads the canonical encoding to a fixed number of bits so that plain
bytewise comparison of the keys reproduces numeric order on stores that only
compare equal-length binaries.

Encoding works on integers: one layout step lists a value's fields, and one
packer shifts them into a single int, wrapped once as a :class:`BitString`,
either plain or with continuation bits. The layout cuts the significand's
digit text into three-character slices, one ``int()`` each, so no step
converts the whole text at once. A fixed-width key is the canonical
encoding's integer shifted to the key width. The complement to ten is one
step on those declet integers, used by the encoder and the decoder alike.

One value decoder reads all three framings of a significand: to the end of
the input, re-padded after trimming, or with continuation bits. The first two
read the whole significand with one read, cut the tetrade and declets from
it by shifts, and write each declet back as three digits of text.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .bits import BitCursor, BitString
from .decimal_values import (
    DEFAULT_MAX_EXPONENT,
    NAN,
    NEGATIVE_INFINITY,
    NEGATIVE_ZERO,
    POSITIVE_INFINITY,
    POSITIVE_ZERO,
    DecimalValue,
    ExponentSign,
    Kind,
    ScientificForm,
    Sign,
)
from .errors import DecodeError, DecodeErrorKind, ExponentLimitError, KeyWidthError

__all__ = [
    "DecodeError",
    "DecodeErrorKind",
    "ExponentField",
    "FixedWidthKey",
    "encode",
    "decode",
    "encode_prefix_free",
    "decode_prefix_free_stream",
    "fixed_width_key",
    "exponent_field_length",
    "encode_exponent",
    "decode_exponent",
    "encode_significand",
    "decode_significand",
    "complement_to_ten",
    "canonical_bit_length",
    "SPECIAL_ENCODINGS",
]

# The exponent is coded offset by 2 so the length-discriminating run is never
# empty; without it the field could not carry both its length and its sign.
EXPONENT_OFFSET = 2
TETRADE_BITS = 4
DECLET_BITS = 10
DECLET_DIGITS = 3

SPECIAL_ENCODINGS: dict[Kind, BitString] = {
    Kind.NEGATIVE_INFINITY: BitString("00"),
    Kind.NEGATIVE_ZERO: BitString("01"),
    Kind.POSITIVE_ZERO: BitString("10"),
    Kind.POSITIVE_INFINITY: BitString("11"),
    Kind.NAN: BitString("111"),
}

_HEADER_NEGATIVE = 0b00
_HEADER_NEGATIVE_ZERO = 0b01
_HEADER_POSITIVE = 0b10
_HEADER_POSITIVE_OR_INF = 0b11


@dataclass(frozen=True, slots=True)
class ExponentField:
    """An encoded exponent: the bits, the exponent, and whether bits were flipped."""

    bits: BitString
    exponent: int
    inverted: bool


def exponent_field_length(exponent: int) -> int:
    """Bit length of the encoded exponent field, 2*floor(log2(e+2)) + 1."""
    return 2 * (exponent + EXPONENT_OFFSET).bit_length() - 1


def exponent_field(exponent: int, invert: bool) -> tuple[int, int]:
    """The exponent field as an integer and its width in bits.

    Every bit is flipped when ``invert``; the caller decides it from the
    decimal's sign pair.
    """
    k = exponent + EXPONENT_OFFSET
    n = k.bit_length()
    width = 2 * n - 1
    # N-1 ones and a zero, then k without its leading one.
    code = ((1 << n) - 2) << (n - 1) | k ^ (1 << (n - 1))
    return (code ^ ((1 << width) - 1) if invert else code), width


def encode_exponent(exponent: int, invert: bool) -> ExponentField:
    """Encode a non-negative exponent as :func:`exponent_field` does."""
    if exponent < 0:
        raise ValueError("exponent must be non-negative")
    return ExponentField(BitString._raw(*exponent_field(exponent, invert)), exponent, invert)


def decode_exponent(cursor: BitCursor) -> ExponentField:
    """Read an exponent field, un-flipping it when its leading bit is 0."""
    inverted, run = _read_exponent_run(cursor)
    payload = cursor.read_bits(run)
    # The bits as read: the run, the opposite bit that ends it, the payload.
    field = (1 << run if inverted else ((1 << run) - 1) << (run + 1)) | payload
    exponent = _exponent_from_payload(inverted, run, payload)
    return ExponentField(BitString._raw(field, 2 * run + 1), exponent, inverted)


def _read_exponent_run(cursor: BitCursor) -> tuple[bool, int]:
    """Read an exponent field's leading run and the opposite bit ending it.

    Returns ``(inverted, R)``: the field spans 2R+1 bits, and its exponent is
    at least ``2**R - EXPONENT_OFFSET`` before the payload is even read.
    """
    first = cursor.read_bit()
    return first == 0, 1 + cursor.read_run(first)


def _exponent_from_payload(inverted: bool, run: int, payload: int) -> int:
    """The exponent of a field whose run of ``run`` bits ends before ``payload``."""
    if inverted:
        payload ^= (1 << run) - 1
    return ((1 << run) | payload) - EXPONENT_OFFSET


def complement_to_ten(digits: str) -> str:
    """Digit text of ``10 - m``, same digit count as ``m``; self-inverse.

    Nines' complement on every digit except the last, tens' complement on the
    last. The input's last digit must be non-zero (canonical significands
    never end in zero), which keeps the operation an involution.
    """
    if not digits or digits[-1] not in "123456789":
        raise ValueError("last digit must be in 1..9")
    return _digit_text(*_significand_layout(digits, True))[: len(digits)]


def encode_significand(digits: str, negative: bool) -> BitString:
    """Pack canonical significand digit text into a tetrade plus declets.

    For negative values the digits of ``10 - m`` are stored instead (their
    leading digit may then be zero).
    """
    if not digits or (negative and digits[-1] not in "123456789"):
        raise ValueError("need digits; a negative significand's last one must be in 1..9")
    return _pack(0, 0, *_significand_layout(digits, negative))


def encode(value: DecimalValue, *, trim: bool = False) -> BitString:
    """Encode any value; with ``trim``, trailing zero bits of finite
    encodings are removed (the decoder re-pads them)."""
    if not isinstance(value, DecimalValue):
        raise TypeError(f"encode takes a DecimalValue, not {type(value).__name__}")
    if value.kind is not Kind.FINITE:
        return SPECIAL_ENCODINGS[value.kind]
    bits = _pack(*_layout(value.form))
    # Safe: the significand always contains a one bit, so the header and
    # exponent field are never touched.
    return bits.strip_trailing_zeros() if trim else bits


def encode_prefix_free(value: DecimalValue) -> BitString:
    """Canonical encoding with continuation bits in the significand.

    Special values carry no significand and are emitted unchanged; within a
    stream they are recognised by their short headers (see
    :func:`decode_prefix_free_stream` for the exact rules).
    """
    if not isinstance(value, DecimalValue):
        raise TypeError(f"encode_prefix_free takes a DecimalValue, not {type(value).__name__}")
    if value.kind is not Kind.FINITE:
        return SPECIAL_ENCODINGS[value.kind]
    return _pack(*_layout(value.form), continued=True)


@dataclass(frozen=True, slots=True)
class FixedWidthKey:
    """A fixed-width, bytewise-comparable key."""

    data: bytes
    width_bits: int


def fixed_width_key(value: DecimalValue, width_bits: int) -> FixedWidthKey:
    """Truncate or zero-pad the canonical encoding to exactly ``width_bits``.

    Truncation loses significand detail (neighbouring values may collapse)
    but never reorders keys. The sign header, exponent field and tetrade must
    fit entirely, otherwise a :class:`KeyWidthError` is raised: that is the
    range limit a given key width imposes.

    Padding is with trailing zeros. Leading padding would shift the sign
    header and destroy the bytewise order.
    """
    if width_bits < 8 or width_bits % 8:
        raise ValueError("width_bits must be a positive multiple of 8")
    if isinstance(value, DecimalValue) and value.kind is Kind.FINITE:
        layout = _layout(value.form)
        fixed_fields = layout[1] + TETRADE_BITS
        if fixed_fields > width_bits:
            raise KeyWidthError(
                f"sign, exponent and leading digit need {fixed_fields} bits, "
                f"key width is {width_bits}"
            )
        bits = _pack(*layout)
    else:
        bits = encode(value)  # a special value, or a TypeError
    shift = width_bits - len(bits)
    key = bits._value << shift if shift >= 0 else bits._value >> -shift
    data = key.to_bytes(width_bits // 8, "big")
    return FixedWidthKey(data=data, width_bits=width_bits)


def _layout(form: ScientificForm) -> tuple[int, int, int, list[int]]:
    """A finite value's fields: the sign header and exponent field as one
    integer and its width, the stored tetrade digit and the stored declets
    (three digits each, the last zero-padded)."""
    negative = form.sign is Sign.NEGATIVE
    field, width = exponent_field(form.exponent, form.sign != form.exponent_sign)
    head = (_HEADER_NEGATIVE if negative else _HEADER_POSITIVE) << width | field
    return (head, width + 2, *_significand_layout(form.digits, negative))


def _significand_layout(digits: str, negative: bool) -> tuple[int, list[int]]:
    padded = digits + "00"  # zero-pads the last group to three digits
    declets = [int(padded[i : i + DECLET_DIGITS]) for i in range(1, len(digits), DECLET_DIGITS)]
    if negative:
        return _complement(int(digits[0]), declets)
    return int(digits[0]), declets


def _complement(first: int, declets: list[int]) -> tuple[int, list[int]]:
    """10 - m on the zero-padded digit groups of m, which must end in a
    non-zero group: the nines' complement of every group, plus one in the
    last place. The carry never leaves the last group."""
    if not declets:
        return 10 - first, declets
    declets = [999 - declet for declet in declets]
    declets[-1] += 1
    return 9 - first, declets


def _digit_text(first: int, declets: list[int]) -> str:
    """The tetrade digit and every declet's three digits, padding included."""
    return str(first) + "".join([_DECLET_TEXT[declet] for declet in declets])


_DECLET_TEXT = tuple(f"{declet:03d}" for declet in range(1000))  # a lookup beats formatting


def _pack(head: int, width: int, tetrade: int, declets: list[int], continued=False) -> BitString:
    """Shift the fields into one integer, wrapped once as a bit string.

    ``continued`` adds a bit after the tetrade and after each declet: 1 while
    another declet follows, 0 after the last group.
    """
    if not continued:
        bits = head << TETRADE_BITS | tetrade
        for declet in declets:
            bits = bits << DECLET_BITS | declet
        return BitString._raw(bits, width + TETRADE_BITS + DECLET_BITS * len(declets))
    bits = (head << TETRADE_BITS | tetrade) << 1 | 1
    for declet in declets:
        bits = (bits << DECLET_BITS | declet) << 1 | 1
    return BitString._raw(bits - 1, width + TETRADE_BITS + 1 + (DECLET_BITS + 1) * len(declets))


def decode(
    bits: BitString, *, trim: bool = False, max_exponent: int = DEFAULT_MAX_EXPONENT
) -> DecimalValue:
    """Exact inverse of :func:`encode` over its image; consumes the whole input.

    With ``trim`` the last tetrade or declet may arrive shortened and is
    zero-extended before reading. Without it, only an all-zero partial tail
    is tolerated (byte-alignment padding); any other mid-field end raises a
    truncation error. Raises :class:`DecodeError` for anything outside the
    valid forms and :class:`ExponentLimitError` for an exponent magnitude
    above ``max_exponent``, as :func:`parse_decimal` does.
    """
    framing = _Framing.REPADDED if trim else _Framing.TO_END
    return _decode_value(BitCursor(bits), framing, max_exponent)


def decode_prefix_free_stream(
    bits: BitString, *, max_exponent: int = DEFAULT_MAX_EXPONENT
) -> list[DecimalValue]:
    """Split a concatenation of prefix-free encodings back into values.

    Time is linear in the length of the stream. Finite values, negative zero
    and NaN are self-delimiting anywhere in the stream. The two-bit headers
    of the remaining specials collide with the headers of finite values, so
    the decoder resolves them as follows:

    * ``11`` is read as NaN when the next bit is a 1, as positive infinity
      when the next bit is a 0 or the input ends;
    * ``00`` and ``10`` followed by anything are read as the start of a
      finite value, so negative infinity and positive zero can only stand at
      the end of a stream.

    Errors are those of :func:`decode`, with positions counted from the start
    of the stream.
    """
    cursor = BitCursor(bits)
    values = []
    while not cursor.at_end():
        values.append(_decode_value(cursor, _Framing.CONTINUATION, max_exponent))
    return values


class _Framing(enum.Enum):
    """Where a value ends: its significand's last group, and its special values."""

    TO_END = enum.auto()  # at the end of input; a short all-zero tail is padding
    REPADDED = enum.auto()  # at the end of input; a short last group is zero-extended
    CONTINUATION = enum.auto()  # a bit after each group: 1 while more groups follow


def _decode_value(cursor: BitCursor, framing: _Framing, max_exponent: int) -> DecimalValue:
    """Read one value; error positions are offsets into the cursor's whole source.

    Under continuation framing, ``11`` is NaN when a 1 follows and positive
    infinity otherwise. An exponent field whose length alone puts it above
    ``max_exponent`` is rejected before its payload is read; the error then
    carries the smallest exponent of that length.
    """
    start = cursor.position
    header = cursor.read_bits(2)
    if header in (_HEADER_NEGATIVE_ZERO, _HEADER_POSITIVE_OR_INF):
        value = NEGATIVE_ZERO if header == _HEADER_NEGATIVE_ZERO else POSITIVE_INFINITY
        if header == _HEADER_POSITIVE_OR_INF and cursor.peek_bit() == 1:
            cursor.read_bit()
            value = NAN
        if framing is not _Framing.CONTINUATION and not cursor.at_end():
            raise DecodeError(DecodeErrorKind.INVALID_HEADER, start)
        return value
    if cursor.at_end():
        return POSITIVE_ZERO if header == _HEADER_POSITIVE else NEGATIVE_INFINITY

    negative = header == _HEADER_NEGATIVE
    inverted, run = _read_exponent_run(cursor)
    # The field is flipped exactly when the two signs differ.
    exponent_sign = ExponentSign.NEGATIVE if negative != inverted else ExponentSign.NON_NEGATIVE
    least = (1 << run) - EXPONENT_OFFSET
    if least > max_exponent:
        raise ExponentLimitError(exponent_sign * least, max_exponent)
    exponent = _exponent_from_payload(inverted, run, cursor.read_bits(run))
    if exponent > max_exponent:
        raise ExponentLimitError(exponent_sign * exponent, max_exponent)
    if exponent == 0 and exponent_sign is ExponentSign.NEGATIVE:
        raise DecodeError(DecodeErrorKind.NEGATIVE_ZERO_EXPONENT, start + 2)

    digits = _read_significand(cursor, negative, framing)
    sign = Sign.NEGATIVE if negative else Sign.POSITIVE
    return DecimalValue.finite(ScientificForm._raw(sign, exponent_sign, exponent, digits))


def decode_significand(cursor: BitCursor, negative: bool) -> str:
    """Read the significand through the end of the input and re-normalize it.

    Declet zero-padding is stripped; for negative values the complement to
    ten is taken back. Validates every tetrade/declet range and that the
    decoded significand lies in [1, 10).
    """
    return _read_significand(cursor, negative, _Framing.TO_END)


def _read_significand(cursor: BitCursor, negative: bool, framing: _Framing) -> str:
    start = cursor.position
    if framing is _Framing.CONTINUATION:
        first, declets = _read_continued_groups(cursor)
    else:
        first, declets = _read_to_end(cursor, framing is _Framing.REPADDED)
    while declets and not declets[-1]:
        declets.pop()
    if negative:
        # Stored value must be in (0, 9] so that 10 - stored is in [1, 10).
        if (first == 0 and not declets) or (first == 9 and declets):
            raise DecodeError(DecodeErrorKind.SIGNIFICAND_OUT_OF_RANGE, start)
        first, declets = _complement(first, declets)
    elif first == 0:
        raise DecodeError(DecodeErrorKind.SIGNIFICAND_OUT_OF_RANGE, start)
    return _digit_text(first, declets).rstrip("0")


def _read_to_end(cursor: BitCursor, repadded: bool) -> tuple[int, list[int]]:
    """The stored tetrade and declets, read with one read through the end."""
    start = cursor.position
    size = cursor.remaining
    if size == 0 or (size < TETRADE_BITS and not repadded):
        raise DecodeError(DecodeErrorKind.TRUNCATED_INPUT, start)
    bits = cursor.read_bits(size)
    declet_bits = size - TETRADE_BITS
    tail = 0
    if repadded:
        # A short last group, even a short tetrade, is zero-extended.
        pad = -declet_bits % DECLET_BITS
        bits <<= pad
        declet_bits += pad
    else:
        # A short all-zero tail is byte-alignment padding; anything else
        # means the input was cut mid-declet.
        short = declet_bits % DECLET_BITS
        tail = bits & ((1 << short) - 1)
        bits >>= short
        declet_bits -= short
    first = bits >> declet_bits
    if first > 9:
        raise DecodeError(DecodeErrorKind.DIGIT_OUT_OF_RANGE, start)
    declets = _cut_declets(bits, declet_bits // DECLET_BITS)
    if max(declets, default=0) > 999:
        index = next(i for i, declet in enumerate(declets) if declet > 999)
        raise DecodeError(
            DecodeErrorKind.DIGIT_OUT_OF_RANGE, start + TETRADE_BITS + DECLET_BITS * index
        )
    if tail:
        raise DecodeError(DecodeErrorKind.TRUNCATED_INPUT, start + TETRADE_BITS + declet_bits)
    return first, declets


def _cut_declets(bits: int, count: int) -> list[int]:
    """The last ``count`` 10-bit groups of ``bits``, leftmost first.

    A long run is halved first, so that the shifts that cut single declets
    act on short integers: a long significand costs n log n, not n squared.
    """
    if count > 64:
        low = count // 2
        high_part = _cut_declets(bits >> DECLET_BITS * low, count - low)
        return high_part + _cut_declets(bits & ((1 << DECLET_BITS * low) - 1), low)
    return [bits >> shift & 1023 for shift in range(DECLET_BITS * (count - 1), -1, -DECLET_BITS)]


def _read_continued_groups(cursor: BitCursor) -> tuple[int, list[int]]:
    """The stored tetrade and declets, one group and continuation bit at a time."""
    start = cursor.position
    first = cursor.read_bits(TETRADE_BITS)
    if first > 9:
        raise DecodeError(DecodeErrorKind.DIGIT_OUT_OF_RANGE, start)
    declets = []
    while cursor.read_bit():
        group_start = cursor.position
        declet = cursor.read_bits(DECLET_BITS)
        if declet > 999:
            raise DecodeError(DecodeErrorKind.DIGIT_OUT_OF_RANGE, group_start)
        declets.append(declet)
    return first, declets


def canonical_bit_length(value: DecimalValue) -> int:
    """Length of the untrimmed encoding without building it.

    For finite values this is ``2 + (2*floor(log2(e+2)) + 1) + 4 + 10*ceil((n-1)/3)``
    with ``n`` the significand digit count.
    """
    if not isinstance(value, DecimalValue):
        raise TypeError(f"canonical_bit_length takes a DecimalValue, not {type(value).__name__}")
    if value.kind is not Kind.FINITE:
        return len(SPECIAL_ENCODINGS[value.kind])
    form = value.form
    declets = (len(form.digits) - 1 + DECLET_DIGITS - 1) // DECLET_DIGITS
    return 2 + exponent_field_length(form.exponent) + TETRADE_BITS + DECLET_BITS * declets
