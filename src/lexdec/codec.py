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
packer shifts them into a single int, wrapped once as a :class:`BitString`.
The layout cuts the significand's digit text into three-character slices
and looks each one up in ``_DECLET_VALUE``, so no step converts the whole
text at once; the decoder turns declets back into text with its inverse,
``_DECLET_TEXT``. One table pair serves both directions. A fixed-width
key is the canonical encoding's integer shifted to the key width. The
complement to ten is one step on those declet integers, used by the encoder
and the decoder alike.

The prefix-free form is the canonical form with a continuation bit in front
of each declet and a 0 at the end. So one packer and one significand reader
serve every framing, and the only difference between them is the stride of
a group: 10 bits canonical and trimmed, 11 bits prefix-free.

Decoding reads the input's ``0``/``1`` text, rendered once, directly: each
reader takes the text and a position and returns where it stopped. The
exponent field's run ends at one ``str.find``. The significand's span (the
rest of the input, or the chain of groups that start with a 1) is converted
with one ``int()``, and its declets are cut by shifts. Long significands are
joined and cut by halves, so they encode and decode in n log n time.
"""

from __future__ import annotations

import enum
import re
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
    "FixedWidthKey",
    "encode",
    "decode",
    "encode_prefix_free",
    "decode_prefix_free_stream",
    "fixed_width_key",
    "canonical_bit_length",
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
_HEADER_POSITIVE = 0b10


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
    """Read an exponent field at the cursor, un-flipping it when its leading bit is 0."""
    inverted, run, position = _exponent_run(cursor._text, cursor.position)
    exponent, cursor.position = _exponent_payload(cursor._text, position, inverted, run)
    return encode_exponent(exponent, inverted)


def _exponent_run(text: str, position: int) -> tuple[bool, int, int]:
    """Read an exponent field's leading run and the opposite bit ending it.

    Returns ``(inverted, R, position after the ending bit)``: the field spans
    2R+1 bits, and its exponent is at least ``2**R - EXPONENT_OFFSET`` before
    the payload is even read.
    """
    first = text[position : position + 1]
    if not first:
        raise DecodeError(DecodeErrorKind.TRUNCATED_INPUT, position)
    end = text.find("1" if first == "0" else "0", position)
    if end < 0:
        raise DecodeError(DecodeErrorKind.TRUNCATED_INPUT, len(text))
    return first == "0", end - position, end + 1


def _exponent_payload(text: str, position: int, inverted: bool, run: int) -> tuple[int, int]:
    """The exponent of a field whose run of ``run`` bits ends before
    ``position``, and the position after its ``run``-bit payload."""
    end = position + run
    if end > len(text):
        raise DecodeError(DecodeErrorKind.TRUNCATED_INPUT, position)
    payload = int(text[position:end], 2)
    if inverted:
        payload ^= (1 << run) - 1
    return ((1 << run) | payload) - EXPONENT_OFFSET, end


def encode_significand(digits: str, negative: bool) -> BitString:
    """Pack canonical significand digit text into a tetrade plus declets.

    For negative values the digits of ``10 - m`` are stored instead (their
    leading digit may then be zero).
    """
    try:
        if not digits or (negative and digits[-1] not in "123456789"):
            raise ValueError("need digits; a negative significand's last one must be in 1..9")
        return _pack(0, 0, *_significand_layout(digits, negative))
    except KeyError:
        raise ValueError("significand digits must be ASCII 0-9") from None
    except TypeError:
        raise TypeError(f"encode_significand takes a str, not {type(digits).__name__}") from None


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
    declets = [
        _DECLET_VALUE[padded[i : i + DECLET_DIGITS]] for i in range(1, len(digits), DECLET_DIGITS)
    ]
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


# Lookups beat formatting and int(): a declet's three digits, and back.
_DECLET_TEXT = tuple(f"{declet:03d}" for declet in range(1000))
_DECLET_VALUE = {text: declet for declet, text in enumerate(_DECLET_TEXT)}


def _pack(head: int, width: int, tetrade: int, declets: list[int], continued=False) -> BitString:
    """Shift the fields into one integer, wrapped once as a bit string.

    ``continued`` puts a 1 in front of each declet, making 11-bit groups, and
    a 0 after the last group: a continuation bit after the tetrade and after
    each declet, 1 while another declet follows.
    """
    if continued:
        declets = [1 << DECLET_BITS | declet for declet in declets]
    stride = DECLET_BITS + continued
    bits = _append_groups(head << TETRADE_BITS | tetrade, declets, stride)
    length = width + TETRADE_BITS + stride * len(declets) + continued
    return BitString._raw(bits << continued, length)


def _append_groups(bits: int, groups: list[int], stride: int) -> int:
    """``bits`` followed by each group on ``stride`` bits.

    A long run is halved first, as :func:`_cut_declets` cuts one, so that the
    shifts act on short integers: a long significand costs n log n, not n
    squared.
    """
    count = len(groups)
    if count > 64:
        low = count // 2
        high = _append_groups(bits, groups[: count - low], stride)
        return high << stride * low | _append_groups(0, groups[count - low :], stride)
    for group in groups:
        bits = bits << stride | group
    return bits


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
    return _decode_value(_bit_text(bits, "decode"), 0, framing, max_exponent)[0]


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
    text = _bit_text(bits, "decode_prefix_free_stream")
    values = []
    position = 0
    while position < len(text):
        value, position = _decode_value(text, position, _Framing.CONTINUATION, max_exponent)
        values.append(value)
    return values


def _bit_text(bits: BitString, caller: str) -> str:
    """The ``0``/``1`` text of a decoder's input, which must be a :class:`BitString`."""
    try:
        return bits.to_text()
    except AttributeError:
        raise TypeError(f"{caller} takes a BitString, not {type(bits).__name__}") from None


class _Framing(enum.Enum):
    """Where a value ends: its significand's last group, and its special values."""

    TO_END = enum.auto()  # at the end of input; a short all-zero tail is padding
    REPADDED = enum.auto()  # at the end of input; a short last group is zero-extended
    CONTINUATION = enum.auto()  # a bit after each group: 1 while more groups follow


def _decode_value(
    text: str, start: int, framing: _Framing, max_exponent: int
) -> tuple[DecimalValue, int]:
    """Read one value from ``start`` in the bit text; return it and where it ends.

    Error positions are offsets into the whole text. Under continuation
    framing, ``11`` is NaN when a 1 follows and positive infinity otherwise.
    An exponent field whose length alone puts it above ``max_exponent`` is
    rejected before its payload is read; the error then carries the smallest
    exponent of that length.
    """
    header = text[start : start + 2]
    if len(header) < 2:
        raise DecodeError(DecodeErrorKind.TRUNCATED_INPUT, start)
    position = start + 2
    if header in ("01", "11"):
        value = NEGATIVE_ZERO if header == "01" else POSITIVE_INFINITY
        if header == "11" and text[position : position + 1] == "1":
            position += 1
            value = NAN
        if framing is not _Framing.CONTINUATION and position < len(text):
            raise DecodeError(DecodeErrorKind.INVALID_HEADER, start)
        return value, position
    if position == len(text):
        return (POSITIVE_ZERO if header == "10" else NEGATIVE_INFINITY), position

    negative = header == "00"
    inverted, run, position = _exponent_run(text, position)
    # The field is flipped exactly when the two signs differ.
    exponent_sign = ExponentSign.NEGATIVE if negative != inverted else ExponentSign.NON_NEGATIVE
    least = (1 << run) - EXPONENT_OFFSET
    if least > max_exponent:
        raise ExponentLimitError(exponent_sign * least, max_exponent)
    exponent, position = _exponent_payload(text, position, inverted, run)
    if exponent > max_exponent:
        raise ExponentLimitError(exponent_sign * exponent, max_exponent)
    if exponent == 0 and exponent_sign is ExponentSign.NEGATIVE:
        raise DecodeError(DecodeErrorKind.NEGATIVE_ZERO_EXPONENT, start + 2)

    digits, position = _read_significand(text, position, negative, framing)
    sign = Sign.NEGATIVE if negative else Sign.POSITIVE
    form = ScientificForm._raw(sign, exponent_sign, exponent, digits)
    return DecimalValue._finite(form), position


def decode_significand(cursor: BitCursor, negative: bool) -> str:
    """Read the significand through the end of the input and re-normalize it.

    Declet zero-padding is stripped; for negative values the complement to
    ten is taken back. Validates every tetrade/declet range and that the
    decoded significand lies in [1, 10).
    """
    digits, cursor.position = _read_significand(
        cursor._text, cursor.position, negative, _Framing.TO_END
    )
    return digits


_CONTINUED_GROUPS = re.compile("(?:1[01]{10})*")  # a continuation bit of 1, then a declet


def _read_significand(
    text: str, start: int, negative: bool, framing: _Framing
) -> tuple[str, int]:
    """Read the stored groups from ``start`` with one read, check them and
    re-normalize; return the digit text and where the significand ends.

    The groups span the rest of the input or, under continuation framing, the
    chain of groups that start with a 1: a declet every 11 bits, not every
    10. Faults are reported in the order a reader taking one group at a time
    would meet them: the tetrade, each declet, then the cut in the input.
    """
    end = len(text)
    size = end - start
    continued = framing is _Framing.CONTINUATION
    repadded = framing is _Framing.REPADDED
    if size == 0 or (size < TETRADE_BITS and not repadded):
        raise DecodeError(DecodeErrorKind.TRUNCATED_INPUT, start)
    stride = DECLET_BITS + continued
    cut = None  # where the input stops inside a group
    if continued:
        end = _CONTINUED_GROUPS.match(text, start + TETRADE_BITS).end()
        # A 0 ends the chain; a 1 starts a group that the input cuts short.
        stop = text[end : end + 1]
        if stop != "0":
            cut = end + len(stop)
        size = end - start
    bits = int(text[start:end], 2)
    group_bits = size - TETRADE_BITS
    if repadded:
        # A short last group, even a short tetrade, is zero-extended.
        pad = -group_bits % DECLET_BITS
        bits <<= pad
        group_bits += pad
    elif not continued:
        # A short all-zero tail is byte-alignment padding; anything else
        # means the input was cut mid-declet.
        short = group_bits % DECLET_BITS
        if bits & ((1 << short) - 1):
            cut = start + size - short
        bits >>= short
        group_bits -= short
    first = bits >> group_bits
    if first > 9:
        raise DecodeError(DecodeErrorKind.DIGIT_OUT_OF_RANGE, start)
    declets = _cut_declets(bits, group_bits // stride, stride)
    if max(declets, default=0) > 999:
        index = next(i for i, declet in enumerate(declets) if declet > 999)
        position = start + TETRADE_BITS + stride * (index + 1) - DECLET_BITS
        raise DecodeError(DecodeErrorKind.DIGIT_OUT_OF_RANGE, position)
    if cut is not None:
        raise DecodeError(DecodeErrorKind.TRUNCATED_INPUT, cut)
    while declets and not declets[-1]:
        declets.pop()
    if negative:
        # Stored value must be in (0, 9] so that 10 - stored is in [1, 10).
        if (first == 0 and not declets) or (first == 9 and declets):
            raise DecodeError(DecodeErrorKind.SIGNIFICAND_OUT_OF_RANGE, start)
        first, declets = _complement(first, declets)
    elif first == 0:
        raise DecodeError(DecodeErrorKind.SIGNIFICAND_OUT_OF_RANGE, start)
    # Under continuation framing the significand ends after the 0 closing the chain.
    return _digit_text(first, declets).rstrip("0"), end + continued


def _cut_declets(bits: int, count: int, stride: int) -> list[int]:
    """The declets of the last ``count`` groups of ``bits``, leftmost first.

    Each group is ``stride`` bits wide and its declet is its low 10 bits.

    A long run is halved first, so that the shifts that cut single declets
    act on short integers: a long significand costs n log n, not n squared.
    """
    if count > 64:
        low = count // 2
        high_part = _cut_declets(bits >> stride * low, count - low, stride)
        return high_part + _cut_declets(bits & ((1 << stride * low) - 1), low, stride)
    return [bits >> shift & 1023 for shift in range(stride * (count - 1), -1, -stride)]


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
