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

The codec describes this layout once. The packer and the reader work on
the field widths above, and ``_field_ends`` gives a value's field
boundaries, with the exponent field's width from its writer: where the
sign header, the exponent field, the tetrade and each declet end.
``canonical_bit_length`` (its last boundary), the CLI's grouped ``encode``
output, ``bench-size``'s ``exponent_bits`` column and ``fixed_width_key``'s
fit check all read them, so none of them works out a width of its own.

Special values: ``00`` negative infinity, ``01`` negative zero, ``10``
positive zero, ``11`` positive infinity, ``111`` NaN. Sorting the encodings
with :func:`lexdec.bits.lex_compare` therefore matches numeric order, with
negative zero immediately below positive zero.

The prefix-free form inserts a continuation bit after the tetrade and after
each declet (1: more groups follow, 0: done), so concatenated encodings split
apart again without a length prefix. The fixed-width form truncates or
zero-pads the canonical encoding to a fixed number of bits and returns it
as plain ``bytes``, so that bytewise comparison of the keys reproduces
numeric order on stores that only compare equal-length binaries.

What each decoder accepts, exactly; anything else raises
:class:`DecodeError` or :class:`ExponentLimitError`:

* ``decode`` accepts ``encode(v)``, followed by any number of zero bits
  when ``v`` is finite;
* ``decode(trim=True)`` accepts ``encode(v, trim=True)``, likewise followed
  by zero bits when ``v`` is finite;
* ``decode_prefix_free_stream`` accepts exactly the concatenations of
  ``encode_prefix_free`` outputs, under its rule for the specials.

So a finite key zero-padded to whole bytes, or a ``fixed_width_key`` that
was not cut, decodes to its value. The padded input and the canonical key
then decode to the same value but compare unequal: :func:`lex_compare`
sorts the padded one after the key it extends.

Encoding mirrors decoding (below): one frame, ``_write``, writes a value
and never writes ``0``/``1`` text. It calls three helpers. The exponent
field's one writer, ``exponent_field``, gives the head's field.
``_lane_slots`` takes the digit text, zero-padded to whole groups and read
with one ``int.from_bytes`` (which has none of ``int()``'s 4,300-digit
limit), and turns each three-byte lane into its declet with one step of
three masked terms, then compresses the lanes in log-depth steps into the
slots the decoder reads, 10 or 11 bits apart, the leading digit's above
them. A negative value's complement to ten, ``_ten_minus``, is taken on
those slots by the function that takes it back when decoding, so the
paper's complement involution is one function applied twice. A fixed-width
key is the canonical encoding's integer shifted to the key width.

The prefix-free form is the canonical form with a continuation bit in front
of each declet and a 0 at the end. So one writer and one significand reader
serve every framing, and the only difference between them is the stride of
a group: 10 bits canonical and trimmed, 11 bits prefix-free.

Decoding reads the input's integer and its width in bits, never its
``0``/``1`` text, one value in one frame (``_read_value``). The header is a
shift; the one exponent-field reader, ``_read_exponent``, ends the field's
run where ``bit_length()`` of the rest of the input (or of its complement)
says; the payload is a shift and a mask. The significand needs no mask of
its own: the tetrade's 4-bit mask and the slot masks drop the head above it.
The declets are never cut apart: they stay slots of one integer, 10 or 11
bits apart, and a few whole-integer operations check them all against 999,
take a negative value's complement to ten, and merge adjacent slots in pairs
until each block of up to 64 declets is one base-1000 integer. The leading
digit, 1 to 9, goes on top of the first block, weighted ``1000**count``, so
one ``str()`` writes it and the block's declets, their zeros included (SIMD
within a register, after Lamport's "Multiple byte processing with full-word
instructions", CACM 1975). Under prefix-free framing the chain of groups
ends at the highest set bit of the group-leading bits that are 0, found in
one step. Both directions halve a long significand into blocks of up to 64
groups, so it encodes and decodes in n log n time. A stream is split by
reading each value from a view cut out of a chunk of its packed bytes, a
view that doubles in width only while it cuts the value short, so splitting
stays linear.

The field adapters in the block at the end of this module only wrap these
frames, for the benchmark.
"""

from __future__ import annotations

import sys

from .bits import BitString
from .decimal_values import (
    DEFAULT_MAX_EXPONENT,
    NAN,
    NEGATIVE_INFINITY,
    NEGATIVE_ZERO,
    POSITIVE_INFINITY,
    POSITIVE_ZERO,
    _EXPONENT_NEGATIVE,
    _EXPONENT_NON_NEGATIVE,
    _FINITE,
    _NEGATIVE,
    _POSITIVE,
    DecimalValue,
    ExponentSign,
    Kind,
    ScientificForm,
    _finite_value,
)
from .errors import (
    DecodeError,
    DecodeErrorKind,
    ExponentLimitError,
    KeyWidthError,
    _require_int,
)

__all__ = [
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


def exponent_field(exponent: int, invert: bool) -> tuple[int, int]:
    """The exponent field as an integer and its width in bits.

    Every bit is flipped when ``invert``; the caller decides it from the
    decimal's sign pair. For ``k = exponent + EXPONENT_OFFSET`` of N bits,
    N-1 ones, a zero and k without its leading one are, in closed form,
    ``(1 << 2N-1) - (3 << N-1) + k``; flipped, ``(3 << N-1) - k - 1``.
    """
    k = exponent + EXPONENT_OFFSET
    n = k.bit_length()
    if invert:
        return (3 << n - 1) - k - 1, 2 * n - 1
    return (1 << 2 * n - 1) - (3 << n - 1) + k, 2 * n - 1


def _read_exponent(
    value: int, length: int, position: int, negative: bool, max_exponent: int
) -> tuple[ExponentSign, int, int]:
    """The exponent sign, exponent and end of the field at ``position`` in the
    ``length``-bit integer ``value``, in a value of sign ``negative``.

    A leading run of R bits makes a field of 2R+1 bits and an exponent of at
    least ``2**R - EXPONENT_OFFSET``; past ``max_exponent``, that least one
    is rejected before the payload is read.
    """
    rest = length - position
    mask = (1 << rest) - 1
    body = value & mask
    # A 0 first bit shortens the rest's bit length; a run of ones is a run
    # of zeros in the complement.
    inverted = body.bit_length() < rest
    if not inverted:
        body ^= mask
    if not body:
        raise DecodeError(DecodeErrorKind.TRUNCATED_INPUT, length)
    run = rest - body.bit_length()
    # The field is flipped exactly when the two signs differ.
    exponent_sign = _EXPONENT_SIGNS[negative != inverted]
    least = (1 << run) - EXPONENT_OFFSET
    if least > max_exponent:
        raise ExponentLimitError(exponent_sign * least, max_exponent)
    position += run + 1  # past the run and the bit ending it
    end = position + run
    if end > length:
        raise DecodeError(DecodeErrorKind.TRUNCATED_INPUT, position)
    # ``body`` is the run as zeros, a 1 and the payload p complemented: 2**(run+1) - 1 - p.
    exponent = (3 << run) - 3 - (body >> (length - end))
    if exponent > max_exponent:
        raise ExponentLimitError(exponent_sign * exponent, max_exponent)
    return exponent_sign, exponent, end


def encode(value: DecimalValue, *, trim: bool = False) -> BitString:
    """Encode any value; with ``trim``, trailing zero bits of finite
    encodings are removed (the decoder re-pads them)."""
    if not isinstance(value, DecimalValue):
        raise TypeError(f"encode takes a DecimalValue, not {type(value).__name__}")
    if value.kind is not _FINITE:
        return SPECIAL_ENCODINGS[value.kind]
    bits = _write(value.form, False)
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
    if value.kind is not _FINITE:
        return SPECIAL_ENCODINGS[value.kind]
    return _write(value.form, True)


def fixed_width_key(value: DecimalValue, width_bits: int) -> bytes:
    """The canonical encoding truncated or zero-padded to exactly
    ``width_bits``, as ``width_bits // 8`` bytes.

    Truncation loses significand detail (neighbouring values may collapse)
    but never reorders keys. The sign header, exponent field and tetrade must
    fit entirely, otherwise a :class:`KeyWidthError` is raised: that is the
    range limit a given key width imposes. A width above ``sys.maxsize``
    raises a ``ValueError``: no address space holds its key.

    Padding is with trailing zeros. Leading padding would shift the sign
    header and destroy the bytewise order.
    """
    if type(width_bits) is not int:
        _require_int("width_bits", width_bits)
    if width_bits < 8 or width_bits % 8:
        raise ValueError("width_bits must be a positive multiple of 8")
    if width_bits > sys.maxsize:
        raise ValueError(f"width_bits must be at most sys.maxsize ({sys.maxsize})")
    if not isinstance(value, DecimalValue):
        raise TypeError(f"fixed_width_key takes a DecimalValue, not {type(value).__name__}")
    if value.kind is _FINITE:
        fixed_fields = _field_ends(value.form)[2][0]  # where the tetrade ends
        if fixed_fields > width_bits:
            raise KeyWidthError(
                f"sign, exponent and leading digit need {fixed_fields} bits, "
                f"key width is {width_bits}"
            )
    bits = encode(value)
    shift = width_bits - len(bits)
    key = bits._value << shift if shift >= 0 else bits._value >> -shift
    return key.to_bytes(width_bits // 8, "big")


def _write(form: ScientificForm, continued: bool) -> BitString:
    """A finite value's encoding, packed into one integer and wrapped once.

    The sign header and the :func:`exponent_field` make the head. The digit
    text, zero-padded to whole groups, is read by one ``int.from_bytes``,
    and :func:`_lane_slots` turns each three-byte lane into a ``stride``-bit
    slot, the leading digit's above the declets. A negative value stores
    ``10 - m``, which :func:`_ten_minus` takes on the slots, as the reader
    takes it back.

    ``continued`` makes the slots 11 bits wide and sets the top bit of each
    declet's slot, the bit in front of it; one shift adds the 0 after the
    last group. That is a continuation bit after the tetrade and after each
    declet, 1 while another declet follows.
    """
    sign = form.sign
    negative = sign is _NEGATIVE
    field, width = exponent_field(form.exponent, sign != form.exponent_sign)
    digits = form.digits
    length = len(digits)
    stride = DECLET_BITS + continued
    count = (length + 1) // DECLET_DIGITS  # declets after the leading digit
    pad = DECLET_DIGITS * count + 1 - length  # zero digits ending the last group
    groups = _lane_slots(int.from_bytes(digits.encode(), "big") << 8 * pad, count + 1, stride)
    size = stride * count
    if negative or continued:
        ones = _MASKS[stride][count][0] if count <= _BLOCK else _spread_ones(count, stride)
        if negative:
            first = groups >> size
            first, slots, _ = _ten_minus(first, groups ^ first << size, ones)
            groups = first << size | slots
        if continued:
            groups = (groups | ones << DECLET_BITS) << 1
    size += TETRADE_BITS + continued  # the significand's width
    head = (_HEADER_NEGATIVE if negative else _HEADER_POSITIVE) << width | field
    bits = object.__new__(BitString)
    bits._value = head << size | groups
    bits._length = width + 2 + size
    bits._packed = None
    return bits


def _lane_slots(lanes: int, count: int, stride: int) -> int:
    """The values of ``count`` three-digit lanes, each in a ``stride``-bit slot.

    ``lanes`` holds ASCII digit text, three bytes to a 24-bit lane; the low
    nibble of each byte is its digit. One step of three masked terms turns
    every lane into ``100a + 10b + c``, then log-depth steps compress pairs
    of lanes, then pairs of pairs, until the values sit ``stride`` bits
    apart (SIMD within a register, after Lamport, CACM 1975). A run longer
    than a block is halved first, so a long significand costs n log n.
    """
    if count > _BLOCK:
        low = count // 2
        high_part = _lane_slots(lanes >> _LANE_BITS * low, count - low, stride)
        low_part = _lane_slots(lanes & ((1 << _LANE_BITS * low) - 1), low, stride)
        return high_part << stride * low | low_part
    slots = (lanes >> 16 & _NIBBLES) * 100 + (lanes >> 8 & _NIBBLES) * 10 + (lanes & _NIBBLES)
    for shift, mask in _COMPRESSIONS[stride][count]:
        # The left unit of each pair moves down next to the right one, into
        # its 0 bits; the mask drops what moved past it.
        slots = (slots | slots >> shift) & mask
    return slots


def decode(
    bits: BitString, *, trim: bool = False, max_exponent: int = DEFAULT_MAX_EXPONENT
) -> DecimalValue:
    """Exact inverse of :func:`encode` over its image; consumes the whole input.

    With ``trim`` the last tetrade or declet may arrive shortened and is
    zero-extended before reading. Either way, zero bits after a finite
    encoding are padding: whole zero declets as well as a short all-zero
    tail. Without ``trim``, any other mid-field end raises a truncation
    error. The module docstring states the accepted inputs exactly. Raises
    :class:`DecodeError` for anything outside the valid forms and
    :class:`ExponentLimitError` for an exponent magnitude above
    ``max_exponent``, as :func:`parse_decimal` does.
    """
    if not isinstance(bits, BitString):
        raise TypeError(f"decode takes a BitString, not {type(bits).__name__}")
    if type(max_exponent) is not int:
        _require_int("max_exponent", max_exponent)
    framing = _REPADDED if trim else _TO_END
    return _read_value(bits._value, bits._length, framing, max_exponent)[0]


# Bytes in a value's first view; a chunk holds four views of the width being read.
_WINDOW_BYTES = 64


def decode_prefix_free_stream(
    bits: BitString, *, max_exponent: int = DEFAULT_MAX_EXPONENT
) -> list[DecimalValue]:
    """Split a concatenation of prefix-free encodings back into values.

    Time is linear in the length of the stream. The stream is packed to bytes
    once and read into integers ``4 * _WINDOW_BYTES`` bytes at a time, a new
    chunk when the next value's view would run past the last one. A value's
    view, its first ``8 * _WINDOW_BYTES`` bits or the rest of the stream if
    that is shorter, is one shift of the chunk and one mask.

    A read that returns is final: the reader returns only once it has found
    the value's end inside its view. A finite value ends at the 0 that closes
    its chain of groups, ``01`` and ``111`` are whole, ``11`` is positive
    infinity only with the bit after it in the view, and ``00`` and ``10``
    stand alone only in a view of 2 bits, which only the stream's end gives.
    So only a cut, a truncation fault in a view that ends before the stream,
    makes the view twice as wide, read from a chunk four times the new width;
    each value costs time in proportion to its own length plus one view. That
    chunk is dropped once the value is read, so the short values after a long
    one are never shifted out of it.

    Finite values, negative zero and NaN are self-delimiting anywhere in the
    stream. The two-bit headers of the remaining specials collide with the
    headers of finite values, so the decoder resolves them as follows:

    * ``11`` is read as NaN when the next bit is a 1, as positive infinity
      when the next bit is a 0 or the input ends;
    * ``00`` and ``10`` followed by anything are read as the start of a
      finite value, so negative infinity and positive zero can only stand at
      the end of a stream.

    Errors are those of :func:`decode`, with positions counted from the start
    of the stream.
    """
    if not isinstance(bits, BitString):
        raise TypeError(f"decode_prefix_free_stream takes a BitString, not {type(bits).__name__}")
    if type(max_exponent) is not int:
        _require_int("max_exponent", max_exponent)
    data, length = bits.to_bytes()
    view_bits = 8 * _WINDOW_BYTES
    view_mask = (1 << view_bits) - 1
    chunk = chunk_end = 0  # the bytes read last, and where they end in the stream
    values = []
    position = 0
    while position < length:
        start = position >> 3  # the byte holding the value's first bit
        size = view_bits  # the view's width, unless the stream ends first
        while True:
            stop = position + size  # where the value's view ends
            if stop > length:
                stop = length
            if stop > chunk_end:
                chunk_end = 8 * min(start + size // 2, len(data))  # four views
                chunk = int.from_bytes(data[start : chunk_end >> 3], "big")
            width = stop - position
            mask = view_mask if width == view_bits else (1 << width) - 1
            view = chunk >> (chunk_end - stop) & mask
            try:
                value, used = _read_value(view, width, _CONTINUATION, max_exponent)
                break
            except DecodeError as error:
                # Faults are met in order, and a cut is the last one: any
                # other fault inside the view is the stream's own.
                if stop < length and error.kind is DecodeErrorKind.TRUNCATED_INPUT:
                    size *= 2
                    continue
                if position:
                    raise DecodeError(error.kind, position + error.position) from None
                raise  # at bit 0 the reader's positions are the stream's
        if size > view_bits:
            chunk_end = 0  # the next value reads a chunk of its own width
        values.append(value)
        position += used
    return values


# Framings: where a value ends, its significand's last group, and its special
# values. They are plain ints; the signs are read from tuples of the enum
# members that decimal_values keeps as module constants.
_TO_END = 0  # at the end of input; a short all-zero tail is padding
_REPADDED = 1  # at the end of input; a short last group is zero-extended
_CONTINUATION = 2  # a bit after each group: 1 while more groups follow
_SIGNS = (_POSITIVE, _NEGATIVE)  # indexed by "negative"
_EXPONENT_SIGNS = (_EXPONENT_NON_NEGATIVE, _EXPONENT_NEGATIVE)  # by "signs differ"


def _read_value(
    value: int, length: int, framing: int, max_exponent: int
) -> tuple[DecimalValue, int]:
    """Read one value from the start of the ``length``-bit integer ``value``;
    return it and where it ends.

    Error positions are offsets from the start. Under continuation framing,
    ``11`` is NaN when a 1 follows and positive infinity otherwise. The
    exponent limit is checked as :func:`_read_exponent` says.
    """
    if length < 2:
        raise DecodeError(DecodeErrorKind.TRUNCATED_INPUT, 0)
    header = value >> (length - 2)
    if header & 1:  # 01 or 11
        position = 2
        result = NEGATIVE_ZERO if header == 0b01 else POSITIVE_INFINITY
        if header == 0b11 and length > 2 and value >> (length - 3) & 1:
            position = 3
            result = NAN
        if framing != _CONTINUATION and position < length:
            raise DecodeError(DecodeErrorKind.INVALID_HEADER, 0)
        return result, position
    if length == 2:
        return (POSITIVE_ZERO if header == _HEADER_POSITIVE else NEGATIVE_INFINITY), 2

    negative = header == _HEADER_NEGATIVE
    exponent_sign, exponent, start = _read_exponent(value, length, 2, negative, max_exponent)
    if exponent == 0 and exponent_sign is _EXPONENT_NEGATIVE:
        raise DecodeError(DecodeErrorKind.NEGATIVE_ZERO_EXPONENT, 2)

    # The significand's groups span the rest of the input or, under
    # continuation framing, the chain of groups that start with a 1, a
    # declet every 11 bits. One shift and mask cut them out; they are checked,
    # complemented and turned into digits as slots of one integer. Faults
    # come in the order a reader of one group at a time meets them: the
    # tetrade, the leftmost declet above 999, then the cut in the input.
    size = length - start
    continued = framing == _CONTINUATION
    repadded = framing == _REPADDED
    if size == 0 or (size < TETRADE_BITS and not repadded):
        raise DecodeError(DecodeErrorKind.TRUNCATED_INPUT, start)
    stride = DECLET_BITS + continued
    cut = None  # where the input stops inside a group
    if continued:
        count, spare = divmod(size - TETRADE_BITS, stride)  # whole groups, and the rest
        # The first group whose top bit is 0 ends the chain; it holds the
        # highest set bit of ``ended``.
        ones = _MASKS[stride][count][0] if count <= _BLOCK else _spread_ones(count, stride)
        ended = ~value >> spare & ones << DECLET_BITS
        if ended:
            count -= ended.bit_length() // stride  # that group and those after it
        elif not spare:
            cut = length  # the input ends where another group could start
        elif value >> (spare - 1) & 1:
            cut = length - spare + 1  # a group starts, and the input cuts it short
        size = TETRADE_BITS + stride * count
        bits = value >> (length - start - size)
    else:
        bits = value
    # ``bits`` still holds the head above the significand: the tetrade is
    # read with a 4-bit mask, and the slot masks drop the rest.
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
        if short:
            if bits & ((1 << short) - 1):
                cut = start + size - short
            bits >>= short
            group_bits -= short
    count = group_bits // stride
    first = bits >> group_bits & 15
    if first > 9:
        raise DecodeError(DecodeErrorKind.DIGIT_OUT_OF_RANGE, start)
    ones, low_10, low_7, threes, bit_7 = (
        _MASKS[stride][count] if count <= _BLOCK else _masks(_spread_ones(count, stride))
    )
    slots = bits & low_10  # each group's declet, without tetrade or continuation bit
    # A declet above 999 is one whose top 7 bits are at least 125; adding 3
    # to them sets the slot's bit 7. The highest such bit is the leftmost.
    above = ((slots >> 3 & low_7) + threes) & bit_7
    if above:
        after = (above.bit_length() - 8) // stride  # the declets to its right
        position = start + TETRADE_BITS + stride * (count - after) - DECLET_BITS
        raise DecodeError(DecodeErrorKind.DIGIT_OUT_OF_RANGE, position)
    if cut is not None:
        raise DecodeError(DecodeErrorKind.TRUNCATED_INPUT, cut)
    if continued and count and not slots & 1023:  # the writer ends no chain on a zero declet
        position = start + TETRADE_BITS + stride * count - DECLET_BITS
        raise DecodeError(DecodeErrorKind.SIGNIFICAND_OUT_OF_RANGE, position)
    if negative:
        # Drop the zero declets at the end; the lowest set bit is in the last
        # one that stays.
        drop = ((slots & -slots).bit_length() - 1) // stride if slots else count
        if drop:
            slots >>= stride * drop
            ones >>= stride * drop
            count -= drop
        # Stored value must be in (0, 9] so that 10 - stored is in [1, 10).
        if (first == 0 and not count) or (first == 9 and count):
            raise DecodeError(DecodeErrorKind.SIGNIFICAND_OUT_OF_RANGE, start)
        first, slots, _ = _ten_minus(first, slots, ones)
    elif first == 0:
        raise DecodeError(DecodeErrorKind.SIGNIFICAND_OUT_OF_RANGE, start)
    digits = _declet_digits(first, slots, count, stride).rstrip("0")
    # Under continuation framing the significand ends after the 0 closing the chain.
    end = start + size + continued
    return _finite_value(_SIGNS[negative], exponent_sign, exponent, digits), end


def _ten_minus(first: int, slots: int, ones: int) -> tuple[int, int, int]:
    """10 - m for the tetrade digit ``first`` and the declets in ``slots`` of
    m, which must end in a non-zero declet; ``ones`` has a 1 at the bottom of
    each declet's slot.

    That is the nines' complement of every declet, plus one in the last. The
    slots of 999 minus the slots borrow nothing, as no declet is above 999,
    and the one never carries, as the last declet's complement is at most 998.
    """
    if not ones:
        return 10 - first, slots, ones
    return 9 - first, 999 * ones - slots + 1, ones


# Declets are turned into digits in blocks of at most this many slots, so
# each block's str() stays short and far below int()'s 4,300-digit limit.
_BLOCK = 64


def _spread_ones(count: int, stride: int) -> int:
    # The repunit in base 2**stride: one division by a one-digit divisor.
    return ((1 << stride * count) - 1) // ((1 << stride) - 1)


def _masks(ones: int) -> tuple[int, int, int, int, int]:
    """The reader's masks over the slots that ``ones`` has a 1 at the bottom
    of: that 1, the low 10 bits, the low 7 bits, a 3, and bit 7 of each."""
    return ones, 1023 * ones, 127 * ones, 3 * ones, ones << 7


def _declet_digits(first: int, slots: int, count: int, stride: int) -> str:
    """The leading digit ``first``, 1 to 9, then the three digits of each of
    ``count`` declets, leftmost first.

    Each declet, at most 999, fills the low bits of a ``stride``-bit slot of
    ``slots``; the slots' other bits are 0. Adjacent slots are merged in
    pairs, the left one times 1000, then pairs of pairs times 1000**2, and so
    on, until one block's integer holds every declet as base-1000 digits. The
    merged values always fit their doubled slots, as 1000 < 2**10. The
    leading digit, weighted ``1000**count``, goes on top, so one str() writes
    exactly ``1 + 3 * count`` digits, the declets' zeros included. A run
    longer than a block is halved first, so a long significand costs n log n:
    the high half takes ``first``, and the low half is written behind a
    leading 1 that is then cut off.
    """
    if count > _BLOCK:
        low = count // 2
        high_part = _declet_digits(first, slots >> stride * low, count - low, stride)
        return high_part + _declet_digits(1, slots & ((1 << stride * low) - 1), low, stride)[1:]
    for shift, mask, excess in _MERGES[stride][count]:
        # The left slot of each pair, worth 2**shift, is made worth 1000**k.
        slots -= (slots >> shift & mask) * excess
    return str(first * _THOUSANDS[count] + slots)


def _merge_levels(stride: int) -> tuple[tuple[tuple[int, int, int], ...], ...]:
    """For each count of ``stride``-bit slots up to a block, the
    ceil(log2(count)) merges it needs. A merge is the slot width, the mask
    of each pair's left slot once shifted right by it, and the excess of
    2**width over that slot's new worth 1000**k."""
    levels = []
    width = stride
    while width < stride * _BLOCK:
        pairs = _spread_ones(stride * _BLOCK // (2 * width), 2 * width)
        excess = (1 << width) - 1000 ** (width // stride)
        levels.append((width, pairs * ((1 << width) - 1), excess))
        width *= 2
    return tuple(tuple(levels[: max(count - 1, 0).bit_length()]) for count in range(_BLOCK + 1))


_STRIDES = (DECLET_BITS, DECLET_BITS + 1)  # canonical and trimmed, prefix-free
_MASKS = {
    stride: tuple(_masks(_spread_ones(count, stride)) for count in range(_BLOCK + 1))
    for stride in _STRIDES
}
_MERGES = {stride: _merge_levels(stride) for stride in _STRIDES}
_THOUSANDS = tuple(1000**count for count in range(_BLOCK + 1))  # the leading digit's weight


_LANE_BITS = 8 * DECLET_DIGITS  # a lane is a group's three digit bytes
_NIBBLES = 15 * _spread_ones(_BLOCK, _LANE_BITS)  # the low nibble of each lane


def _compress_levels(stride: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """For each count of lanes up to a block, the ceil(log2(count)) steps
    that move ``stride``-bit values from 24-bit lanes into adjacent slots.
    A step is the shift that brings each unit's left partner down to it,
    and the mask of the merged units' bits."""
    levels = []
    unit = 1  # lanes per unit
    while unit < _BLOCK:
        merged = _spread_ones(_BLOCK // (2 * unit), 2 * unit * _LANE_BITS)
        shift = unit * (_LANE_BITS - stride)
        levels.append((shift, merged * ((1 << 2 * unit * stride) - 1)))
        unit *= 2
    return tuple(tuple(levels[: (count - 1).bit_length()]) for count in range(_BLOCK + 1))


_COMPRESSIONS = {stride: _compress_levels(stride) for stride in _STRIDES}


def canonical_bit_length(value: DecimalValue) -> int:
    """Length of the untrimmed encoding without building it.

    For finite values this is ``2 + (2*floor(log2(e+2)) + 1) + 4 + 10*ceil((n-1)/3)``
    with ``n`` the significand digit count.
    """
    if not isinstance(value, DecimalValue):
        raise TypeError(f"canonical_bit_length takes a DecimalValue, not {type(value).__name__}")
    if value.kind is not _FINITE:
        return len(SPECIAL_ENCODINGS[value.kind])
    return _field_ends(value.form)[2][-1]


def _field_ends(form: ScientificForm) -> tuple[int, int, range]:
    """Where each field of a finite value's canonical encoding ends: the sign
    header, the exponent field, then, as a ``range``, the tetrade and each
    declet, the last of which ends the encoding."""
    exponent_end = 2 + exponent_field(form.exponent, False)[1]  # the sign header, then the field
    tetrade_end = exponent_end + TETRADE_BITS
    declets = (len(form.digits) + 1) // DECLET_DIGITS  # after the leading digit
    return 2, exponent_end, range(tetrade_end, tetrade_end + DECLET_BITS * declets + 1, DECLET_BITS)


# Field adapters: thin shims over the frames above, with no type and no rules
# of their own. Nothing in the library calls them; perfbench/workloads.py's
# load_api times them, and they go with this block once it times the frames.


class BitCursor:
    """A read position over a :class:`BitString`; an adapter moves
    ``position`` past what it read."""

    __slots__ = ("position", "_value", "_length")

    def __init__(self, source: BitString, position: int = 0):
        if not isinstance(source, BitString):
            raise TypeError(f"a BitCursor reads a BitString, not {type(source).__name__}")
        if not 0 <= position <= len(source):
            raise ValueError("cursor position out of range")
        self.position = position
        self._value = source._value
        self._length = source._length


def encode_exponent(exponent: int, invert: bool) -> BitString:
    """The :func:`exponent_field` of a non-negative exponent."""
    if exponent < 0:
        raise ValueError("exponent must be non-negative")
    return BitString._raw(*exponent_field(exponent, invert))


def decode_exponent(cursor: BitCursor) -> tuple[ExponentSign, int]:
    """The exponent sign and exponent at the cursor, as a positive value's field."""
    length = cursor._length  # no field of the input reaches the limit 2**length
    field = _read_exponent(cursor._value, length, cursor.position, False, 1 << length)
    exponent_sign, exponent, cursor.position = field
    return exponent_sign, exponent


def encode_significand(digits: str, negative: bool) -> BitString:
    """The significand of canonical ``digits``: a value of exponent 0 less
    its 5-bit head (sign header, exponent field)."""
    sign = _NEGATIVE if negative else _POSITIVE
    bits = _write(ScientificForm(sign, _EXPONENT_NON_NEGATIVE, 0, digits), False)
    return BitString._raw(bits._value & ((1 << len(bits) - 5) - 1), len(bits) - 5)


def decode_significand(cursor: BitCursor, negative: bool) -> str:
    """The digits of the significand from the cursor to the end of the input,
    read behind the 5-bit head of exponent 0 in place of the bits before it."""
    rest = cursor._length - cursor.position
    shift = 5 - cursor.position
    bits = (0b00_011 if negative else 0b10_100) << rest | cursor._value & ((1 << rest) - 1)
    try:
        value, end = _read_value(bits, 5 + rest, _TO_END, 0)
    except DecodeError as error:
        raise DecodeError(error.kind, error.position - shift) from None
    cursor.position = end - shift
    return value.form.digits
