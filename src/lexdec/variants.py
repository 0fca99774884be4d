"""Self-delimiting and fixed-width forms of the core encoding.

The prefix-free form inserts a continuation bit after the tetrade and after
each declet (1: more groups follow, 0: done), so concatenated encodings split
apart again without a length prefix. The fixed-width form truncates or
zero-pads the canonical encoding to a fixed number of bits so that plain
bytewise comparison of the keys reproduces numeric order on stores that only
compare equal-length binaries.

Both forms reuse the codec: the prefix-free form is its packer and value
decoder under continuation framing, and a fixed-width key is the canonical
encoding's integer shifted to the key width.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bits import BitCursor, BitString
from .codec import (
    TETRADE_BITS,
    SPECIAL_ENCODINGS,
    _decode_value,
    _Framing,
    _layout,
    _pack,
    encode,
)
from .decimal_values import DEFAULT_MAX_EXPONENT, DecimalValue, Kind
from .errors import KeyWidthError
from .gamma import exponent_field_length

__all__ = [
    "FixedWidthKey",
    "encode_prefix_free",
    "decode_prefix_free_stream",
    "fixed_width_key",
]


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

    Errors are those of :func:`lexdec.codec.decode`, with positions counted
    from the start of the stream.
    """
    cursor = BitCursor(bits)
    values = []
    while not cursor.at_end():
        values.append(_decode_value(cursor, _Framing.CONTINUATION, max_exponent))
    return values


@dataclass(frozen=True, slots=True)
class FixedWidthKey:
    """A fixed-width, bytewise-comparable key."""

    data: bytes
    width_bits: int

    def __post_init__(self):
        if self.width_bits < 8 or self.width_bits % 8:
            raise ValueError("width_bits must be a positive multiple of 8")
        if len(self.data) * 8 != self.width_bits:
            raise ValueError("data length inconsistent with width_bits")


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
    bits = encode(value)
    if value.kind is Kind.FINITE:
        fixed_fields = 2 + exponent_field_length(value.form.exponent) + TETRADE_BITS
        if fixed_fields > width_bits:
            raise KeyWidthError(
                f"sign, exponent and leading digit need {fixed_fields} bits, "
                f"key width is {width_bits}"
            )
    shift = width_bits - len(bits)
    key = bits._value << shift if shift >= 0 else bits._value >> -shift
    data = key.to_bytes(width_bits // 8, "big")
    return FixedWidthKey(data=data, width_bits=width_bits)
