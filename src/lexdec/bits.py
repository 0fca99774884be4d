"""Immutable bit sequences, read cursors, and the bit-string order.

A :class:`BitString` is an ordered sequence of bits with no implicit padding;
the logical length in bits always travels with the value. Bit strings are
ordered by :func:`lex_compare`: bits are compared left to right, and a
sequence that is a strict prefix of another sorts first.

Byte packing is most-significant-bit first with trailing zero padding, so a
plain bytewise comparison of equal-length packed strings agrees with
:func:`lex_compare`.
"""

from __future__ import annotations

import re

__all__ = [
    "BitString",
    "BitCursor",
    "lex_compare",
]

_NOT_A_BIT = re.compile(r"[^01 _]")


class BitString:
    """An immutable sequence of bits; index 0 is the leftmost bit.

    Instances are hashable, comparable for equality, and safe to share
    between threads. Concatenation with ``+`` returns a new value.
    """

    __slots__ = ("_value", "_length")

    def __init__(self, text: str = ""):
        """Build from a string of ``0``/``1`` characters.

        Spaces and underscores are ignored so that grouped renderings can be
        pasted back in unchanged.
        """
        bad = _NOT_A_BIT.search(text)
        if bad:
            raise ValueError(f"invalid bit character {bad.group()!r}")
        digits = text.replace(" ", "").replace("_", "")
        self._value = int(digits or "0", 2)
        self._length = len(digits)

    @classmethod
    def _raw(cls, value: int, length: int) -> "BitString":
        bs = object.__new__(cls)
        bs._value = value
        bs._length = length
        return bs

    @classmethod
    def from_bytes(cls, data: bytes, bit_length: int) -> "BitString":
        """Inverse of :meth:`to_bytes`.

        ``bit_length`` must not exceed ``8 * len(data)`` and every padding bit
        beyond it must be zero; otherwise the packed form is malformed.
        """
        if bit_length < 0:
            raise ValueError("bit_length must be non-negative")
        pad = 8 * len(data) - bit_length
        if pad < 0:
            raise ValueError(
                f"bit_length {bit_length} exceeds {8 * len(data)} available bits"
            )
        value = int.from_bytes(data, "big")
        if value & ((1 << pad) - 1):
            raise ValueError("nonzero padding bits")
        return cls._raw(value >> pad, bit_length)

    def to_bytes(self) -> tuple[bytes, int]:
        """Pack MSB-first into bytes, zero-padding the final partial byte.

        Returns ``(data, bit_length)``; the length is needed to undo the
        padding, which is not self-delimiting.
        """
        nbytes = (self._length + 7) // 8
        padded = self._value << (nbytes * 8 - self._length)
        return padded.to_bytes(nbytes, "big"), self._length

    def to_text(self) -> str:
        """Render as ``0``/``1`` characters."""
        if self._length == 0:
            return ""
        return format(self._value, f"0{self._length}b")

    def strip_trailing_zeros(self) -> "BitString":
        """Drop every trailing zero bit (the empty string if all bits are zero)."""
        if self._value == 0:
            return BitString._raw(0, 0)
        trailing = (self._value & -self._value).bit_length() - 1
        return BitString._raw(self._value >> trailing, self._length - trailing)

    def __len__(self) -> int:
        return self._length

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitString):
            return NotImplemented
        return self._length == other._length and self._value == other._value

    def __hash__(self) -> int:
        return hash((self._length, self._value))

    def __add__(self, other: "BitString") -> "BitString":
        if not isinstance(other, BitString):
            return NotImplemented
        return BitString._raw(
            (self._value << other._length) | other._value,
            self._length + other._length,
        )

    def __repr__(self) -> str:
        return f"BitString({self.to_text()!r})"

    def __str__(self) -> str:
        return self.to_text()


def lex_compare(a: BitString, b: BitString) -> int:
    """Full lexicographic comparison; a strict prefix sorts before its extensions.

    Returns -1, 0 or 1.
    """
    try:
        width = max(a._length, b._length)
    except AttributeError:
        names = f"{type(a).__name__} and {type(b).__name__}"
        raise TypeError(f"lex_compare takes two BitStrings, not {names}") from None
    av = a._value << (width - a._length)
    bv = b._value << (width - b._length)
    if av != bv:
        return -1 if av < bv else 1
    if a._length != b._length:
        return -1 if a._length < b._length else 1
    return 0


class BitCursor:
    """A read position over a :class:`BitString`.

    The source is rendered to ``0``/``1`` text once. The decoder reads that
    text directly and moves ``position`` past what it read, so a read costs
    the bits it reads, not the length of the source. Cursors are independent
    per reader and mutate only their own position.
    """

    __slots__ = ("position", "_text")

    def __init__(self, source: BitString, position: int = 0):
        if not isinstance(source, BitString):
            raise TypeError(f"a BitCursor reads a BitString, not {type(source).__name__}")
        if not 0 <= position <= len(source):
            raise ValueError("cursor position out of range")
        self.position = position
        self._text = source.to_text()

    def at_end(self) -> bool:
        return self.position >= len(self._text)
