"""Immutable bit sequences and the bit-string order.

A :class:`BitString` is an ordered sequence of bits with no implicit padding;
the logical length in bits always travels with the value. Bit strings are
ordered by :func:`lex_compare`: bits are compared left to right, and a
sequence that is a strict prefix of another sorts first.

Byte packing is most-significant-bit first with trailing zero padding, so a
plain bytewise comparison of equal-length packed strings agrees with
:func:`lex_compare`.

Concatenation with ``+`` records its operands and joins their bits once, on
the first read of the sum, so a left fold ``s = s + part`` of n parts costs
O(1) per ``+`` and one join by halves, not n shifts of the growing sum. Sums
stay immutable and safe to share between threads.
"""

from __future__ import annotations

import re

__all__ = [
    "BitString",
    "lex_compare",
]

_NOT_A_BIT = re.compile(r"[^01 _]")


class BitString:
    """An immutable sequence of bits; index 0 is the leftmost bit.

    Instances are hashable, comparable for equality, and safe to share
    between threads. Concatenation with ``+`` returns a new value in O(1)
    amortized time; a left fold of ``+`` joins its bits once, on first read.
    A second extension of one prefix copies the prefix's list of parts, and
    a right operand that is itself an unread sum is joined when it is added.
    """

    __slots__ = ("_value", "_length")

    def __init__(self, text: str = ""):
        """Build from a string of ``0``/``1`` characters.

        Spaces and underscores are ignored so that grouped renderings can be
        pasted back in unchanged.
        """
        try:
            bad = _NOT_A_BIT.search(text)
        except TypeError:
            raise TypeError(f"BitString takes a str, not {type(text).__name__}") from None
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
        try:
            value = int.from_bytes(data, "big")
        except TypeError:
            name = type(data).__name__
            raise TypeError(f"BitString.from_bytes takes bytes, not {name}") from None
        pad = 8 * len(data) - bit_length
        if pad < 0:
            raise ValueError(
                f"bit_length {bit_length} exceeds {8 * len(data)} available bits"
            )
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
        return _Joined(self, other)

    def __repr__(self) -> str:
        return f"BitString({self.to_text()!r})"

    def __str__(self) -> str:
        return self.to_text()


class _Joined(BitString):
    """A sum whose bits are joined from its parts on the first read of ``_value``.

    Sums taken from one prefix share one append-only list of parts and each
    reads only its first ``_count``; a sum that finds its slot taken by
    another extension of the same prefix copies the prefix instead. Every
    part already has its ``_value``, so joining never recurses. The
    ``__getattr__`` lives here, not on :class:`BitString`, so that plain bit
    strings keep CPython's fast slot reads.
    """

    __slots__ = ("_parts", "_count")

    def __init__(self, left: BitString, right: BitString):
        right._value  # join an unread right operand now, not at our first read
        parts = left._parts if type(left) is _Joined else None
        if parts is None:
            parts, count = [left], 1
        else:
            count = left._count
        parts.append(right)
        if parts[count] is not right:
            parts = parts[:count] + [right]
        self._parts = parts
        self._count = count + 1
        self._length = left._length + right._length

    def __getattr__(self, name: str):
        # Called only when normal lookup fails: for ``_value``, until the join.
        if name != "_value":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        parts = self._parts
        if parts is None:  # another thread joined between our lookup and here
            return self._value
        value = self._value = _join(parts, 0, self._count)[0]
        self._parts = None
        return value


def _join(parts: list[BitString], start: int, stop: int) -> tuple[int, int]:
    """The bits of ``parts[start:stop]`` as one integer, and how many there are.

    A long run is halved first, as ``codec._append_groups`` halves one, so
    that the shifts act on short integers.
    """
    if stop - start > 64:
        middle = (start + stop) // 2
        high, high_length = _join(parts, start, middle)
        low, low_length = _join(parts, middle, stop)
        return high << low_length | low, high_length + low_length
    value = length = 0
    for part in parts[start:stop]:
        value = value << part._length | part._value
        length += part._length
    return value, length


def lex_compare(a: BitString, b: BitString) -> int:
    """Full lexicographic comparison; a strict prefix sorts before its extensions.

    Returns -1, 0 or 1. Only the shorter operand is shifted, left by the
    difference in length, so both values line up at the longer one's width;
    when they are then equal, the shorter operand is a prefix and the
    lengths decide.
    """
    try:
        a_length, a_value = a._length, a._value
        b_length, b_value = b._length, b._value
    except AttributeError:
        names = f"{type(a).__name__} and {type(b).__name__}"
        raise TypeError(f"lex_compare takes two BitStrings, not {names}") from None
    if a_length < b_length:
        a_value <<= b_length - a_length
    elif b_length < a_length:
        b_value <<= a_length - b_length
    if a_value != b_value:
        return -1 if a_value < b_value else 1
    if a_length != b_length:
        return -1 if a_length < b_length else 1
    return 0


class BitCursor:
    """A read position over a :class:`BitString`, used only by the field
    adapters ``codec.decode_exponent`` and ``codec.decode_significand``; the
    decoder reads the bit text itself. The source is rendered to ``0``/``1``
    text once, and an adapter moves ``position`` past what it read. Cursors
    are independent per reader and mutate only their own position.
    """

    __slots__ = ("position", "_text")

    def __init__(self, source: BitString, position: int = 0):
        if not isinstance(source, BitString):
            raise TypeError(f"a BitCursor reads a BitString, not {type(source).__name__}")
        if not 0 <= position <= len(source):
            raise ValueError("cursor position out of range")
        self.position = position
        self._text = source.to_text()
