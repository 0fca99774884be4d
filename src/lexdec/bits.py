"""Immutable bit sequences and the bit-string order.

A :class:`BitString` is an ordered sequence of bits with no implicit padding;
the logical length in bits always travels with the value. Bit strings are
ordered by :func:`lex_compare`: bits are compared left to right, and a
sequence that is a strict prefix of another sorts first.

Byte packing is most-significant-bit first with trailing zero padding, and
:func:`lex_compare` compares those bytes, then the lengths when the bytes are
equal. If the bytes first differ at a bit inside both strings, that bit
decides. If they first differ at a pad bit of one string, that bit is 0 and
the other string's bit there is 1; all of the padded string's bits come
before it, so that string is a prefix of the other and sorts first. Equal
bytes mean one string is the other followed by zeros, so the shorter sorts
first.

Concatenation with ``+`` only records its two operands, so any shape of sums
costs O(1) per ``+``. The first read of a sum joins its n parts by halves, in
n log n, reads whole a shared sum it meets again, and keeps only the integer.
"""

from __future__ import annotations

import re

from .errors import _require_int

__all__ = [
    "BitString",
    "lex_compare",
]

_NOT_A_BIT = re.compile(r"[^01 _]")


class BitString:
    """An immutable sequence of bits; index 0 is the leftmost bit.

    Instances are hashable, comparable for equality, and safe to share
    between threads, sums included; ``+`` returns a new value in O(1) time.
    A string that was packed or compared keeps its packed bytes, about one
    more byte per 8 bits; storing them is idempotent, so sharing stays safe.
    """

    __slots__ = ("_value", "_length", "_packed")

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
        self._packed = None

    @classmethod
    def _raw(cls, value: int, length: int) -> "BitString":
        bs = object.__new__(cls)
        bs._value = value
        bs._length = length
        bs._packed = None
        return bs

    @classmethod
    def from_bytes(cls, data: bytes, bit_length: int) -> "BitString":
        """Inverse of :meth:`to_bytes`.

        ``data`` is ``bytes`` or another bytes-like object, such as a
        ``bytearray`` or a ``memoryview``. ``bit_length`` must not exceed
        ``8 * len(data)`` and every padding bit beyond it must be zero;
        otherwise the packed form is malformed.
        """
        if type(bit_length) is not int:
            _require_int("bit_length", bit_length)
        if bit_length < 0:
            raise ValueError("bit_length must be non-negative")
        if type(data) is not bytes:
            # int.from_bytes would also take a list or any iterable of ints.
            try:
                data = memoryview(data).tobytes()
            except TypeError:
                name = type(data).__name__
                raise TypeError(f"BitString.from_bytes takes bytes, not {name}") from None
        value = int.from_bytes(data)  # big-endian by default
        pad = 8 * len(data) - bit_length
        if pad < 0:
            raise ValueError(
                f"bit_length {bit_length} exceeds {8 * len(data)} available bits"
            )
        if value & ((1 << pad) - 1):
            raise ValueError("nonzero padding bits")
        bits = object.__new__(cls)
        bits._value = value >> pad
        bits._length = bit_length
        bits._packed = None
        return bits

    def to_bytes(self) -> tuple[bytes, int]:
        """Pack MSB-first into bytes, zero-padding the final partial byte.

        Returns ``(data, bit_length)``; the length is needed to undo the
        padding, which is not self-delimiting. The bytes are kept, so a
        second call returns the same object.
        """
        packed = self._packed
        if packed is None:
            length = self._length
            packed = self._packed = (self._value << (-length & 7)).to_bytes((length + 7) // 8)
        return packed, self._length

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
        joined = object.__new__(_Joined)
        joined._left = self
        joined._right = other
        joined._length = self._length + other._length
        joined._packed = None
        return joined

    def __repr__(self) -> str:
        return f"BitString({self.to_text()!r})"

    def __str__(self) -> str:
        return self.to_text()


class _Joined(BitString):
    """A sum of two bit strings, joined on the first read of ``_value``.

    The read walks the left spine, stacking right operands; a sum met again
    off the root's spine is read whole, so none is expanded without bound.
    ``__getattr__`` is here so that plain bit strings keep fast slot reads.
    """

    __slots__ = ("_left", "_right")

    def __getattr__(self, name: str):
        # Called only when normal lookup fails: for ``_value``, until the join.
        if name != "_value":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        parts, rights, seen = [], [self], set()
        while rights:
            node = rights.pop()
            while type(node) is _Joined:
                left, right = node._left, node._right
                if left is None or right is None or parts and id(node) in seen:
                    break  # read already, or met before: _join reads it whole
                if parts:  # past the root's left spine, which meets each sum once
                    seen.add(id(node))
                rights.append(right)
                node = left
            parts.append(node)
        value = _join(parts, 0, len(parts))[0]
        # Store _value before releasing the operands: a walker finding them released reads it.
        self._value = value
        self._left = self._right = None
        return value


def _join(parts: list[BitString], start: int, stop: int) -> tuple[int, int]:
    """The bits of ``parts[start:stop]`` as one integer, and how many there are.

    A run of more than 16 parts is halved first, so that the leaf loop, which
    shifts a growing integer once per part, acts on short integers and the
    join costs n log n, not n squared.
    """
    if stop - start > 16:
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

    Returns -1, 0 or 1. The zero-padded bytes of :meth:`BitString.to_bytes`
    are compared first, packing an operand that has none kept yet; when they
    are equal, the shorter operand sorts first. The module docstring gives
    the argument that this is the bit order.
    """
    try:
        a_packed, b_packed = a._packed, b._packed
    except AttributeError:
        names = f"{type(a).__name__} and {type(b).__name__}"
        raise TypeError(f"lex_compare takes two BitStrings, not {names}") from None
    if a_packed is None:
        a_packed = a.to_bytes()[0]
    if b_packed is None:
        b_packed = b.to_bytes()[0]
    if a_packed != b_packed:
        return -1 if a_packed < b_packed else 1
    a_length, b_length = a._length, b._length
    if a_length != b_length:
        return -1 if a_length < b_length else 1
    return 0
