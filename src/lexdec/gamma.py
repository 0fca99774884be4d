"""Order-preserving variable-length integer code and the exponent field built on it.

The code for ``k >= 1`` with ``N = k.bit_length()`` is ``N-1`` one bits, a
zero, then the binary digits of ``k`` without their leading one: ``2N-1`` bits
total. Unlike the classic run-of-zeros form, these codewords sort
lexicographically in the same order as their values, and each family (plain
or bit-flipped) remains a prefix code.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bits import BitCursor, BitString

__all__ = [
    "EXPONENT_OFFSET",
    "ExponentField",
    "modified_gamma_encode",
    "modified_gamma_decode",
    "exponent_field_length",
    "exponent_field",
    "encode_exponent",
    "read_exponent_run",
    "read_exponent_payload",
    "decode_exponent",
]

# The exponent is coded offset by 2 so the length-discriminating run is never
# empty; without it the field could not carry both its length and its sign.
EXPONENT_OFFSET = 2


@dataclass(frozen=True, slots=True)
class ExponentField:
    """An encoded exponent: the bits, the exponent, and whether bits were flipped."""

    bits: BitString
    exponent: int
    inverted: bool


def modified_gamma_encode(k: int) -> BitString:
    """Codeword for ``k >= 1``."""
    if k < 1:
        raise ValueError("modified gamma code is defined for integers >= 1")
    return BitString._raw(*_gamma_code(k))


def _gamma_code(k: int) -> tuple[int, int]:
    # N-1 ones and a zero, then k without its leading one: (code, 2N-1).
    n = k.bit_length()
    return ((1 << n) - 2) << (n - 1) | k ^ (1 << (n - 1)), 2 * n - 1


def modified_gamma_decode(cursor: BitCursor) -> int:
    """Read one codeword, advancing the cursor exactly its length."""
    ones = cursor.read_run(1)
    return (1 << ones) | cursor.read_bits(ones)


def exponent_field_length(exponent: int) -> int:
    """Bit length of the encoded exponent field, 2*floor(log2(e+2)) + 1."""
    return 2 * (exponent + EXPONENT_OFFSET).bit_length() - 1


def exponent_field(exponent: int, invert: bool) -> tuple[int, int]:
    """The exponent field as an integer and its width in bits.

    Every bit is flipped when ``invert``; the caller decides it from the
    decimal's sign pair, since flipped fields sort in reverse, which is what
    descending-exponent ranges need.
    """
    code, width = _gamma_code(exponent + EXPONENT_OFFSET)
    return (code ^ ((1 << width) - 1) if invert else code), width


def encode_exponent(exponent: int, invert: bool) -> ExponentField:
    """Encode a non-negative exponent as :func:`exponent_field` does."""
    if exponent < 0:
        raise ValueError("exponent must be non-negative")
    return ExponentField(BitString._raw(*exponent_field(exponent, invert)), exponent, invert)


def read_exponent_run(cursor: BitCursor) -> tuple[bool, int]:
    """Read an exponent field's leading run and the opposite bit ending it.

    Returns ``(inverted, R)``: the field spans 2R+1 bits, and its exponent is
    at least ``2**R - EXPONENT_OFFSET`` before the payload is even read.
    """
    first = cursor.read_bit()
    return first == 0, 1 + cursor.read_run(first)


def read_exponent_payload(cursor: BitCursor, inverted: bool, run: int) -> int:
    """Read the payload that follows a run of ``run`` bits; returns the exponent."""
    payload = cursor.read_bits(run)
    if inverted:
        payload ^= (1 << run) - 1
    return ((1 << run) | payload) - EXPONENT_OFFSET


def decode_exponent(cursor: BitCursor) -> ExponentField:
    """Read an exponent field, un-flipping it when its leading bit is 0.

    The run of identical leading bits determines the field length: a run of
    R bits means the field spans 2R+1 bits in total.
    """
    inverted, run = read_exponent_run(cursor)
    exponent = read_exponent_payload(cursor, inverted, run)
    return encode_exponent(exponent, inverted)  # a bijection: exactly the bits read
