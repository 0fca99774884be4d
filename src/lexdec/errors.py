"""Exception types shared across the package."""

from __future__ import annotations

import enum


class ParseError(ValueError):
    """Raised for text that is not a well-formed decimal numeral.

    ``position`` is the character offset of the first offending character.
    """

    def __init__(self, message: str, position: int):
        if not isinstance(message, str):
            raise TypeError(f"message must be a str, not {type(message).__name__}")
        _require_int("position", position)
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ExponentLimitError(ValueError):
    """Raised when a numeral's exponent exceeds the configured safety limit.

    The data model itself places no bound on exponents; this guard exists so
    that absurd inputs fail loudly instead of being truncated. ``exponent``
    is the rejected exponent, or ``None`` for a numeral whose exponent has
    too many digits to be worth converting; the message then names their
    count.
    """

    def __init__(self, exponent: int, limit: int):
        _require_int("exponent", exponent)
        _require_int("limit", limit)
        # A decoded exponent can have more digits than Python will render.
        shown = exponent if exponent.bit_length() <= 64 else f"of {exponent.bit_length()} bits"
        super().__init__(f"exponent magnitude {shown} exceeds limit {_limit_text(limit)}")
        self.exponent = exponent
        self.limit = limit

    @classmethod
    def _of_digits(cls, count: int, limit: int) -> "ExponentLimitError":
        """The error for an exponent of ``count`` digits, never converted."""
        error = cls.__new__(cls)
        message = f"exponent magnitude of {count} digits exceeds limit {_limit_text(limit)}"
        ValueError.__init__(error, message)
        error.exponent = None
        error.limit = limit
        return error


def _limit_text(limit: int) -> str:
    """The limit's digits, or its bit count past the 4,300 digits ``str()`` writes."""
    try:
        return str(limit)
    except ValueError:
        return f"of {limit.bit_length()} bits"


def _require_int(name: str, value: object) -> None:
    """Raise a ``TypeError`` that names ``name`` unless ``value`` is an int, not a bool.

    The per-value entry points (``from_bytes``, ``fixed_width_key``,
    ``parse_decimal``, ``decode``, ``decode_prefix_free_stream``) call it
    only when ``type(value) is not int``: the call alone costs about 3% of a
    short parse or a decode. ``ScientificForm`` and the three error
    constructors here call it directly.
    """
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{name} must be an int, not {type(value).__name__}")


class KeyWidthError(ValueError):
    """Raised when a value's sign and exponent fields cannot fit a fixed-width key."""


class DecodeErrorKind(enum.Enum):
    """The closed set of ways a bit sequence can fail to decode."""

    INVALID_HEADER = "invalid header"
    NEGATIVE_ZERO_EXPONENT = "negative zero exponent"
    DIGIT_OUT_OF_RANGE = "digit out of range"
    SIGNIFICAND_OUT_OF_RANGE = "significand out of range"
    TRUNCATED_INPUT = "truncated input"


class DecodeError(Exception):
    """Raised when a bit sequence is not a valid encoding.

    ``kind`` classifies the failure; ``position`` is the bit offset at which
    the problem was detected (for truncation, the offset where the failed
    read started).
    """

    def __init__(self, kind: DecodeErrorKind, position: int):
        if not isinstance(kind, DecodeErrorKind):
            raise TypeError(f"kind must be a DecodeErrorKind, not {type(kind).__name__}")
        _require_int("position", position)
        super().__init__(f"{kind.value} at bit {position}")
        self.kind = kind
        self.position = position
