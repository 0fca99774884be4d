"""Arbitrary-precision decimal values in canonical scientific form.

Every finite, non-zero decimal has exactly one representation here: an overall
sign, an exponent sign, a non-negative exponent, and a significand written as
its decimal digit text: ASCII ``0-9``, the first digit in 1..9 and no trailing
``0``. That text is checked once, where a form is built from outside the
library; the parser and the decoder produce it already canonical and skip the
check. Zero, the infinities and NaN are modelled as separate variants, with
negative zero kept distinct from positive zero so that both round-trip.

All values are immutable and all operations are pure functions, safe to call
concurrently and to pass between threads.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass

from .errors import ExponentLimitError, ParseError, _require_int

__all__ = [
    "Sign",
    "ExponentSign",
    "ScientificForm",
    "Kind",
    "DecimalValue",
    "POSITIVE_ZERO",
    "NEGATIVE_ZERO",
    "POSITIVE_INFINITY",
    "NEGATIVE_INFINITY",
    "NAN",
    "DEFAULT_MAX_EXPONENT",
    "parse_decimal",
    "render_decimal",
    "compare_numeric",
]

#: Safety limit on exponent magnitude accepted by :func:`parse_decimal`.
DEFAULT_MAX_EXPONENT = 2**32
_SCIENTIFIC_THRESHOLD = 20


class Sign(enum.IntEnum):
    NEGATIVE = -1
    POSITIVE = 1


class ExponentSign(enum.IntEnum):
    NEGATIVE = -1
    NON_NEGATIVE = 1


class Kind(enum.Enum):
    FINITE = "finite"
    POSITIVE_ZERO = "positive zero"
    NEGATIVE_ZERO = "negative zero"
    POSITIVE_INFINITY = "positive infinity"
    NEGATIVE_INFINITY = "negative infinity"
    NAN = "nan"


# Python 3.11 serves an enum member read off its class, such as
# ``Kind.FINITE``, through a descriptor, at about ten times the cost of
# reading a module global; the per-value paths read these constants instead.
_NEGATIVE = Sign.NEGATIVE
_POSITIVE = Sign.POSITIVE
_EXPONENT_NEGATIVE = ExponentSign.NEGATIVE
_EXPONENT_NON_NEGATIVE = ExponentSign.NON_NEGATIVE
_FINITE = Kind.FINITE

# Not \d, which also matches non-ASCII digits such as "٣".
_CANONICAL_DIGITS = re.compile(r"[1-9](?:[0-9]*[1-9])?")


@dataclass(frozen=True, slots=True)
class ScientificForm:
    """The decomposition ``sign * significand * 10 ** (exponent_sign * exponent)``.

    ``digits`` is the significand's canonical digit text, such as ``"15"`` for
    1.5: ASCII ``0-9``, the first digit in 1..9 and sitting before the
    decimal point, no trailing ``0``. The significand is always in [1, 10).
    Building a form checks every field: a field of the wrong type raises a
    ``TypeError`` that names it, a value out of range a ``ValueError``.
    """

    sign: Sign
    exponent_sign: ExponentSign
    exponent: int
    digits: str

    def __post_init__(self):
        if not isinstance(self.sign, Sign):
            raise TypeError(f"sign must be a Sign, not {type(self.sign).__name__}")
        if not isinstance(self.exponent_sign, ExponentSign):
            name = type(self.exponent_sign).__name__
            raise TypeError(f"exponent_sign must be an ExponentSign, not {name}")
        _require_int("exponent", self.exponent)
        if not isinstance(self.digits, str):
            raise TypeError(f"significand digits must be a str, not {type(self.digits).__name__}")
        if not _CANONICAL_DIGITS.fullmatch(self.digits):
            raise ValueError(
                "significand digits must be ASCII 0-9, start with 1-9 and not end in 0"
            )
        if self.exponent < 0:
            raise ValueError("exponent must be non-negative")
        if self.exponent == 0 and self.exponent_sign is _EXPONENT_NEGATIVE:
            raise ValueError("zero exponent must carry the non-negative sign")

    @property
    def signed_exponent(self) -> int:
        return int(self.exponent_sign) * self.exponent


@dataclass(frozen=True, slots=True)
class DecimalValue:
    """A finite decimal in canonical form, or one of the special values."""

    kind: Kind
    form: ScientificForm | None = None

    def __post_init__(self):
        if not isinstance(self.kind, Kind):
            raise TypeError(f"kind must be a Kind, not {type(self.kind).__name__}")
        if not isinstance(self.form, (ScientificForm, type(None))):
            name = type(self.form).__name__
            raise TypeError(f"form must be a ScientificForm or None, not {name}")
        if (self.kind is _FINITE) != (self.form is not None):
            raise ValueError("exactly the finite variant carries a form")

    @classmethod
    def finite(cls, form: ScientificForm) -> "DecimalValue":
        return cls(_FINITE, form)

    def is_finite(self) -> bool:
        return self.kind is _FINITE


# The unchecked builder fills a mutable twin of each frozen class with plain
# attribute stores, which the interpreter turns into direct slot writes, and
# then makes it the public class. A twin takes its slots from its public
# class, so the two layouts are the same and the class swap is allowed.
class _FormTwin:
    __slots__ = ScientificForm.__slots__


class _ValueTwin:
    __slots__ = DecimalValue.__slots__


def _finite_value(
    sign: Sign, exponent_sign: ExponentSign, exponent: int, digits: str
) -> DecimalValue:
    """A finite value built without the checks, for producers of canonical forms."""
    form = _FormTwin()
    form.sign = sign
    form.exponent_sign = exponent_sign
    form.exponent = exponent
    form.digits = digits
    form.__class__ = ScientificForm
    value = _ValueTwin()
    value.kind = _FINITE
    value.form = form
    value.__class__ = DecimalValue
    return value


POSITIVE_ZERO = DecimalValue(Kind.POSITIVE_ZERO)
NEGATIVE_ZERO = DecimalValue(Kind.NEGATIVE_ZERO)
POSITIVE_INFINITY = DecimalValue(Kind.POSITIVE_INFINITY)
NEGATIVE_INFINITY = DecimalValue(Kind.NEGATIVE_INFINITY)
NAN = DecimalValue(Kind.NAN)

_SPECIAL_TEXT = {
    Kind.POSITIVE_ZERO: "0",
    Kind.NEGATIVE_ZERO: "-0",
    Kind.POSITIVE_INFINITY: "INF",
    Kind.NEGATIVE_INFINITY: "-INF",
    Kind.NAN: "NaN",
}
# A finite value ranks -1 or 1 by its sign; NaN has no rank.
_SPECIAL_RANK = {
    Kind.NEGATIVE_INFINITY: -2, Kind.POSITIVE_INFINITY: 2, Kind.NAN: None,
    Kind.POSITIVE_ZERO: 0, Kind.NEGATIVE_ZERO: 0,
}


def parse_decimal(text: str, *, max_exponent: int = DEFAULT_MAX_EXPONENT) -> DecimalValue:
    """Parse a decimal numeral into its unique canonical value.

    Grammar: ``sign? digits ('.' digits)? ([eE] sign? digits)?`` plus the
    special tokens ``INF``, ``+INF``, ``-INF`` and ``NaN`` (case-insensitive).
    All spellings of the same number yield a structurally identical value;
    zero with an explicit minus sign parses to negative zero.

    Raises :class:`ParseError` naming the offending position, or
    :class:`ExponentLimitError` when the exponent magnitude exceeds
    ``max_exponent``, and :class:`TypeError` when ``text`` is not a ``str``
    or ``max_exponent`` is not an ``int``.
    """
    try:
        match = _NUMERAL.fullmatch(text)
    except TypeError:
        raise TypeError(f"parse_decimal takes a str, not {type(text).__name__}") from None
    if type(max_exponent) is not int:
        _require_int("max_exponent", max_exponent)
    if match is None:
        return _special_or_error(text)
    # An absent part's group is None; a present one has at least one digit.
    sign, int_part, frac_part, exp_sign, exp_digits = match.groups()

    negative = sign == "-"
    digit_text = int_part + (frac_part or "")
    unpadded = digit_text.lstrip("0")
    if not unpadded:
        return NEGATIVE_ZERO if negative else POSITIVE_ZERO
    signed_exponent = len(int_part) - 1 - (len(digit_text) - len(unpadded))
    magnitude = exp_digits and exp_digits.lstrip("0")  # None without an exponent part
    if magnitude:
        # The exponent's digit count alone can put |e| past the limit, whatever
        # the mantissa's point shift (at most len(digit_text) places): D digits
        # mean |e| >= 10**(D-1) - len(digit_text), past the limit exactly when
        # 10**(D-1) > bound. Once D exceeds the bound's bit count that holds
        # without the power, so huge digit strings are rejected in linear time,
        # before int() sees them. The power is taken only for a rejected value.
        bound = max_exponent + len(digit_text)
        if len(magnitude) > bound.bit_length():
            raise ExponentLimitError._of_digits(len(magnitude), max_exponent)
        try:
            shift = int(magnitude)
        except ValueError:  # past int()'s digit limit; decimal has none
            from decimal import Decimal

            shift = int(Decimal(magnitude))
        signed_exponent += -shift if exp_sign == "-" else shift
    if signed_exponent < 0:
        exponent_sign, exponent = _EXPONENT_NEGATIVE, -signed_exponent
    else:
        exponent_sign, exponent = _EXPONENT_NON_NEGATIVE, signed_exponent
    if exponent > max_exponent:
        if magnitude and 10 ** (len(magnitude) - 1) > max_exponent + len(digit_text):
            raise ExponentLimitError._of_digits(len(magnitude), max_exponent)
        raise ExponentLimitError(signed_exponent, max_exponent)

    return _finite_value(
        _NEGATIVE if negative else _POSITIVE, exponent_sign, exponent, unpadded.rstrip("0")
    )


# Possessive (Python 3.11): nothing that follows a run or an optional part can
# start one, so giving characters back never finds another match, and the
# matcher keeps no backtracking state.
_NUMERAL = re.compile(r"([+-]?+)([0-9]++)(?:\.([0-9]++))?+(?:[eE]([+-]?+)([0-9]++))?+")
# The same grammar with optional digit runs: it matches a prefix of any text.
_NUMERAL_PREFIX = re.compile(r"([+-]?)([0-9]*)(?:\.([0-9]*))?(?:[eE]([+-]?)([0-9]*))?")


def _special_or_error(text: str) -> DecimalValue:
    """The special value ``text`` names, or the :class:`ParseError` of its first fault."""
    match = _NUMERAL_PREFIX.match(text)
    # An absent part's group is None; an empty one is a missing digit run.
    _, int_part, frac_part, _, exp_digits = match.groups()
    if not int_part:
        # Only text without integer digits can be a special token, and only
        # ASCII text: "\u0131".upper() is "I".
        upper = text.upper() if text.isascii() else ""
        if upper in ("INF", "+INF"):
            return POSITIVE_INFINITY
        if upper == "-INF":
            return NEGATIVE_INFINITY
        if upper == "NAN":
            return NAN
        if not text:
            raise ParseError("empty input", 0)
        raise ParseError("expected digit", match.end(2))
    if frac_part == "":
        raise ParseError("expected digit after decimal point", match.end(3))
    if exp_digits == "":
        raise ParseError("expected digit in exponent", match.end(5))
    # Every digit run is present, so the numeral ends before the text does.
    raise ParseError("unexpected character", match.end())


def render_decimal(value: DecimalValue) -> str:
    """Render a value as text that :func:`parse_decimal` maps back to it.

    Finite values use plain positional notation while the exponent's
    magnitude is at most 20, and scientific notation beyond it.
    """
    try:
        kind = value.kind
    except AttributeError:
        name = type(value).__name__
        raise TypeError(f"render_decimal takes a DecimalValue, not {name}") from None
    if kind is not _FINITE:
        return _SPECIAL_TEXT[kind]

    form = value.form
    prefix = "-" if form.sign is _NEGATIVE else ""
    digits = form.digits
    exponent = form.exponent_sign * form.exponent

    if form.exponent > _SCIENTIFIC_THRESHOLD:
        try:
            exponent_text = str(exponent)
        except ValueError:  # past str()'s digit limit; decimal has none
            from decimal import Decimal

            exponent_text = str(Decimal(exponent))
        if len(digits) == 1:
            return f"{prefix}{digits}E{exponent_text}"
        return f"{prefix}{digits[0]}.{digits[1:]}E{exponent_text}"

    if exponent >= len(digits) - 1:
        return prefix + digits + "0" * (exponent - (len(digits) - 1))
    if exponent >= 0:
        return f"{prefix}{digits[: exponent + 1]}.{digits[exponent + 1 :]}"
    return prefix + "0." + "0" * (-exponent - 1) + digits


def compare_numeric(a: DecimalValue, b: DecimalValue) -> int | None:
    """Numeric three-way comparison: -1, 0 or 1, or ``None`` if NaN is involved.

    This is the encoding-independent ordering oracle: a total order over all
    non-NaN values with negative infinity least, positive infinity greatest,
    and both zeros equal.
    """
    try:
        a_kind, b_kind = a.kind, b.kind
    except AttributeError:
        names = f"{type(a).__name__} and {type(b).__name__}"
        raise TypeError(f"compare_numeric takes two DecimalValues, not {names}") from None
    ra, rb = _rank(a_kind, a.form), _rank(b_kind, b.form)
    if ra is None or rb is None:
        return None
    if ra != rb:
        return -1 if ra < rb else 1
    if ra == 0 or a.form is None:
        return 0
    magnitude = _compare_magnitude(a.form, b.form)
    return magnitude if ra > 0 else -magnitude


def _rank(kind: Kind, form: ScientificForm | None) -> int | None:
    if kind is not _FINITE:
        return _SPECIAL_RANK[kind]
    return -1 if form.sign is _NEGATIVE else 1


def _compare_magnitude(a: ScientificForm, b: ScientificForm) -> int:
    a_exponent = a.exponent_sign * a.exponent
    b_exponent = b.exponent_sign * b.exponent
    if a_exponent != b_exponent:
        return -1 if a_exponent < b_exponent else 1
    # Canonical texts have no trailing zeros, so text order is numeric order:
    # a proper prefix is the smaller significand, since the longer text has a
    # non-zero digit where the prefix has only implied zeros.
    if a.digits != b.digits:
        return -1 if a.digits < b.digits else 1
    return 0
