"""lexdec: a lossless, order-preserving binary encoding for decimals.

Any decimal, arbitrarily large, small or precise, is encoded into a bit
string such that comparing two encodings lexicographically (with the
convention that a strict prefix sorts first) gives the same answer as
comparing the numbers. Decoding loses nothing, including the distinction
between positive and negative zero.
"""

from .bits import BitString, lex_compare
from .codec import (
    canonical_bit_length,
    decode,
    decode_prefix_free_stream,
    encode,
    encode_prefix_free,
    fixed_width_key,
)
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
    compare_numeric,
    parse_decimal,
    render_decimal,
)
from .errors import (
    DecodeError,
    DecodeErrorKind,
    ExponentLimitError,
    KeyWidthError,
    ParseError,
)

# Not public: importable from the package only because perfbench/workloads.py
# load_api reads these field adapters from it (tests/test_acceptance.py too).
from .bits import BitCursor
from .codec import decode_exponent, decode_significand, encode_exponent, encode_significand

__version__ = "0.1.0"

__all__ = [
    "BitString",
    "DEFAULT_MAX_EXPONENT",
    "DecimalValue",
    "DecodeError",
    "DecodeErrorKind",
    "ExponentLimitError",
    "ExponentSign",
    "Kind",
    "KeyWidthError",
    "NAN",
    "NEGATIVE_INFINITY",
    "NEGATIVE_ZERO",
    "POSITIVE_INFINITY",
    "POSITIVE_ZERO",
    "ParseError",
    "ScientificForm",
    "Sign",
    "canonical_bit_length",
    "compare_numeric",
    "decode",
    "decode_prefix_free_stream",
    "encode",
    "encode_prefix_free",
    "fixed_width_key",
    "lex_compare",
    "parse_decimal",
    "render_decimal",
]
