"""Shared hypothesis strategies, the framings table and the Decimal view of a value."""

import functools
from decimal import Decimal

import hypothesis.strategies as st

from lexdec import (
    NAN,
    NEGATIVE_INFINITY,
    NEGATIVE_ZERO,
    POSITIVE_INFINITY,
    POSITIVE_ZERO,
    BitString,
    DecimalValue,
    ExponentSign,
    Kind,
    ScientificForm,
    Sign,
    decode,
    decode_prefix_free_stream,
    encode,
    encode_prefix_free,
)

SPECIALS = (NEGATIVE_INFINITY, NEGATIVE_ZERO, POSITIVE_ZERO, POSITIVE_INFINITY, NAN)

# Each framing's encoder; its decoder, which gives a list of values; the bits
# of a group, a declet and its continuation bit when it has one; and whether
# zero bits after a finite value's encoding are padding.
FRAMINGS = {
    "canonical": (encode, lambda bits: [decode(bits)], 10, True),
    "trimmed": (
        functools.partial(encode, trim=True),
        lambda bits: [decode(bits, trim=True)],
        10,
        True,
    ),
    "prefix_free": (encode_prefix_free, decode_prefix_free_stream, 11, False),
}


def as_decimal(value):
    """The value as a ``decimal.Decimal``, built from its fields."""
    if value.kind is Kind.FINITE:
        f = value.form
        sign = 1 if f.sign is Sign.NEGATIVE else 0
        return Decimal((sign, tuple(map(int, f.digits)), f.signed_exponent - len(f.digits) + 1))
    return {
        Kind.POSITIVE_ZERO: Decimal("0"),
        Kind.NEGATIVE_ZERO: Decimal("-0"),
        Kind.POSITIVE_INFINITY: Decimal("Infinity"),
        Kind.NEGATIVE_INFINITY: Decimal("-Infinity"),
        Kind.NAN: Decimal("NaN"),
    }[value.kind]


@st.composite
def canonical_digits(draw, max_digits=25):
    n = draw(st.integers(1, max_digits))
    if n == 1:
        return str(draw(st.integers(1, 9)))
    first = draw(st.integers(1, 9))
    middle = draw(st.text("0123456789", min_size=n - 2, max_size=n - 2))
    last = draw(st.integers(1, 9))
    return f"{first}{middle}{last}"


@st.composite
def scientific_forms(draw, max_digits=25, max_exponent=10**6):
    exponent = draw(st.integers(0, max_exponent))
    exponent_sign = (
        ExponentSign.NON_NEGATIVE
        if exponent == 0
        else draw(st.sampled_from((ExponentSign.NEGATIVE, ExponentSign.NON_NEGATIVE)))
    )
    return ScientificForm(
        sign=draw(st.sampled_from((Sign.NEGATIVE, Sign.POSITIVE))),
        exponent_sign=exponent_sign,
        exponent=exponent,
        digits=draw(canonical_digits(max_digits)),
    )


def finite_values(max_digits=25, max_exponent=10**6):
    return st.builds(DecimalValue.finite, scientific_forms(max_digits, max_exponent))


def decimal_values(max_digits=25, max_exponent=10**6):
    return st.one_of(finite_values(max_digits, max_exponent), st.sampled_from(SPECIALS))


def bit_strings(max_size=64):
    return st.builds(
        BitString, st.text(alphabet="01", min_size=0, max_size=max_size)
    )


def decodable_sequence(rng, max_length=9, max_digits=12, max_exponent=1000):
    """A random value sequence the prefix-free stream grammar can represent.

    Finite values, negative zero and NaN may appear anywhere; positive
    infinity only before a value whose header starts with 0; negative
    infinity and positive zero only at the end.
    """
    from lexdec.selftest import random_finite

    body = []
    for _ in range(rng.randint(1, max_length)):
        pick = rng.random()
        if pick < 0.08:
            body.append(NEGATIVE_ZERO)
        elif pick < 0.16:
            body.append(NAN)
        else:
            body.append(random_finite(rng, max_digits=max_digits, max_exponent=max_exponent))
    values = []
    for value in body:
        starts_with_zero = value is NEGATIVE_ZERO or (
            value.is_finite() and value.form.sign < 0
        )
        if starts_with_zero and rng.random() < 0.1:
            values.append(POSITIVE_INFINITY)
        values.append(value)
    if rng.random() < 0.3:
        values.append(
            rng.choice(
                (POSITIVE_ZERO, NEGATIVE_INFINITY, POSITIVE_INFINITY, NEGATIVE_ZERO, NAN)
            )
        )
    return values
