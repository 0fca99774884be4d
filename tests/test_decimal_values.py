"""Parsing, rendering, and the numeric comparison oracle."""

import functools
import itertools
import pickle
import random
import re
import sys
import timeit
from dataclasses import FrozenInstanceError, replace
from decimal import Decimal, InvalidOperation

import hypothesis.strategies as st
import pytest
from hypothesis import given

import lexdec
from lexdec import (
    NAN,
    NEGATIVE_INFINITY,
    NEGATIVE_ZERO,
    POSITIVE_INFINITY,
    POSITIVE_ZERO,
    DecimalValue,
    ExponentLimitError,
    ExponentSign,
    Kind,
    ParseError,
    ScientificForm,
    Sign,
    compare_numeric,
    decode,
    decode_prefix_free_stream,
    encode,
    encode_prefix_free,
    parse_decimal,
    render_decimal,
)

from lexdec.selftest import random_finite

from strategies import as_decimal, decimal_values, finite_values


def form(sign, exponent_sign, exponent, digits):
    return DecimalValue.finite(
        ScientificForm(sign, exponent_sign, exponent, digits)
    )


def assert_public_value(built, fields):
    """``built`` is exactly the value the checked constructors make from ``fields``."""
    checked = form(fields.sign, fields.exponent_sign, fields.exponent, fields.digits)
    assert type(built) is DecimalValue and type(built.form) is ScientificForm
    assert built.kind is Kind.FINITE
    assert built == checked and hash(built) == hash(checked)
    assert built.form == checked.form and hash(built.form) == hash(checked.form)
    assert repr(built) == repr(checked)
    with pytest.raises(FrozenInstanceError):
        built.kind = Kind.NAN
    with pytest.raises(FrozenInstanceError):
        built.form.digits = "1"
    assert replace(built) == checked
    assert replace(built.form, digits="1") == replace(checked.form, digits="1")
    assert pickle.loads(pickle.dumps(built)) == checked


class TestParse:
    def test_worked_examples(self):
        assert parse_decimal("-103.2") == form(
            Sign.NEGATIVE, ExponentSign.NON_NEGATIVE, 2, "1032"
        )
        assert parse_decimal("-0.0405") == form(
            Sign.NEGATIVE, ExponentSign.NEGATIVE, 2, "405"
        )
        assert parse_decimal("0") == POSITIVE_ZERO
        assert parse_decimal("1.500") == form(
            Sign.POSITIVE, ExponentSign.NON_NEGATIVE, 0, "15"
        )
        assert parse_decimal("4.05E-2") == form(
            Sign.POSITIVE, ExponentSign.NEGATIVE, 2, "405"
        )
        assert parse_decimal("4005012345") == form(
            Sign.POSITIVE, ExponentSign.NON_NEGATIVE, 9, "4005012345"
        )

    def test_specials(self):
        assert parse_decimal("INF") == POSITIVE_INFINITY
        assert parse_decimal("+INF") == POSITIVE_INFINITY
        assert parse_decimal("-INF") == NEGATIVE_INFINITY
        assert parse_decimal("inf") == POSITIVE_INFINITY
        assert parse_decimal("NaN") == NAN
        assert parse_decimal("nan") == NAN

    def test_specials_are_ascii_tokens(self):
        # Each letter of each token, spelled by a non-ASCII character whose
        # upper case is that letter, as U+0131 (dotless i) is for I. The
        # decimal module rejects these, and the digit run is missing.
        lookalikes = {letter: [] for letter in "INFA"}
        for code in range(128, sys.maxunicode + 1):
            char = chr(code)
            if char.upper() in lookalikes:
                lookalikes[char.upper()].append(char)
        assert "\u0131" in lookalikes["I"]
        for token in ("INF", "+INF", "-INF", "NaN", "inf", "nan"):
            start = 1 if token[0] in "+-" else 0
            for i in range(start, len(token)):
                for char in lookalikes[token[i].upper()]:
                    text = token[:i] + char + token[i + 1 :]
                    with pytest.raises(ParseError) as caught:
                        parse_decimal(text)
                    assert str(caught.value) == f"expected digit (at position {start})"
                    with pytest.raises(InvalidOperation):
                        Decimal(text)

    def test_signed_zeros(self):
        assert parse_decimal("-0") == NEGATIVE_ZERO
        assert parse_decimal("-0.00") == NEGATIVE_ZERO
        assert parse_decimal("-0e99") == NEGATIVE_ZERO
        assert parse_decimal("+0") == POSITIVE_ZERO
        assert parse_decimal("0.000") == POSITIVE_ZERO

    def test_canonical_uniqueness(self):
        spellings = ["103.2", "1.032e2", "0.0001032E6", "10.32e1", "1032e-1"]
        values = {parse_decimal(s) for s in spellings}
        assert len(values) == 1

    @pytest.mark.parametrize(
        "text,position",
        [
            ("", 0),
            ("abc", 0),
            (".5", 0),
            ("1.", 2),
            ("1e", 2),
            ("1e+", 3),
            ("--1", 1),
            ("1.2.3", 3),
            ("1 ", 1),
            ("-NaN", 1),
            ("+", 1),
            ("1.e5", 2),
            ("1ex", 2),
            ("\u0663", 0),  # a non-ASCII digit
        ],
    )
    def test_errors_name_position(self, text, position):
        with pytest.raises(ParseError) as exc:
            parse_decimal(text)
        assert exc.value.position == position

    def test_exponent_limit(self):
        with pytest.raises(ExponentLimitError):
            parse_decimal("1e99999999999")
        with pytest.raises(ExponentLimitError):
            parse_decimal("1e-99999999999")
        assert parse_decimal("1e99", max_exponent=100).form.exponent == 99
        with pytest.raises(ExponentLimitError):
            parse_decimal("1e101", max_exponent=100)

    @pytest.mark.parametrize("sign", ["", "-"])
    def test_exponent_digits_past_the_int_conversion_limit(self, sign):
        # 5,000 exponent digits are rejected from their count alone, before
        # int() meets Python's limit on digit strings; the error names the
        # count and carries no exponent.
        with pytest.raises(ExponentLimitError) as exc:
            parse_decimal("1e" + sign + "9" * 5000)
        assert exc.value.exponent is None
        assert exc.value.limit == lexdec.DEFAULT_MAX_EXPONENT
        assert str(exc.value) == "exponent magnitude of 5000 digits exceeds limit 4294967296"

    @given(
        st.integers(0, 40),
        st.booleans(),
        st.sampled_from(["", "-"]),
        st.integers(0, 10**7),
        st.integers(0, 10**6),
    )
    def test_rejects_exactly_the_exponents_over_the_limit(
        self, zeros, fraction, sign, exponent, limit
    ):
        # The digit-count rule must never reject an exponent that the point
        # shift brings back within the limit.
        mantissa = "0." + "0" * zeros + "1" if fraction else "1" + "0" * zeros
        expected = int(sign + str(exponent)) + (-(zeros + 1) if fraction else zeros)
        text = f"{mantissa}e{sign}{exponent}"
        if abs(expected) > limit:
            with pytest.raises(ExponentLimitError):
                parse_decimal(text, max_exponent=limit)
        else:
            assert parse_decimal(text, max_exponent=limit).form.signed_exponent == expected

    def test_over_long_exponent_rejected_in_linear_time(self):
        # A ratio of two timings on one machine, not a wall-clock bound: 16
        # times the digits costs about 16 times as much when the rejection is
        # linear; building 10 ** (D-1) made it 80-90 times.
        def best_of_3(digits):
            text = "1e" + "9" * digits

            def reject():
                try:
                    parse_decimal(text)
                except ExponentLimitError:
                    pass

            return min(timeit.repeat(reject, number=1, repeat=3))

        assert best_of_3(10**6) / best_of_3(62_500) < 40

    @pytest.mark.parametrize("sign", ["", "-"])
    def test_exponent_past_the_int_conversion_limit_under_a_higher_limit(self, sign):
        # With a limit that admits it, a 5,000-digit exponent is converted,
        # not refused by int()'s 4,300-digit limit on decimal text.
        value = parse_decimal("1e" + sign + "9" * 5000, max_exponent=10**6000)
        assert value.form.signed_exponent == int(Decimal(sign + "9" * 5000))
        with pytest.raises(ExponentLimitError) as exc:
            parse_decimal("1e" + "9" * 7000, max_exponent=10**6000)
        assert str(exc.value) == "exponent magnitude of 7000 digits exceeds limit of 19932 bits"

    @pytest.mark.parametrize("sign", ["", "-"])
    def test_exponent_under_a_lowered_int_conversion_limit(self, sign):
        # int() refuses decimal text past sys.get_int_max_str_digits(), which
        # a program may lower below the 4,300 default; the parser must still
        # convert an exponent that its limit admits, whatever its length.
        exponent_text = ("1234567890" * 70)[:700]
        expected = int(Decimal(sign + exponent_text))
        limit = 10**800
        default = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            value = parse_decimal("-2.5e" + sign + exponent_text, max_exponent=limit)
            assert value.form.signed_exponent == expected
            decoded = decode(encode(value), max_exponent=limit)
            assert decoded == value
            text = render_decimal(decoded)
            assert text == "-2.5E" + sign + exponent_text
            assert parse_decimal(text, max_exponent=limit) == value
        finally:
            sys.set_int_max_str_digits(default)

    def test_leading_exponent_zeros_do_not_count(self):
        assert parse_decimal("1e" + "0" * 5000 + "5") == parse_decimal("1e5")
        assert parse_decimal("-2.5e-" + "0" * 5000 + "7") == parse_decimal("-2.5e-7")
        assert parse_decimal("0e" + "9" * 5000) == POSITIVE_ZERO


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: parse_decimal(12), "parse_decimal takes a str, not int"),
        (lambda: parse_decimal(b"12"), "parse_decimal takes a str, not bytes"),
        (lambda: parse_decimal(None), "parse_decimal takes a str, not NoneType"),
        (lambda: render_decimal("1"), "render_decimal takes a DecimalValue, not str"),
        (
            lambda: compare_numeric("1", NAN),
            "compare_numeric takes two DecimalValues, not str and DecimalValue",
        ),
        (
            lambda: compare_numeric(NAN, 1),
            "compare_numeric takes two DecimalValues, not DecimalValue and int",
        ),
    ],
    ids=["parse-int", "parse-bytes", "parse-none", "render-str", "compare-str", "compare-nan-int"],
)
def test_wrong_argument_types_raise_type_error(call, message):
    with pytest.raises(TypeError) as exc:
        call()
    assert str(exc.value) == message


# Numeral pieces, so that fuzzed text often parses or fails late in the scan.
_PIECES = st.sampled_from(
    list("0123456789+-.eE _") + ["\u0663", "INF", "inf", "NaN", "nan", "0" * 30, "9" * 30]
)
numeral_texts = st.one_of(
    st.from_regex(r"[+-]?[0-9]{0,30}(\.[0-9]{0,30})?([eE][+-]?[0-9]{0,11})?", fullmatch=True),
    st.lists(_PIECES, max_size=12).map("".join),
    st.builds(
        lambda mantissa, sign, digit, count: f"{mantissa}e{sign}{digit * count}",
        st.lists(_PIECES, max_size=6).map("".join),
        st.sampled_from(["", "+", "-"]),
        st.sampled_from("0159"),
        st.integers(1, 5000),
    ),
    st.text(),
)


@given(numeral_texts)
def test_fuzzed_text_parses_exactly_or_fails_typed(text):
    try:
        value = parse_decimal(text)
    except (ParseError, ExponentLimitError):
        return
    assert parse_decimal(render_decimal(value)) == value
    if value.kind is Kind.NAN:
        assert Decimal(text).is_nan()
        return
    expected = as_decimal(value)
    if value.kind in (Kind.POSITIVE_ZERO, Kind.NEGATIVE_ZERO):
        # Decimal cannot hold a zero's exponent of thousands of digits; a
        # zero's value and sign are in the part before the exponent.
        text = re.split("[eE]", text)[0]
    actual = Decimal(text)
    assert actual == expected and actual.is_signed() == expected.is_signed()


# A decimal point without a digit on one side: Decimal reads it, the numeral
# grammar does not, and nothing else sets the two apart on this alphabet.
_BARE_POINT = re.compile(r"(?<![0-9])\.|\.(?![0-9])")


def test_every_short_text_over_the_numeral_alphabet_parses_as_decimal_does():
    # All 137,257 texts of at most 6 characters over 0 1 . e E + -, against
    # the decimal module, an oracle independent of the parser's grammar.
    for length in range(7):
        for chars in itertools.product("01.eE+-", repeat=length):
            text = "".join(chars)
            try:
                expected = Decimal(text)
            except InvalidOperation:
                expected = None
            try:
                value = parse_decimal(text)
            except ParseError as exc:
                assert 0 <= exc.position <= len(text), text
                assert expected is None or _BARE_POINT.search(text), text
                continue
            assert not _BARE_POINT.search(text), text
            actual = as_decimal(value)
            assert actual == expected and actual.is_signed() == expected.is_signed(), text


_LONG_ALPHABET = "0123456789.+-eEx"  # the numeral's characters and a stray letter
_RUN = st.text("0123456789", min_size=1, max_size=30)
_SIGN = st.sampled_from(["", "+", "-"])
_LONG_NUMERALS = st.builds(
    "{}{}{}{}".format,
    _SIGN,
    _RUN,
    st.one_of(st.just(""), _RUN.map(".".__add__)),
    st.one_of(st.just(""), st.builds("{}{}{}".format, st.sampled_from("eE"), _SIGN, _RUN)),
)


@st.composite
def _spliced_numerals(draw):
    """A well-formed numeral with one character of the alphabet put in,
    swapped in or taken out, so that it often fails late in the scan."""
    text = draw(_LONG_NUMERALS)
    i = draw(st.integers(0, len(text)))
    char = draw(st.sampled_from(_LONG_ALPHABET))
    inserted, swapped = text[:i] + char + text[i:], text[:i] + char + text[i + 1 :]
    return draw(st.sampled_from([text, inserted, swapped, text[:i] + text[i + 1 :]]))


# Decimal refuses an exponent of more than 18 significant digits.
_OVER_DECIMAL_RANGE = re.compile(r"[eE][+-]?0*[1-9][0-9]{17}")


@given(
    st.one_of(st.text(_LONG_ALPHABET, min_size=7, max_size=80), _spliced_numerals())
    .filter(lambda text: 7 <= len(text) <= 80 and not _OVER_DECIMAL_RANGE.search(text))
)
def test_long_numeral_shaped_text_parses_as_decimal_does(text):
    # The short-text check above, on texts of 7 to 80 characters: the same
    # accept or reject, an equal value with the sign of zero, and a
    # ParseError position inside the text. The default exponent limit
    # rejects exactly the values whose adjusted exponent is past it.
    try:
        expected = Decimal(text)
    except InvalidOperation:
        expected = None
    try:
        value = parse_decimal(text)
    except ParseError as exc:
        assert 0 <= exc.position <= len(text)
        assert expected is None or _BARE_POINT.search(text)
        return
    except ExponentLimitError as exc:
        assert expected is not None and expected and not _BARE_POINT.search(text)
        assert abs(expected.adjusted()) > lexdec.DEFAULT_MAX_EXPONENT
        assert exc.exponent in (None, expected.adjusted())
        return
    assert not _BARE_POINT.search(text)
    actual = as_decimal(value)
    assert actual == expected and actual.is_signed() == expected.is_signed()


class TestRender:
    def test_examples(self):
        assert render_decimal(
            form(Sign.POSITIVE, ExponentSign.NON_NEGATIVE, 9, "4005012345")
        ) == "4005012345"
        assert render_decimal(POSITIVE_ZERO) == "0"
        assert render_decimal(NEGATIVE_ZERO) == "-0"
        assert render_decimal(form(Sign.NEGATIVE, ExponentSign.NEGATIVE, 2, "405")) == "-0.0405"
        assert render_decimal(form(Sign.NEGATIVE, ExponentSign.NON_NEGATIVE, 2, "1032")) == "-103.2"

    def test_scientific_beyond_threshold(self):
        assert render_decimal(form(Sign.POSITIVE, ExponentSign.NON_NEGATIVE, 21, "1")) == "1E21"
        assert (
            render_decimal(form(Sign.NEGATIVE, ExponentSign.NEGATIVE, 30, "405"))
            == "-4.05E-30"
        )

    def test_positional_edges(self):
        assert render_decimal(form(Sign.POSITIVE, ExponentSign.NON_NEGATIVE, 1, "5")) == "50"
        assert render_decimal(form(Sign.POSITIVE, ExponentSign.NEGATIVE, 1, "5")) == "0.5"
        assert render_decimal(form(Sign.POSITIVE, ExponentSign.NON_NEGATIVE, 0, "55")) == "5.5"

    @given(decimal_values())
    def test_parse_render_identity(self, value):
        assert parse_decimal(render_decimal(value)) == value

    @given(finite_values(max_digits=40), st.integers(21, 10**6))
    def test_identity_in_scientific_notation(self, value, exponent):
        value = DecimalValue.finite(replace(value.form, exponent=exponent))
        text = render_decimal(value)
        assert "E" in text
        assert parse_decimal(text) == value

    @pytest.mark.parametrize(
        "exponent_sign",
        [ExponentSign.NEGATIVE, ExponentSign.NON_NEGATIVE],
        ids=["negative-exponent", "positive-exponent"],
    )
    def test_round_trip_with_an_exponent_past_the_int_conversion_limit(self, exponent_sign):
        # str() and int() refuse decimal text of more than 4,300 digits.
        exponent_text = "1234567890" * 500
        exponent = int(Decimal(exponent_text))
        value = DecimalValue.finite(ScientificForm(Sign.NEGATIVE, exponent_sign, exponent, "25"))
        text = render_decimal(decode(encode(value), max_exponent=10**6000))
        assert text == "-2.5E" + ("-" if exponent_sign < 0 else "") + exponent_text
        assert parse_decimal(text, max_exponent=10**6000) == value


class TestCompare:
    def test_examples(self):
        assert compare_numeric(parse_decimal("-103.2"), parse_decimal("-0.0405")) == -1
        assert compare_numeric(parse_decimal("0.707106"), parse_decimal("4005012345")) == -1
        assert compare_numeric(NEGATIVE_ZERO, POSITIVE_ZERO) == 0

    def test_nan_is_incomparable(self):
        assert compare_numeric(NAN, POSITIVE_ZERO) is None
        assert compare_numeric(parse_decimal("1"), NAN) is None
        assert compare_numeric(NAN, NAN) is None

    def test_infinities(self):
        one = parse_decimal("1")
        assert compare_numeric(NEGATIVE_INFINITY, one) == -1
        assert compare_numeric(POSITIVE_INFINITY, one) == 1
        assert compare_numeric(NEGATIVE_INFINITY, POSITIVE_INFINITY) == -1
        assert compare_numeric(POSITIVE_INFINITY, POSITIVE_INFINITY) == 0

    def test_zeros_against_signed_values(self):
        assert compare_numeric(POSITIVE_ZERO, parse_decimal("0.0001")) == -1
        assert compare_numeric(NEGATIVE_ZERO, parse_decimal("-0.0001")) == 1

    @given(finite_values(max_digits=12, max_exponent=30), finite_values(max_digits=12, max_exponent=30))
    def test_against_decimal_oracle(self, a, b):
        # Decimal comparison is exact, whatever the context's precision.
        da, db = as_decimal(a), as_decimal(b)
        expected = (da > db) - (da < db)
        assert compare_numeric(a, b) == expected

    @given(decimal_values())
    def test_reflexive(self, value):
        if value.kind is Kind.NAN:
            assert compare_numeric(value, value) is None
        else:
            assert compare_numeric(value, value) == 0

    def test_total_order_on_small_grid(self):
        values = [NEGATIVE_INFINITY, POSITIVE_INFINITY, POSITIVE_ZERO]
        for sign in (Sign.NEGATIVE, Sign.POSITIVE):
            for exponent in range(0, 4):
                for t in (ExponentSign.NEGATIVE, ExponentSign.NON_NEGATIVE):
                    if exponent == 0 and t is ExponentSign.NEGATIVE:
                        continue
                    for d in range(1, 10):
                        values.append(form(sign, t, exponent, str(d)))
        for a in values:
            for b in values:
                ab = compare_numeric(a, b)
                assert ab == -compare_numeric(b, a)
        # The values are numerically distinct, so a relation that agrees on
        # every pair with the ranks of one sort is a strict total order.
        ranked = sorted(values, key=functools.cmp_to_key(compare_numeric))
        for i, a in enumerate(ranked):
            for j, b in enumerate(ranked):
                assert compare_numeric(a, b) == (i > j) - (i < j)


NON_NEGATIVE = ExponentSign.NON_NEGATIVE


class TestInvariants:
    def test_form_validation(self):
        def build(digits, exponent=0, exponent_sign=ExponentSign.NON_NEGATIVE):
            return ScientificForm(Sign.POSITIVE, exponent_sign, exponent, digits)

        # empty, zero, a leading or trailing 0, a non-digit, non-ASCII digits
        # and whitespace
        for digits in ["", "0", "05", "150", "1a", "\u0663", "1\u06631", "1\n", " 1"]:
            with pytest.raises(ValueError, match="^significand digits must be ASCII 0-9, start"):
                build(digits)
        for digits in [(1, 5), [1], 15, b"15"]:
            with pytest.raises(TypeError, match="^significand digits must be a str, not "):
                build(digits)
        with pytest.raises(ValueError, match="^exponent must be non-negative$"):
            build("1", -1)
        with pytest.raises(ValueError, match="^zero exponent must carry the non-negative sign$"):
            build("1", 0, ExponentSign.NEGATIVE)
        # single zero-free digit and lone trailing digit rules
        build("1")
        build("15", 7, ExponentSign.NEGATIVE)

    @pytest.mark.parametrize(
        "fields,message",
        [
            (("nonsense", NON_NEGATIVE, 0, "1"), "sign must be a Sign, not str"),
            ((1, NON_NEGATIVE, 0, "1"), "sign must be a Sign, not int"),
            ((Sign.POSITIVE, "x", 0, "1"), "exponent_sign must be an ExponentSign, not str"),
            ((Sign.POSITIVE, Sign.POSITIVE, 0, "1"), "exponent_sign must be an ExponentSign, not Sign"),
            ((Sign.POSITIVE, NON_NEGATIVE, 2.5, "1"), "exponent must be an int, not float"),
            ((Sign.POSITIVE, NON_NEGATIVE, True, "1"), "exponent must be an int, not bool"),
        ],
        ids=[
            "sign-str",
            "sign-int",
            "exponent_sign-str",
            "exponent_sign-Sign",
            "exponent-float",
            "exponent-bool",
        ],
    )
    def test_field_of_the_wrong_type_is_refused_at_construction(self, fields, message):
        # Before the check, a "nonsense" sign encoded as 100110001, an
        # exponent sign "x" made render_decimal raise a bare TypeError, an
        # exponent of 2.5 made encode raise AttributeError, and True read as 1.
        with pytest.raises(TypeError, match=f"^{message}$"):
            ScientificForm(*fields)

    def test_unchecked_constructor_is_not_exported(self):
        exported = [getattr(lexdec, name) for name in lexdec.__all__]
        assert lexdec.decimal_values._finite_value not in exported
        # One unchecked builder: the classmethods it replaced are gone.
        assert not hasattr(ScientificForm, "_raw") and not hasattr(DecimalValue, "_finite")
        assert not [name for name in lexdec.__all__ if name.startswith("_")]

    def test_builder_twins_take_the_public_slots(self):
        assert lexdec.decimal_values._FormTwin.__slots__ == ScientificForm.__slots__
        assert lexdec.decimal_values._ValueTwin.__slots__ == DecimalValue.__slots__

    @given(finite_values())
    def test_parsed_and_decoded_values_equal_checked_ones(self, value):
        for built in (
            parse_decimal(render_decimal(value)),
            decode(encode(value)),
            decode(encode(value, trim=True), trim=True),
            *decode_prefix_free_stream(encode_prefix_free(value) + encode_prefix_free(value)),
        ):
            assert_public_value(built, value.form)

    def test_random_values_equal_checked_ones(self):
        rng = random.Random(5)
        for _ in range(300):
            value = random_finite(rng)
            assert_public_value(value, value.form)

    def test_value_validation(self):
        with pytest.raises(ValueError):
            DecimalValue(Kind.FINITE)
        with pytest.raises(ValueError):
            DecimalValue.finite(None)
        with pytest.raises(ValueError):
            DecimalValue(Kind.FINITE, None)
        with pytest.raises(ValueError):
            DecimalValue(
                Kind.POSITIVE_ZERO,
                ScientificForm(Sign.POSITIVE, ExponentSign.NON_NEGATIVE, 0, "1"),
            )

    @pytest.mark.parametrize("kind", ["nonsense", "finite", None, 0])
    @pytest.mark.parametrize(
        "use",
        [encode, render_decimal, lambda value: compare_numeric(value, POSITIVE_ZERO)],
        ids=["encode", "render_decimal", "compare_numeric"],
    )
    def test_kind_that_is_not_a_kind_is_refused_at_construction(self, use, kind):
        # Before the check, these values were built, and each function then
        # failed on them with a bare KeyError.
        with pytest.raises(TypeError, match=f"^kind must be a Kind, not {type(kind).__name__}$"):
            use(DecimalValue(kind))

    @pytest.mark.parametrize("form", ["1", ("1",), 1.5])
    def test_form_that_is_not_a_form_is_refused_at_construction(self, form):
        with pytest.raises(TypeError, match="^form must be a ScientificForm or None, not "):
            DecimalValue(Kind.FINITE, form)
