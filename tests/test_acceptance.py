"""Acceptance suite: one test per acceptance criterion, at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion alongside timings. Criterion 8a is expected to fail and is
marked as such: the +/-12-bit band around (10/3)*log10(i) is not attainable
for any log-spaced integer sample (see the assertions' message and the
companion tests for the exact deviations); the claim it approximates is
checked by criteria 7 and 8b, which pass.
"""

import functools
import math
import random
import time
from fractions import Fraction

import pytest

from lexdec import (
    NAN,
    NEGATIVE_INFINITY,
    NEGATIVE_ZERO,
    POSITIVE_INFINITY,
    POSITIVE_ZERO,
    BitString,
    DEFAULT_MAX_EXPONENT,
    DecimalValue,
    DecodeError,
    DecodeErrorKind,
    ExponentSign,
    ScientificForm,
    Sign,
    compare_numeric,
    decode,
    decode_prefix_free_stream,
    encode,
    encode_prefix_free,
    fixed_width_key,
    lex_compare,
    parse_decimal,
)
from lexdec.bench import size_rows
from lexdec.codec import _read_exponent, exponent_field
from lexdec.selftest import SPECIAL_VALUES, random_finite

from golden import (
    DECODE_WORKED_EXAMPLE,
    DECODE_WORKED_EXAMPLE_VALUE,
    EXPONENT_FIELD_TABLE,
    SMALL_INTEGER_TABLE,
    WORKED_EXAMPLES,
)
from strategies import decodable_sequence

SEED = 20250806
ROUND_TRIP_CASES = 100_000
ORDER_PAIR_CASES = 100_000
STREAM_SEQUENCES = 10_000


def report(criterion, ok, label):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {criterion}: {status} - {label}")
    return ok


def refined_numeric_cmp(a, b):
    """Numeric order refined so the two zeros take their encoded order."""
    c = compare_numeric(a, b)
    if c == 0 and a != b:
        return -1 if a == NEGATIVE_ZERO else 1
    return c


def exhaustive_grid():
    """All values with <= 2 significant digits, e in [0, 12], every sign
    combination, plus the four orderable specials (4504 values).

    NaN is represented in the encoding but is numerically incomparable, so it
    is checked separately rather than inside the sorted grid.
    """
    values = [NEGATIVE_INFINITY, NEGATIVE_ZERO, POSITIVE_ZERO, POSITIVE_INFINITY]
    digit_sets = [str(d) for d in range(1, 10)] + [
        f"{a}{b}" for a in range(1, 10) for b in range(1, 10)
    ]
    for sign in (Sign.NEGATIVE, Sign.POSITIVE):
        for exponent_sign in (ExponentSign.NEGATIVE, ExponentSign.NON_NEGATIVE):
            for exponent in range(13):
                if exponent == 0 and exponent_sign is ExponentSign.NEGATIVE:
                    continue
                for digits in digit_sets:
                    values.append(
                        DecimalValue.finite(
                            ScientificForm(sign, exponent_sign, exponent, digits)
                        )
                    )
    return values


def length_law(exponent, digit_count):
    field = 2 * (exponent + 2).bit_length() - 1
    return 2 + field + 4 + 10 * ((digit_count - 1 + 2) // 3)


def smooth_estimate(exponent, digit_count):
    return 5 + 2 * ((exponent + 2).bit_length() - 1) + Fraction(10, 3) * (digit_count - 1)


@pytest.fixture(scope="module")
def round_trip_corpus():
    """Criterion 5's corpus; also feeds criterion 7 with (e, digits, bits)."""
    rng = random.Random(SEED)
    stats = []
    failures = 0
    started = time.perf_counter()
    for _ in range(ROUND_TRIP_CASES):
        value = random_finite(rng, max_digits=60, max_exponent=10**6)
        bits = encode(value)
        if decode(bits) != value:
            failures += 1
        form = value.form
        stats.append((form.exponent, len(form.digits), len(bits)))
    elapsed = time.perf_counter() - started
    return {"failures": failures, "stats": stats, "elapsed": elapsed}


@pytest.fixture(scope="module")
def order_pair_corpus():
    """Criterion 6b's corpus; also feeds criterion 7."""
    rng = random.Random(SEED + 1)
    stats = []
    mismatches = 0
    started = time.perf_counter()
    for _ in range(ORDER_PAIR_CASES):
        a = random_finite(rng, max_digits=60, max_exponent=10**6)
        b = random_finite(rng, max_digits=60, max_exponent=10**6)
        ea, eb = encode(a), encode(b)
        if lex_compare(ea, eb) != compare_numeric(a, b):
            mismatches += 1
        stats.append((a.form.exponent, len(a.form.digits), len(ea)))
        stats.append((b.form.exponent, len(b.form.digits), len(eb)))
    elapsed = time.perf_counter() - started
    return {"mismatches": mismatches, "stats": stats, "elapsed": elapsed}


@pytest.fixture(scope="module")
def grid():
    values = exhaustive_grid()
    encodings = {value: encode(value) for value in values}
    return values, encodings


def test_criterion_1_worked_examples():
    ok = True
    for text, expected in WORKED_EXAMPLES:
        ok = ok and encode(parse_decimal(text)) == BitString(expected)
    assert report("1", ok, "worked examples encode bit-for-bit")


def test_criterion_2_small_integer_table():
    ok = True
    for text, expected in SMALL_INTEGER_TABLE:
        value = parse_decimal(text)
        ok = ok and encode(value) == BitString(expected)
        ok = ok and decode(BitString(expected)) == value
    assert report("2", ok, "integers -15..15 encode and decode bit-for-bit")


def test_criterion_3_exponent_table():
    ok = True
    for exponent, plain, flipped in EXPONENT_FIELD_TABLE:
        ok = ok and BitString._raw(*exponent_field(exponent, False)) == BitString(plain)
        ok = ok and BitString._raw(*exponent_field(exponent, True)) == BitString(flipped)
    assert report("3", ok, "ten exponent fields, plain and flipped")


def test_criterion_4_decode_worked_example():
    bits = BitString(DECODE_WORKED_EXAMPLE)
    value = decode(bits)
    ok = value == parse_decimal(DECODE_WORKED_EXAMPLE_VALUE)
    # Read as a positive value's field, which is flipped exactly when its
    # exponent sign is negative.
    field = _read_exponent(bits._value, len(bits), 2, False, DEFAULT_MAX_EXPONENT)
    exponent_sign, exponent, end = field
    ok = ok and end - 2 == 7 and exponent == 9 and exponent_sign is ExponentSign.NON_NEGATIVE
    assert report("4", ok, "43-bit example decodes; exponent field spans 7 bits")


def test_criterion_5_round_trip(round_trip_corpus):
    specials_ok = all(decode(encode(v)) == v for v in SPECIAL_VALUES)
    ok = round_trip_corpus["failures"] == 0 and specials_ok
    assert report(
        "5",
        ok,
        f"{ROUND_TRIP_CASES} random round-trips plus specials "
        f"({round_trip_corpus['elapsed']:.1f}s)",
    )


def test_criterion_6a_exhaustive_grid_order(grid):
    values, encodings = grid
    started = time.perf_counter()
    by_numeric = sorted(values, key=functools.cmp_to_key(refined_numeric_cmp))
    by_encoding = sorted(
        values, key=functools.cmp_to_key(lambda x, y: lex_compare(encodings[x], encodings[y]))
    )
    mismatches = sum(1 for a, b in zip(by_numeric, by_encoding) if a != b)
    elapsed = time.perf_counter() - started
    nan_after_inf = lex_compare(encode(NAN), encode(POSITIVE_INFINITY)) == 1
    ok = mismatches == 0 and nan_after_inf
    assert report(
        "6a", ok, f"grid of {len(values)} values sorts identically ({elapsed:.1f}s)"
    )


def test_criterion_6b_random_pairs(order_pair_corpus):
    ok = order_pair_corpus["mismatches"] == 0
    assert report(
        "6b",
        ok,
        f"{ORDER_PAIR_CASES} random pairs agree pairwise "
        f"({order_pair_corpus['elapsed']:.1f}s)",
    )


def test_criterion_7_length_law(round_trip_corpus, order_pair_corpus, grid):
    values, encodings = grid
    samples = round_trip_corpus["stats"] + order_pair_corpus["stats"]
    for value in values:
        if value.is_finite():
            samples.append(
                (value.form.exponent, len(value.form.digits), len(encodings[value]))
            )
    law_ok = all(bits == length_law(e, n) for e, n, bits in samples)
    # The smooth estimate undershoots by the fixed header overhead and the
    # final declet's padding: the exact gap is 2, 2+10/3 or 2+20/3 bits.
    gaps_ok = all(
        2 <= bits - smooth_estimate(e, n) < 9 for e, n, bits in samples
    )
    ok = law_ok and gaps_ok
    assert report(
        "7", ok, f"length law exact on {len(samples)} measurements; estimate gap in [2, 9)"
    )


@pytest.mark.xfail(
    strict=True,
    reason=(
        "Not attainable: the smooth target (10/3)*log10(i) ignores the fixed "
        "19-bit-worst-case overhead (sign, tetrade, code redundancy, declet "
        "padding) and assumes every sampled integer has as many significant "
        "digits as its magnitude. Already 15 encodes to 19 bits vs a target "
        "of 3.9 (+15.1), and 10^9 to 13 bits vs 30 (-17); over the log-spaced "
        "sample the deviation spans -116.3..+23.1 bits. Criteria 7 and 8b "
        "verify the size behaviour this band was meant to capture."
    ),
)
def test_criterion_8a_size_band():
    rows = size_rows(10**40, 100)
    deviations = [
        row.measured_bits - (10 / 3) * math.log10(row.value)
        for row in rows
        if row.value >= 1
    ]
    ok = all(abs(d) <= 12 for d in deviations)
    report(
        "8a",
        ok,
        "sizes within ±12 bits of (10/3)*log10(i) "
        f"(deviations span {min(deviations):.1f}..{max(deviations):.1f})",
    )
    assert ok


def test_criterion_8b_exponent_is_double_logarithmic():
    rows = size_rows(10**40, 100)
    ok = all(
        row.exponent_bits <= 2 * math.log2(math.log10(row.value) + 2) + 1 + 1e-9
        for row in rows
        if row.value >= 1
    )
    assert report("8b", ok, "exponent field bounded by 2*log2(log10(i)+2)+1 bits")


def test_criterion_9_error_taxonomy():
    crafted = [
        ("10011 0001", DecodeErrorKind.NEGATIVE_ZERO_EXPONENT),
        ("10 100 1010", DecodeErrorKind.DIGIT_OUT_OF_RANGE),
        ("10 100 0000", DecodeErrorKind.SIGNIFICAND_OUT_OF_RANGE),
        ("0100", DecodeErrorKind.INVALID_HEADER),
        ("10 101 0001 00011", DecodeErrorKind.TRUNCATED_INPUT),
    ]
    seen = set()
    ok = True
    for text, expected in crafted:
        try:
            decode(BitString(text))
            ok = False
        except DecodeError as exc:
            ok = ok and exc.kind is expected
            seen.add(exc.kind)
    ok = ok and seen == set(DecodeErrorKind)
    assert report("9", ok, "every decode error kind triggered by a crafted input")


def test_criterion_10_prefix_free(grid):
    rng = random.Random(SEED + 2)
    started = time.perf_counter()
    ok = True
    for _ in range(STREAM_SEQUENCES):
        sequence = decodable_sequence(rng, max_length=10)
        stream = BitString("")
        for value in sequence:
            stream = stream + encode_prefix_free(value)
        if decode_prefix_free_stream(stream) != sequence:
            ok = False
            break
    elapsed = time.perf_counter() - started

    values, _ = grid
    prefix_encodings = {value: encode_prefix_free(value) for value in values}
    by_numeric = sorted(values, key=functools.cmp_to_key(refined_numeric_cmp))
    by_encoding = sorted(
        values,
        key=functools.cmp_to_key(
            lambda x, y: lex_compare(prefix_encodings[x], prefix_encodings[y])
        ),
    )
    ok = ok and by_numeric == by_encoding
    assert report(
        "10",
        ok,
        f"{STREAM_SEQUENCES} streams split exactly; grid order holds ({elapsed:.1f}s)",
    )


def test_criterion_11_fixed_width(grid):
    values, encodings = grid
    width = 64
    assert all(len(encodings[v]) <= width for v in values), "grid should not truncate"
    keys = {value: fixed_width_key(value, width) for value in values}
    ordered = sorted(values, key=functools.cmp_to_key(refined_numeric_cmp))
    ok = True
    for earlier, later in zip(ordered, ordered[1:]):
        if not keys[earlier] <= keys[later]:
            ok = False
    # no truncation occurred, so the order must also be strict
    ok = ok and len(set(keys.values())) == len(values)
    assert report("11", ok, "64-bit keys order the grid bytewise, strictly")
