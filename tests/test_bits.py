"""Bit container, orders, and byte packing."""

import pytest
from hypothesis import given

from lexdec import BitCursor, BitString, lex_compare

from strategies import bit_strings

# Every sequence of length 1..3, by length and then by value, and in
# lexicographic order.
BY_LENGTH = [
    "0", "1",
    "00", "01", "10", "11",
    "000", "001", "010", "011", "100", "101", "110", "111",
]
LEX_ORDERED = [
    "0", "00", "000", "001", "01", "010", "011",
    "1", "10", "100", "101", "11", "110", "111",
]


def test_construction_and_text():
    assert BitString("10100").to_text() == "10100"
    assert BitString("10 100 0001").to_text() == "101000001"
    assert BitString("").to_text() == ""
    assert len(BitString("0001")) == 4


def test_rejects_non_bits():
    with pytest.raises(ValueError):
        BitString("10a")


# Texts that int(text, 2) would accept but a bit string must not.
@pytest.mark.parametrize("text", ["0b1", "+1", "\t1", "1\n", "\u0661"])
def test_rejects_what_int_accepts(text):
    bad = next(ch for ch in text if ch not in "01 _")
    with pytest.raises(ValueError) as exc:
        BitString(text)
    assert str(exc.value) == f"invalid bit character {bad!r}"


def test_long_text_matches_bytes():
    data = bytes(i * 37 % 256 for i in range(125_000))  # 10**6 bits
    text = "".join(format(b, "08b") for b in data)
    assert BitString(text) == BitString.from_bytes(data, 10**6)


def test_append_examples():
    assert (BitString("10") + BitString("100")).to_text() == "10100"
    assert (BitString("") + BitString("")).to_text() == ""
    assert (BitString("00") + BitString("01111")).to_text() == "0001111"


def test_lex_compare_examples():
    assert lex_compare(BitString("0"), BitString("00")) == -1
    assert lex_compare(BitString("011"), BitString("1")) == -1
    assert lex_compare(BitString("10"), BitString("10")) == 0


def test_golden_order_tables():
    import functools

    strings = [BitString(s) for s in BY_LENGTH]
    by_lex = sorted(strings, key=functools.cmp_to_key(lex_compare))
    assert [b.to_text() for b in by_lex] == LEX_ORDERED


def _all_strings_up_to(n):
    out = [""]
    for length in range(1, n + 1):
        out += [format(v, f"0{length}b") for v in range(1 << length)]
    return [BitString(s) for s in out]


@pytest.mark.parametrize("compare", [lex_compare])
def test_total_order_brute_force(compare):
    universe = _all_strings_up_to(4)
    for a in universe:
        for b in universe:
            ab = compare(a, b)
            assert ab == -compare(b, a)
            assert (ab == 0) == (a == b)
    # transitivity: a<b and b<c imply a<c
    import functools

    ordered = sorted(universe, key=functools.cmp_to_key(compare))
    for i, a in enumerate(ordered):
        for b in ordered[i + 1 :]:
            assert compare(a, b) == -1


@given(bit_strings(), bit_strings(max_size=16).filter(lambda b: len(b) > 0))
def test_strict_prefix_sorts_first(a, suffix):
    extended = a + suffix
    assert lex_compare(a, extended) == -1


@given(bit_strings(max_size=128), bit_strings(max_size=128))
def test_lex_compare_matches_text_comparison(a, b):
    ta, tb = a.to_text(), b.to_text()
    expected = -1 if ta < tb else (1 if ta > tb else 0)
    assert lex_compare(a, b) == expected


def test_to_bytes_examples():
    assert BitString("101000010").to_bytes() == (bytes([0xA1, 0x00]), 9)
    assert BitString("").to_bytes() == (b"", 0)
    assert BitString("10").to_bytes() == (bytes([0x80]), 2)


def test_from_bytes_examples():
    assert BitString.from_bytes(bytes([0x80]), 2).to_text() == "10"
    assert BitString.from_bytes(b"", 0).to_text() == ""
    assert BitString.from_bytes(bytes([0xA1, 0x00]), 9).to_text() == "101000010"


def test_from_bytes_errors():
    with pytest.raises(ValueError):
        BitString.from_bytes(bytes([0x80]), 9)
    with pytest.raises(ValueError):
        BitString.from_bytes(bytes([0x81]), 2)  # nonzero padding
    with pytest.raises(ValueError):
        BitString.from_bytes(bytes([0x80]), -1)


@given(bit_strings(max_size=200))
def test_bytes_round_trip(bs):
    data, length = bs.to_bytes()
    assert BitString.from_bytes(data, length) == bs
    assert len(data) == (length + 7) // 8


@given(bit_strings(max_size=200))
def test_text_round_trip(bs):
    assert BitString(bs.to_text()) == bs


def test_strip_trailing_zeros():
    assert BitString("101000").strip_trailing_zeros().to_text() == "101"
    assert BitString("0000").strip_trailing_zeros().to_text() == ""
    assert BitString("1").strip_trailing_zeros().to_text() == "1"


def test_cursor_bounds():
    with pytest.raises(ValueError):
        BitCursor(BitString("10"), position=3)
