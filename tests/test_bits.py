"""Bit container, orders, and byte packing."""

import gc
import os
import subprocess
import sys
import threading
import timeit

import pytest
from hypothesis import given

import hypothesis.strategies as st

import lexdec
from lexdec import BitString, encode, lex_compare
from lexdec.codec import BitCursor

from strategies import bit_strings, decimal_values

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


def check_lex_compare(a, b):
    """Both orders, plain and joined operands: antisymmetric and as the texts order."""
    ta, tb = a.to_text(), b.to_text()
    expected = (ta > tb) - (ta < tb)
    # A fresh, unread sum for each call.
    for make_a in (lambda: a, lambda: fold([ta[: len(ta) // 2], ta[len(ta) // 2 :]])):
        for make_b in (lambda: b, lambda: fold([tb[: len(tb) // 2], tb[len(tb) // 2 :]])):
            assert lex_compare(make_a(), make_b()) == expected
            assert lex_compare(make_b(), make_a()) == -expected


@given(decimal_values(), decimal_values(), st.booleans())
def test_lex_compare_on_encoded_keys(u, v, trim):
    check_lex_compare(encode(u, trim=trim), encode(v, trim=trim))


@given(bit_strings(max_size=96), st.integers(0, 70))
def test_lex_compare_against_a_zero_extension(a, zeros):
    # Equal once the shorter is shifted, so only the lengths decide.
    check_lex_compare(a, BitString(a.to_text() + "0" * zeros))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: BitString(b"01"), "BitString takes a str, not bytes"),
        (lambda: BitString(5), "BitString takes a str, not int"),
        (lambda: BitString.from_bytes("ab", 3), "BitString.from_bytes takes bytes, not str"),
        (lambda: BitString.from_bytes([1, 2], 16), "BitString.from_bytes takes bytes, not list"),
    ],
    ids=["bytes", "int", "from-bytes-str", "from-bytes-list"],
)
def test_wrong_argument_types_raise_type_error(call, message):
    with pytest.raises(TypeError) as exc:
        call()
    assert str(exc.value) == message


def test_lex_compare_rejects_other_types():
    message = "^lex_compare takes two BitStrings, not BitString and str$"
    with pytest.raises(TypeError, match=message):
        lex_compare(BitString("1"), "1")


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


def assert_same_bits(bs, text):
    """``bs`` behaves in every public way as ``BitString(text)`` does."""
    plain = BitString(text)
    assert bs == plain and plain == bs
    assert bs != text and text != bs  # not a BitString: never equal
    with pytest.raises(AttributeError, match="object has no attribute 'bits'$"):
        bs.bits  # a sum looks it up in its own __getattr__
    assert hash(bs) == hash(plain)
    assert repr(bs) == repr(plain)
    assert bs.to_text() == text
    assert bs.to_bytes() == plain.to_bytes()
    assert len(bs) == len(text)
    assert lex_compare(bs, plain) == 0 and lex_compare(plain, bs) == 0
    for other in (BitString(text + "0"), BitString(text[:-1]), BitString("1" + text)):
        assert lex_compare(bs, other) == lex_compare(plain, other)
        assert lex_compare(other, bs) == lex_compare(other, plain)


def fold(texts, start=""):
    bs = BitString(start)
    for text in texts:
        bs = bs + BitString(text)
    return bs


class TestConcatenation:
    """``+`` defers the join; every sum reads as the same plain bits."""

    @pytest.mark.parametrize("first_then_second", [True, False])
    def test_two_sums_from_one_prefix(self, first_then_second):
        prefix = fold(["101", "0011", "1"])
        if first_then_second:
            a = prefix + BitString("110")
            b = prefix + BitString("0001")
        else:
            b = prefix + BitString("0001")
            a = prefix + BitString("110")
        assert_same_bits(a + BitString("01"), "10100111110" + "01")
        assert_same_bits(b + BitString("1"), "101001110001" + "1")
        assert_same_bits(a, "10100111110")
        assert_same_bits(b, "101001110001")
        assert_same_bits(prefix, "10100111")

    def test_prefix_read_before_and_after_extension(self):
        prefix = fold(["1", "00"])
        assert_same_bits(prefix, "100")
        longer = prefix + BitString("11")
        assert_same_bits(longer + BitString("0"), "100110")
        assert_same_bits(prefix + BitString("0"), "1000")

    @pytest.mark.parametrize(
        "left, right, text",
        [("", "", ""), ("", "0110", "0110"), ("0110", "", "0110"), ("0", "", "0")],
    )
    def test_empty_operands(self, left, right, text):
        assert_same_bits(BitString(left) + BitString(right), text)
        assert_same_bits(fold([left]) + fold([right]), text)
        assert_same_bits(fold([left, right]) + BitString(""), text)

    def test_zero_bits_are_kept(self):
        assert_same_bits(fold(["0", "000", "0"]), "00000")
        assert_same_bits(fold(["0", "1", "0"]), "010")

    @pytest.mark.parametrize("left_joined", [False, True])
    @pytest.mark.parametrize("right_joined", [False, True])
    def test_joined_and_plain_operands(self, left_joined, right_joined):
        left = fold(["10", "01"]) if left_joined else BitString("1001")
        right = fold(["1", "110"]) if right_joined else BitString("1110")
        assert_same_bits(left + right, "10011110")
        assert_same_bits(right + left, "11101001")
        assert_same_bits(left + right + left, "100111101001")

    def test_right_fold_does_not_recurse(self):
        bs = BitString("")
        texts = [format(i % 4, "02b") for i in range(5_000)]
        for text in reversed(texts):
            bs = BitString(text) + bs
            bs = BitString("") + bs
        assert_same_bits(bs, "".join(texts))
        nested = BitString("1")
        for _ in range(5_000):
            nested = BitString("0") + (nested + BitString("1"))
        assert_same_bits(nested, "0" * 5_000 + "1" + "1" * 5_000)

    def test_threads_extending_one_prefix(self):
        prefix = fold(["1011", "0", "111"])
        barrier = threading.Barrier(8)
        results = {}

        def extend(n):
            barrier.wait()
            bs = prefix
            for _ in range(200):
                bs = bs + BitString(format(n, "03b"))
            results[n] = bs.to_text()

        threads = [threading.Thread(target=extend, args=(n,)) for n in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for n in range(8):
            assert results[n] == "10110111" + format(n, "03b") * 200
        assert_same_bits(prefix, "10110111")

    def test_threads_reading_one_sum(self):
        total = fold(format(i, "b") for i in range(1, 2_000))
        barrier = threading.Barrier(8)
        texts = []

        def read():
            barrier.wait()
            texts.append(total.to_text())

        threads = [threading.Thread(target=read) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert texts == ["".join(format(i, "b") for i in range(1, 2_000))] * 8

    def test_left_fold_time_grows_near_linearly(self):
        # A ratio of two timings on one machine, not a wall-clock bound:
        # linear work grows about 8-fold from 4,000 to 32,000 parts,
        # quadratic work 64-fold.
        parts = [BitString(format(i * 0x9E3779B97F4A7C15 % 2**64, "064b")) for i in range(32_000)]

        def best_of_3(count):
            def run():
                bs = BitString()
                for part in parts[:count]:
                    bs = bs + part
                return bs.to_bytes()

            return min(timeit.repeat(run, number=1, repeat=3))

        assert best_of_3(32_000) / best_of_3(4_000) < 20

    @pytest.mark.parametrize(
        "shape",
        [
            pytest.param(lambda s, p, q: (s + p, s + q)[0], id="two_way_extension"),
            pytest.param(lambda s, p, q: q + (p + s), id="right_fold"),
            pytest.param(lambda s, p, q: p + (s + q), id="nested"),
        ],
    )
    def test_time_grows_near_linearly_for_every_shape(self, shape):
        # As for the left fold: a ratio of two timings, about 8 when linear.
        parts = [BitString(format(i * 0x9E3779B97F4A7C15 % 1024, "010b")) for i in range(32_000)]

        def best_of_3(count):
            def run():
                bs = BitString()
                for i in range(0, count, 2):
                    bs = shape(bs, parts[i], parts[i + 1])
                return bs.to_bytes()

            return min(timeit.repeat(run, number=1, repeat=3))

        assert best_of_3(32_000) / best_of_3(4_000) < 20

    @pytest.mark.parametrize("left_chain", [True, False], ids=["left_chain", "right_chain"])
    def test_long_unread_chain_needs_no_recursion(self, left_chain):
        parts = [BitString("1"), BitString("0")]
        bs = BitString()
        for i in range(200_000):
            bs = bs + parts[i % 2] if left_chain else parts[i % 2] + bs
        # Reading a sum over the chain walks all of it, and leaves it unread.
        over = bs + BitString()
        assert over.to_text() == ("10" if left_chain else "01") * 100_000
        del bs  # the unread chain is freed without recursing

    def test_a_shared_sum_is_expanded_once(self):
        # `x = x + x` doubles the parts but adds one sum. A read that expanded
        # every use of a shared sum would take about 0.6 s for `y` and walk
        # 2**40 parts for `x`, so this runs in a child with a memory cap.
        code = (
            "import resource, time\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 28, 1 << 28))\n"
            "from lexdec import BitString\n"
            "x, y = BitString(), BitString('1')\n"
            "for _ in range(20): y = y + y\n"
            "start = time.perf_counter()\n"
            "assert y.to_text() == '1' * (1 << 20)\n"
            "assert time.perf_counter() - start < 0.25\n"
            "for _ in range(40): x = x + x\n"
            "assert x.to_bytes() == (b'', 0)\n"
        )
        src = os.path.dirname(os.path.dirname(lexdec.__file__))
        child = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert child.returncode == 0, child.stderr

    def test_a_read_sum_keeps_no_operand(self):
        total = fold(["1", "01", "001"])
        extended = total + BitString("1")
        assert extended.to_text() == "1010011"
        assert not [o for o in gc.get_referents(extended) if isinstance(o, BitString)]
        # The unread prefix still holds its operands, and reads on its own.
        assert [o for o in gc.get_referents(total) if isinstance(o, BitString)]
        assert_same_bits(total, "101001")
        assert not [o for o in gc.get_referents(total) if isinstance(o, BitString)]

    def test_threads_reading_extensions_and_their_prefix(self):
        texts = [format(i * 37 % 64, "06b") for i in range(3_000)]
        saved = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                prefix = fold(texts)
                sums = [prefix] + [prefix + BitString(format(n, "03b")) for n in range(7)]
                expected = ["".join(texts)] + ["".join(texts) + format(n, "03b") for n in range(7)]
                barrier = threading.Barrier(len(sums))
                results = [None] * len(sums)

                def read(n):
                    barrier.wait()
                    results[n] = sums[n].to_text()

                threads = [threading.Thread(target=read, args=(n,)) for n in range(len(sums))]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                    assert not thread.is_alive()
                assert results == expected
                for bs, text in zip(sums, expected):
                    assert_same_bits(bs, text)
        finally:
            sys.setswitchinterval(saved)


@st.composite
def sum_trees(draw):
    """Leaf bit strings, then sums of any two earlier values, so that one value
    is often an operand of several sums; some sums are read as soon as they
    are made, and every value once all are made."""
    leaves = draw(st.lists(st.text("01", max_size=12), min_size=1, max_size=6))
    steps = []
    lengths = [len(text) for text in leaves]
    for _ in range(draw(st.integers(0, 16))):
        left = draw(st.integers(0, len(lengths) - 1))
        right = draw(st.integers(0, len(lengths) - 1))
        if lengths[left] + lengths[right] > 4_000:
            continue
        steps.append((left, right, draw(st.booleans())))
        lengths.append(lengths[left] + lengths[right])
    order = draw(st.permutations(range(len(lengths))))
    return leaves, steps, order


@given(sum_trees())
def test_any_tree_of_sums_reads_as_its_text(tree):
    leaves, steps, order = tree
    values = [BitString(text) for text in leaves]
    texts = list(leaves)
    for left, right, read_now in steps:
        values.append(values[left] + values[right])
        texts.append(texts[left] + texts[right])
        if read_now:  # read before later sums extend it
            assert_same_bits(values[-1], texts[-1])
    for i in order:  # read after, in any order
        assert_same_bits(values[i], texts[i])
    for i, j in zip(order, order[1:]):
        expected = (texts[i] > texts[j]) - (texts[i] < texts[j])
        assert lex_compare(values[i], values[j]) == expected
        assert (values[i] == values[j]) == (texts[i] == texts[j])
