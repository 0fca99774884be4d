"""Command-line behaviour, run in process."""

import io
import random

import pytest

from lexdec.cli import BENCH_MAX_SAMPLES, main
from lexdec.selftest import random_finite
from lexdec import compare_numeric, parse_decimal, render_decimal


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def feed(monkeypatch, text):
    monkeypatch.setattr("sys.stdin", io.StringIO(text))


class TestEncode:
    def test_grouped_output(self, capsys):
        code, out, _ = run(capsys, "encode", "--", "-103.2")
        assert code == 0
        assert out.strip() == "00 00111 1000 1111001000"

    def test_zero(self, capsys):
        code, out, _ = run(capsys, "encode", "0")
        assert code == 0
        assert out.strip() == "10"

    def test_fixed_width(self, capsys):
        code, out, _ = run(capsys, "encode", "--variant", "fixed:64", "1")
        assert code == 0
        assert out.strip() == "A0 80 00 00 00 00 00 00/64"

    def test_hex_format(self, capsys):
        code, out, _ = run(capsys, "encode", "--format", "hex", "1")
        assert code == 0
        assert out.strip() == "A0 80/9"

    def test_trim(self, capsys):
        code, out, _ = run(capsys, "encode", "--trim", "2")
        assert code == 0
        assert out.strip() == "10100001"

    def test_prefix_variant(self, capsys):
        code, out, _ = run(capsys, "encode", "--variant", "prefix", "1")
        assert code == 0
        assert out.strip() == "1010000010"

    def test_parse_error_exits_1(self, capsys):
        code, _, err = run(capsys, "encode", "not-a-number")
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize("exponent", ["9" * 5000, "-" + "9" * 5000])
    def test_huge_exponent_exits_1(self, capsys, exponent):
        code, out, err = run(capsys, "encode", "1e" + exponent)
        assert code == 1
        assert out == ""
        assert err == "error: exponent magnitude of 5000 digits exceeds limit 4294967296\n"

    def test_stdin_input(self, capsys, monkeypatch):
        feed(monkeypatch, "1\n2\n")
        code, out, _ = run(capsys, "encode")
        assert code == 0
        assert out.splitlines() == ["10 100 0001", "10 100 0010"]


class TestDecode:
    def test_worked_example(self, capsys):
        code, out, _ = run(
            capsys, "decode", "1011100110100000000010100000011000101011001"
        )
        assert code == 0
        assert out.strip() == "4005012345"

    def test_zero(self, capsys):
        code, out, _ = run(capsys, "decode", "10")
        assert code == 0
        assert out.strip() == "0"

    def test_spaced_input(self, capsys):
        code, out, _ = run(capsys, "decode", "00 00111 1000 1111001000")
        assert code == 0
        assert out.strip() == "-103.2"

    def test_decode_error_exits_2(self, capsys):
        code, _, err = run(capsys, "decode", "10011000001")
        assert code == 2
        assert "negative zero exponent" in err

    @pytest.mark.parametrize("variant", ["canonical", "prefix"])
    def test_exponent_over_the_limit_exits_2(self, capsys, variant):
        # A 20,000-bit exponent once leaked Python's int-to-str ValueError.
        bits = "10" + "1" * 20000 + "0" + "0" * 20000 + "0001" + "0" * (variant == "prefix")
        code, out, err = run(capsys, "decode", "--variant", variant, bits)
        assert code == 2
        assert out == ""
        assert err.startswith("decode error: exponent magnitude of 20000 bits exceeds limit")

    def test_hex_round_trip(self, capsys):
        code, out, _ = run(capsys, "decode", "--format", "hex", "A0 80/9")
        assert code == 0
        assert out.strip() == "1"

    def test_hex_without_length_is_usage_error(self, capsys):
        code, _, err = run(capsys, "decode", "--format", "hex", "A080")
        assert code == 1

    def test_prefix_stream(self, capsys):
        code, out, _ = run(capsys, "decode", "--variant", "prefix", "1010000010 10100 00100")
        assert code == 0
        assert out.splitlines() == ["1", "2"]

    def test_trim_round_trip(self, capsys):
        code, out, _ = run(capsys, "decode", "--trim", "10100001")
        assert code == 0
        assert out.strip() == "2"

    def test_fixed_decode_rejected(self, capsys):
        code, _, err = run(capsys, "decode", "--variant", "fixed:64", "00")
        assert code == 1
        assert err == "error: fixed-width keys are truncating; decoding is not supported\n"


class TestCmp:
    @pytest.mark.parametrize(
        "left,right,expected",
        [("1", "2", "<"), ("2", "2", "="), ("0.5", "-1000", ">"), ("-0", "0", "<")],
    )
    def test_cmp(self, capsys, left, right, expected, monkeypatch):
        code, out, _ = run(capsys, "cmp", "--", left, right)
        assert code == 0
        assert out.strip() == expected


class TestSort:
    def test_examples(self, capsys, monkeypatch):
        feed(monkeypatch, "10\n-1\n0.5\n0\n")
        code, out, _ = run(capsys, "sort")
        assert code == 0
        assert out.splitlines() == ["-1", "0", "0.5", "10"]

    def test_negative_pair(self, capsys, monkeypatch):
        feed(monkeypatch, "-0.0405\n-103.2\n")
        code, out, _ = run(capsys, "sort")
        assert code == 0
        assert out.splitlines() == ["-103.2", "-0.0405"]

    def test_duplicates_and_specials(self, capsys, monkeypatch):
        feed(monkeypatch, "INF\n1\n-INF\n1\nNaN\n-0\n0\n")
        code, out, _ = run(capsys, "sort")
        assert code == 0
        assert out.splitlines() == ["-INF", "-0", "0", "1", "1", "INF", "NaN"]

    def test_against_numeric_oracle(self, capsys, monkeypatch):
        import functools

        rng = random.Random(23)
        values = [random_finite(rng, max_digits=20, max_exponent=10**4) for _ in range(1000)]
        lines = [render_decimal(v) for v in values]
        feed(monkeypatch, "\n".join(lines) + "\n")
        code, out, _ = run(capsys, "sort")
        assert code == 0
        expected = sorted(values, key=functools.cmp_to_key(compare_numeric))
        assert out.splitlines() == [render_decimal(v) for v in expected]

    def test_bad_line_exits_1(self, capsys, monkeypatch):
        feed(monkeypatch, "1\nbogus\n")
        code, _, err = run(capsys, "sort")
        assert code == 1
        assert "line 2" in err


class TestBench:
    def test_tsv_shape(self, capsys):
        code, out, _ = run(capsys, "bench-size", "--max", "1e6", "--samples", "10")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "integer\tmeasured_bits\tlaw_bits\tapprox_bits\texponent_bits"
        assert len(lines) >= 5
        first = lines[1].split("\t")
        assert first[0] == "1"
        assert first[1] == "9"

    def test_max_accepts_scientific(self, capsys):
        code, out, _ = run(capsys, "bench-size", "--max", "1e40", "--samples", "5")
        assert code == 0
        assert out.splitlines()[-1].split("\t")[0] == str(10**40)

    def test_fractional_max_rejected(self, capsys):
        code, _, err = run(capsys, "bench-size", "--max", "1.5")
        assert code == 1

    def test_max_at_the_digit_bound(self, capsys):
        code, out, _ = run(capsys, "bench-size", "--max", "1e1000", "--samples", "2")
        assert code == 0
        assert out.splitlines()[-1].split("\t")[0] == str(10**1000)

    # Past the bound, and past the 4,300 digits int() converts from text.
    @pytest.mark.parametrize(
        "maximum", ["1e1001", "1" + "2" * 4999], ids=["1e1001", "5000-digits"]
    )
    def test_max_above_the_digit_bound_rejected(self, capsys, maximum):
        code, out, err = run(capsys, "bench-size", "--max", maximum)
        assert (code, out, err) == (1, "", "error: --max must have at most 1001 digits\n")

    def test_samples_at_the_bound(self, capsys):
        code, out, _ = run(capsys, "bench-size", "--max", "1e6", "--samples", str(BENCH_MAX_SAMPLES))
        assert code == 0
        assert out.splitlines()[-1].split("\t")[0] == str(10**6)

    def test_samples_above_the_bound_rejected(self, capsys):
        samples = str(BENCH_MAX_SAMPLES + 1)
        code, out, err = run(capsys, "bench-size", "--max", "1e1000", "--samples", samples)
        assert (code, out, err) == (1, "", "error: --samples must be at most 200\n")


class TestSelfTest:
    def test_pass(self, capsys):
        code, out, _ = run(capsys, "selftest", "--cases", "300", "--seed", "42")
        assert code == 0
        assert "PASS" in out

    def test_vacuous(self, capsys):
        code, out, _ = run(capsys, "selftest", "--cases", "0")
        assert code == 0
        assert "PASS (vacuous)" in out

    def test_negative_cases_is_usage_error(self, capsys):
        code, out, err = run(capsys, "selftest", "--cases", "-3")
        assert (code, out) == (1, "")
        assert err == "error: cases must be non-negative, not -3\n"


class TestUsage:
    def test_unknown_variant(self, capsys):
        code, _, err = run(capsys, "encode", "--variant", "bogus", "1")
        assert code == 1

    def test_bad_fixed_width(self, capsys):
        code, _, err = run(capsys, "encode", "--variant", "fixed:12", "1")
        assert code == 1

    def test_missing_command(self, capsys):
        code, _, err = run(capsys)
        assert code == 1

    def test_bad_bits_input(self, capsys):
        code, _, err = run(capsys, "decode", "10a1")
        assert code == 1

    def test_trim_only_applies_to_canonical(self, capsys):
        code, _, err = run(capsys, "encode", "--variant", "prefix", "--trim", "1")
        assert code == 1
        assert "canonical" in err


    @pytest.mark.parametrize("command", ["encode", "decode"])
    @pytest.mark.parametrize(
        "options, message",
        [
            (["--variant", "fixed:0"], "fixed width must be a positive multiple of 8"),
            (["--variant", "fixed:4"], "fixed width must be a positive multiple of 8"),
            (["--variant", "fixed:12"], "fixed width must be a positive multiple of 8"),
            (["--variant", "fixed:x"], "bad width in variant 'fixed:x'"),
            (["--variant", "prefix", "--trim"], "--trim applies to the canonical variant only"),
        ],
    )
    def test_variant_errors(self, capsys, command, options, message):
        code, out, err = run(capsys, command, *options, "10")
        assert (code, out, err) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "command, expected",
        [
            ("encode", "error: --trim applies to the canonical variant only\n"),
            ("decode", "error: fixed-width keys are truncating; decoding is not supported\n"),
        ],
    )
    def test_trim_with_fixed_width(self, capsys, command, expected):
        code, out, err = run(capsys, command, "--variant", "fixed:64", "--trim", "10")
        assert (code, out, err) == (1, "", expected)

    @pytest.mark.parametrize(
        "variant, expected",
        [
            ("canonical", "00 00111 1000 1111001000\n"),
            ("prefix", "00001111000111110010000\n"),
            ("fixed:64", "0F 1E 40 00 00 00 00 00/64\n"),
        ],
    )
    def test_variants_accepted(self, capsys, variant, expected):
        code, out, err = run(capsys, "encode", "--variant", variant, "--", "-103.2")
        assert (code, out, err) == (0, expected, "")


class TestRoundTrip:
    def test_encode_then_decode_text(self, capsys):
        rng = random.Random(8)
        for _ in range(50):
            value = random_finite(rng, max_digits=12, max_exponent=100)
            text = render_decimal(value)
            code, out, _ = run(capsys, "encode", "--", text)
            assert code == 0
            code, out, _ = run(capsys, "decode", out.strip())
            assert code == 0
            assert parse_decimal(out.strip()) == value
