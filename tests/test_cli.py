"""Command-line behaviour, run in process."""

import io
import os
import random
import subprocess
import sys
import timeit

import pytest
from hypothesis import given, settings

import hypothesis.strategies as st

import lexdec
from conformance import _run_cli
from lexdec.cli import BENCH_MAX_SAMPLES, FIXED_MAX_WIDTH, main
import lexdec.selftest
from lexdec.selftest import SelfTestResult, random_finite
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

    @pytest.mark.parametrize(
        "argv", [["--", "1", "--"], ["1", "--", "--"]], ids=["dashes-around", "dashes-after"]
    )
    def test_second_double_dash_is_a_usage_error(self, capsys, argv):
        # argparse hands such a right operand over as [], which once reached
        # parse_decimal and escaped as a TypeError.
        code, out, err = run(capsys, "cmp", *argv)
        assert (code, out) == (1, "")
        assert err == "error: the following arguments are required: right\n"


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

    # Lines count from the first, blank ones too, and a bad line that repeats
    # is reported where it first comes, past any repeats of good lines.
    @pytest.mark.parametrize(
        "text, number",
        [
            ("1\n2\n1\nbogus\n2\nbogus\n", 4),
            ("\n1\n\n\nbogus\n", 5),
            ("1\nbogus\n1\nbogus", 2),
        ],
        ids=["repeated", "after-blank-lines", "repeated-without-final-newline"],
    )
    def test_bad_line_reports_its_first_line_number(self, capsys, monkeypatch, text, number):
        feed(monkeypatch, text)
        expected = f"line {number}: expected digit (at position 0)\n"
        assert run(capsys, "sort") == (1, "", expected)

    def test_each_distinct_line_is_parsed_once(self, capsys, monkeypatch):
        parsed = []

        def counting(text, *args, **kwargs):
            parsed.append(text)
            return parse_decimal(text, *args, **kwargs)

        monkeypatch.setattr("lexdec.cli.parse_decimal", counting)
        feed(monkeypatch, "2\n1\n\n2\n 1\n1\n\n2\n")
        assert run(capsys, "sort") == (0, "1\n 1\n1\n2\n2\n2\n", "")
        assert parsed == ["2", "1", "1"]  # from "2", "1" and " 1"

    def test_last_line_that_repeats_gets_its_newline(self, capsys, monkeypatch):
        feed(monkeypatch, "3\n1\n3")
        assert run(capsys, "sort") == (0, "1\n3\n3\n", "")

    def test_padded_lines_come_out_verbatim(self, capsys, monkeypatch):
        feed(monkeypatch, "  2 \n\t-1\t\n 0.5\n")
        assert run(capsys, "sort") == (0, "\t-1\t\n 0.5\n  2 \n", "")

    def test_blank_lines_are_skipped(self, capsys, monkeypatch):
        feed(monkeypatch, "\n2\n   \n\t\n1\n\n")
        assert run(capsys, "sort") == (0, "1\n2\n", "")

    @pytest.mark.parametrize(
        "spellings",
        [
            ["1", "1.0", "10e-1", "1e0"],
            ["1e0", "10e-1", "1.0", "1"],
            ["1", "1.0", "1", "1.0"],
            [" 1", "1", "1 ", " 1", "1"],
        ],
    )
    def test_equal_values_keep_their_input_order(self, capsys, monkeypatch, spellings):
        feed(monkeypatch, "\n".join(["2", *spellings, "0.5"]) + "\n")
        assert run(capsys, "sort") == (0, "\n".join(["0.5", *spellings, "2"]) + "\n", "")

    def test_empty_input_gives_empty_output(self, capsys, monkeypatch):
        feed(monkeypatch, "")
        assert run(capsys, "sort") == (0, "", "")

    @pytest.mark.parametrize("repeated", [False, True], ids=["distinct", "repeated"])
    def test_time_grows_near_linearly(self, monkeypatch, repeated):
        # A ratio of two timings on one machine, not a wall-clock bound:
        # 8 times the lines take about 8 times as long, 64 times if each
        # line costs time in the number of lines.
        def best_of_3(count):
            if repeated:
                text = "-1.5e3\n" * count
            else:
                text = "".join([f"{i}.{i % 7}e-{i % 11}\n" for i in range(count)])

            def sort():
                monkeypatch.setattr("sys.stdin", io.StringIO(text))
                monkeypatch.setattr("sys.stdout", io.StringIO())
                assert main(["sort"]) == 0

            return min(timeit.repeat(sort, number=1, repeat=3))

        assert best_of_3(16_000) / best_of_3(2_000) < 20

    def test_crlf_lines_from_a_real_stdin(self):
        # A real stdin, not io.StringIO: the interpreter's own newline
        # handling is part of what `lexdec sort` prints.
        src = os.path.dirname(os.path.dirname(lexdec.__file__))
        child = subprocess.run(
            [sys.executable, "-m", "lexdec.cli", "sort"],
            input=b"10\r\n-1\r\n 0.5\r\n\r\n2",
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            timeout=60,
        )
        assert (child.returncode, child.stdout, child.stderr) == (
            0,
            b"-1\r\n 0.5\r\n2\n10\r\n",
            b"",
        )


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

    def test_negative_samples_is_usage_error(self, capsys):
        # It once printed the header and exited 0.
        code, out, err = run(capsys, "bench-size", "--max", "1e6", "--samples", "-3")
        assert (code, out, err) == (1, "", "error: --samples must be non-negative, not -3\n")

    def test_zero_samples_prints_only_the_header(self, capsys):
        code, out, _ = run(capsys, "bench-size", "--max", "1e6", "--samples", "0")
        assert (code, out) == (0, "integer\tmeasured_bits\tlaw_bits\tapprox_bits\texponent_bits\n")


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

    def test_failure_prints_it_and_exits_3(self, capsys, monkeypatch):
        failed = SelfTestResult(passed=False, cases=5, failures=["round-trip violated for: 1"])
        monkeypatch.setattr(lexdec.selftest, "run_selftest", lambda cases, seed: failed)
        code, out, err = run(capsys, "selftest", "--cases", "5", "--seed", "7")
        assert (code, err) == (3, "")
        assert out == "self-test: cases=5 seed=7\nround-trip violated for: 1\nFAIL\n"

    def test_importing_the_cli_leaves_selftest_and_bench_unloaded(self):
        # A fresh interpreter compiles every module it imports; only their
        # own subcommands load these two.
        code = (
            "import sys, lexdec.cli\n"
            "print('lexdec.selftest' in sys.modules, 'lexdec.bench' in sys.modules)"
        )
        src = os.path.dirname(os.path.dirname(lexdec.__file__))
        child = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert (child.returncode, child.stdout, child.stderr) == (0, "False False\n", "")


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
            (
                ["--variant", f"fixed:{FIXED_MAX_WIDTH + 8}"],
                f"fixed width must be at most {FIXED_MAX_WIDTH} bits",
            ),
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

    def test_widest_fixed_key(self, capsys):
        code, out, err = run(capsys, "encode", "--variant", f"fixed:{FIXED_MAX_WIDTH}", "1")
        assert (code, err) == (0, "")
        assert out == "A0 80" + " 00" * (FIXED_MAX_WIDTH // 8 - 2) + f"/{FIXED_MAX_WIDTH}\n"


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


# Numeral, bit and hex characters. There is no "h", so no word is taken for
# --help, whose SystemExit is argparse's and not a run's outcome.
_WORD_CHARS = "0123456789abcdefABCDEF.eE+-/ _xINFNn:"
_OPTIONS = {
    "encode": [
        "--variant", "canonical", "prefix", "fixed:64", "fixed:8", "fixed:12", "fixed:x",
        "--trim", "--format", "bits", "hex", "--",
    ],
    "decode": [
        "--variant", "canonical", "prefix", "fixed:64", "--trim", "--format", "bits", "hex",
        "--", "A1 00/9", "10 100 0001", "1010000010",
    ],
    "cmp": ["--", "1e3", "-0", "NaN"],
    "sort": [],
}


@st.composite
def cli_argv(draw):
    """A subcommand with its real options mixed with random words; selftest and
    bench-size only with small counts, which random words could not bound."""
    command = draw(st.sampled_from([*_OPTIONS, "selftest", "bench-size"]))
    if command == "selftest":
        options = ["--cases", str(draw(st.integers(-2, 20))), "--seed", str(draw(st.integers()))]
    elif command == "bench-size":
        maximum = draw(st.sampled_from(["1e40", "9" * 1001, "1e1001", "-5", "1.5", "x"]))
        options = ["--max", maximum, "--samples", str(draw(st.integers(-3, 8)))]
    else:
        word = st.one_of(st.sampled_from(_OPTIONS[command] or [""]), st.text(_WORD_CHARS, max_size=16))
        return [command, *draw(st.lists(word, max_size=6))]
    return [command, *options]


@settings(max_examples=200, deadline=None)
@given(cli_argv(), st.one_of(st.text(max_size=60), st.text(_WORD_CHARS + "\n", max_size=60)))
def test_fuzzed_runs_exit_with_a_documented_code(argv, stdin):
    code, _, err = _run_cli(argv, stdin)  # an exception that escapes main fails the test
    assert code in (0, 1, 2), (argv, stdin, code, err)


_VARIANTS = (
    [],
    ["--trim"],
    ["--variant", "prefix"],
    ["--variant", "prefix", "--trim"],
    ["--variant", "fixed:64"],
)


@st.composite
def hex_decode_runs(draw):
    """``decode --format hex`` on arbitrary bytes, as an argument or a stdin
    line, with a bit length that fits them, is negative, runs past them or
    has more digits than int() converts."""
    data = draw(st.binary(max_size=48))
    value = int.from_bytes(data, "big")
    zeros = (value & -value).bit_length() - 1 if value else 8 * len(data)  # trailing
    length = draw(
        st.one_of(
            st.integers(8 * len(data) - min(zeros, 7), 8 * len(data)),  # only 0s cut off
            st.integers(0, 8 * len(data)),
            st.integers(-100, -1),
            st.integers(8 * len(data) + 1, 8 * len(data) + 100),
            st.just("9" * 5000),
        )
    )
    body = data.hex(" ") if draw(st.booleans()) else data.hex().upper()
    line = f"{body}/{length}"
    argv = ["decode", "--format", "hex", *draw(st.sampled_from(_VARIANTS))]
    if draw(st.booleans()):
        return [*argv, "--", line], ""
    return argv, line + "\n"


@settings(max_examples=300, deadline=None)
@given(hex_decode_runs())
def test_fuzzed_hex_bytes_exit_with_a_documented_code(run_args):
    argv, stdin = run_args
    code, _, err = _run_cli(argv, stdin)  # an exception that escapes main fails the test
    assert code in (0, 1, 2), (argv, stdin, code, err)
