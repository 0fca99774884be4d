"""Command-line front end: encode, decode, cmp, sort, bench-size, selftest.

Exit codes: 0 success, 1 usage or numeral parse error, 2 decode error,
3 self-test failure.
"""

from __future__ import annotations

import argparse
import sys

from .bits import BitString, lex_compare
from .codec import (
    DECLET_BITS,
    TETRADE_BITS,
    decode,
    decode_prefix_free_stream,
    encode,
    encode_prefix_free,
    exponent_field_length,
    fixed_width_key,
)
from .decimal_values import Kind, parse_decimal, render_decimal
from .errors import DecodeError, ExponentLimitError, ParseError
from .selftest import run_selftest

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DECODE = 2
EXIT_SELFTEST = 3

BENCH_MAX_DIGITS = 1001
BENCH_MAX_SAMPLES = 200  # twice the default; sampling time grows faster than samples**2


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _parse_variant(text: str) -> int | None:
    """The key width of a ``fixed:<bits>`` variant; ``None`` for the others."""
    if text in ("canonical", "prefix"):
        return None
    if text.startswith("fixed:"):
        try:
            width = int(text.split(":", 1)[1])
        except ValueError:
            raise _UsageError(f"bad width in variant {text!r}")
        if width < 8 or width % 8:
            raise _UsageError("fixed width must be a positive multiple of 8")
        return width
    raise _UsageError(f"unknown variant {text!r} (canonical | prefix | fixed:<bits>)")


def _build_parser() -> _Parser:
    parser = _Parser(prog="lexdec", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    encode_p = sub.add_parser("encode", help="encode decimal numerals")
    encode_p.add_argument("values", nargs="*", help="numerals; stdin lines if omitted")
    encode_p.add_argument("--variant", default="canonical")
    encode_p.add_argument("--trim", action="store_true", help="strip trailing zero bits")
    encode_p.add_argument("--format", choices=("bits", "hex"), default="bits")

    decode_p = sub.add_parser("decode", help="decode bit strings")
    decode_p.add_argument("inputs", nargs="*", help="encodings; stdin lines if omitted")
    decode_p.add_argument("--variant", default="canonical")
    decode_p.add_argument("--trim", action="store_true")
    decode_p.add_argument("--format", choices=("bits", "hex"), default="bits")

    cmp_p = sub.add_parser("cmp", help="compare two numerals via their encodings")
    cmp_p.add_argument("left")
    cmp_p.add_argument("right")

    sub.add_parser("sort", help="sort stdin numerals by encoded order")

    bench_p = sub.add_parser("bench-size", help="encoded sizes of log-spaced integers")
    bench_p.add_argument("--max", default="1e40", help="largest integer (numeral)")
    bench_p.add_argument("--samples", type=int, default=100)

    selftest_p = sub.add_parser("selftest", help="run the randomized property suite")
    selftest_p.add_argument("--cases", type=int, default=10000)
    selftest_p.add_argument("--seed", type=int, default=42)

    return parser


def _input_values(args_values: list[str]) -> list[str]:
    if args_values:
        return args_values
    return [line.strip() for line in sys.stdin if line.strip()]


def _group_bits(value, bits: BitString) -> str:
    """Space the fields of an untrimmed canonical encoding for readability."""
    text = bits.to_text()
    if value.kind is not Kind.FINITE:
        return text
    width = 2 + exponent_field_length(value.form.exponent)  # sign header and exponent field
    cuts = [0, 2, width, *range(width + TETRADE_BITS, len(text) + 1, DECLET_BITS)]
    return " ".join(text[a:b] for a, b in zip(cuts, cuts[1:]))


def _hex_text(data: bytes, bit_length: int) -> str:
    return " ".join(f"{b:02X}" for b in data) + f"/{bit_length}"


def _bits_from_hex(text: str) -> BitString:
    body, _, length_text = text.partition("/")
    if not length_text:
        raise ValueError("hex input needs an explicit bit length, e.g. 'A1 00/9'")
    data = bytes.fromhex(body.replace(" ", ""))
    return BitString.from_bytes(data, int(length_text))


def _cmd_encode(args) -> int:
    width = _parse_variant(args.variant)
    prefix = args.variant == "prefix"
    if args.trim and args.variant != "canonical":
        raise _UsageError("--trim applies to the canonical variant only")
    for text in _input_values(args.values):
        value = parse_decimal(text)
        if width is not None:
            key = fixed_width_key(value, width)
            print(_hex_text(key.data, key.width_bits))
            continue
        bits = encode_prefix_free(value) if prefix else encode(value, trim=args.trim)
        if args.format == "hex":
            print(_hex_text(*bits.to_bytes()))
        elif args.trim or prefix:
            print(bits.to_text())
        else:
            print(_group_bits(value, bits))
    return EXIT_OK


def _cmd_decode(args) -> int:
    if _parse_variant(args.variant) is not None:
        raise _UsageError("fixed-width keys are truncating; decoding is not supported")
    if args.trim and args.variant != "canonical":
        raise _UsageError("--trim applies to the canonical variant only")
    for text in _input_values(args.inputs):
        bits = _bits_from_hex(text) if args.format == "hex" else BitString(text)
        try:
            if args.variant == "prefix":
                values = decode_prefix_free_stream(bits)
            else:
                values = [decode(bits, trim=args.trim)]
        except ExponentLimitError as exc:
            print(f"decode error: {exc}", file=sys.stderr)
            return EXIT_DECODE
        for value in values:
            print(render_decimal(value))
    return EXIT_OK


def _cmd_cmp(args) -> int:
    left = encode(parse_decimal(args.left))
    right = encode(parse_decimal(args.right))
    print({-1: "<", 0: "=", 1: ">"}[lex_compare(left, right)])
    return EXIT_OK


def _cmd_sort(args) -> int:
    lines = [line.rstrip("\n") for line in sys.stdin]
    entries = []
    for number, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            value = parse_decimal(line.strip())
        except (ParseError, ExponentLimitError) as exc:
            print(f"line {number}: {exc}", file=sys.stderr)
            return EXIT_USAGE
        # Sorting key is the encoding alone; '0'/'1' text comparison is
        # exactly the full lexicographic bit order.
        entries.append((encode(value).to_text(), line))
    entries.sort(key=lambda pair: pair[0])
    for _, line in entries:
        print(line)
    return EXIT_OK


def _cmd_bench_size(args) -> int:
    from .bench import decimal_to_int, size_rows

    if args.samples > BENCH_MAX_SAMPLES:
        raise _UsageError(f"--samples must be at most {BENCH_MAX_SAMPLES}")
    maximum = parse_decimal(args.max, max_exponent=10**6)
    if maximum.kind is not Kind.FINITE or maximum.form.sign < 0:
        raise _UsageError("--max must be a positive integer")
    # Sampling cost grows fast with the digit count, and int() refuses text
    # past 4,300 digits, so the bound is checked before any conversion.
    if maximum.form.signed_exponent >= BENCH_MAX_DIGITS:
        raise _UsageError(f"--max must have at most {BENCH_MAX_DIGITS} digits")
    try:
        max_int = decimal_to_int(maximum)
    except ValueError:
        raise _UsageError("--max must be a positive integer")
    print("integer\tmeasured_bits\tlaw_bits\tapprox_bits\texponent_bits")
    for row in size_rows(max_int, args.samples):
        print(
            f"{row.value}\t{row.measured_bits}\t{row.law_bits}"
            f"\t{row.approx_bits:.2f}\t{row.exponent_bits}"
        )
    return EXIT_OK


def _cmd_selftest(args) -> int:
    result = run_selftest(args.cases, args.seed)
    print(f"self-test: cases={args.cases} seed={args.seed}")
    if result.vacuous:
        print("PASS (vacuous)")
        return EXIT_OK
    if result.passed:
        print("PASS")
        return EXIT_OK
    for failure in result.failures:
        print(failure)
    print("FAIL")
    return EXIT_SELFTEST


_COMMANDS = {
    "encode": _cmd_encode,
    "decode": _cmd_decode,
    "cmp": _cmd_cmp,
    "sort": _cmd_sort,
    "bench-size": _cmd_bench_size,
    "selftest": _cmd_selftest,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except (_UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DecodeError as exc:
        print(f"decode error: {exc}", file=sys.stderr)
        return EXIT_DECODE


if __name__ == "__main__":
    sys.exit(main())
