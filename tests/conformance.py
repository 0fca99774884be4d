"""Conformance digest: what the library does, fixed as SHA-256 digests.

Each category runs a corpus from this file's own seeded generators through
the public API, or through the field adapters that ``perfbench`` times, and
records one line per case: what came out, or the error's
type, kind, position and message. ``conformance.json`` keeps one digest per
category and one per chunk of 1,000 cases, and ``test_conformance.py``
recomputes them. A change that means to alter behaviour rewrites the file
and names every intended difference.

The generators use only ``random.Random`` and this file's own rules, never
the library's helpers, so the corpus stays put when the library moves.

Usage::

    PYTHONPATH=src python tests/conformance.py --dump <category> <chunk>  # print its lines
    PYTHONPATH=src python tests/conformance.py --dump <category> all  # every line
    PYTHONPATH=src python tests/conformance.py --write  # rewrite conformance.json

To see what changed, dump the first chunk that differs here and at the
parent commit, and diff the two. ``--cases N --seed S`` make ``--dump`` build
a corpus of N cases from the category's generator under seed S, to compare a
larger corpus than the committed one across two trees; without them it
builds the committed corpus. The CLI runs and the wrong-type calls are fixed
lists.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import operator
import random
import sys
from pathlib import Path

from lexdec import (
    NAN,
    NEGATIVE_INFINITY,
    NEGATIVE_ZERO,
    POSITIVE_INFINITY,
    POSITIVE_ZERO,
    BitString,
    DecimalValue,
    DecodeError,
    DecodeErrorKind,
    ExponentLimitError,
    ExponentSign,
    KeyWidthError,
    Kind,
    ParseError,
    ScientificForm,
    Sign,
    canonical_bit_length,
    compare_numeric,
    decode,
    decode_prefix_free_stream,
    encode,
    encode_prefix_free,
    fixed_width_key,
    lex_compare,
    parse_decimal,
    render_decimal,
)
from lexdec import cli
from lexdec.codec import BitCursor, decode_exponent, decode_significand

DIGEST_FILE = Path(__file__).with_name("conformance.json")
CHUNK = 1000
DIGITS = "0123456789"
SPECIALS = (NEGATIVE_INFINITY, NEGATIVE_ZERO, POSITIVE_ZERO, POSITIVE_INFINITY, NAN)


def _outcome(call, *args, **kwargs) -> str:
    """``call``'s result as text, or its error's type, kind, position and message."""
    try:
        return str(call(*args, **kwargs))
    except Exception as exc:  # every outcome is recorded, expected or not
        kind = getattr(exc, "kind", None)
        kind = kind.name if kind is not None else ""
        return f"!{type(exc).__name__}:{kind}:{getattr(exc, 'position', '')}:{exc}"


def _rng(category: str, seed: str | None) -> random.Random:
    """The category's generator; no ``seed`` gives the committed corpus."""
    return random.Random(f"conformance:{category}" + ("" if seed is None else f":{seed}"))


def _digits(rng: random.Random, count: int) -> str:
    """Canonical digit text: first and last digits non-zero."""
    if count == 1:
        return str(rng.randint(1, 9))
    middle = "".join(rng.choices(DIGITS, k=count - 2))
    return f"{rng.randint(1, 9)}{middle}{rng.randint(1, 9)}"


def _value(rng: random.Random) -> DecimalValue:
    """A special, or a finite value of 1-60 or about 1,000 digits with
    |e| < 10**6, in all four sign pairs."""
    roll = rng.random()
    if roll < 0.03:
        return rng.choice(SPECIALS)
    count = rng.randint(990, 1010) if roll < 0.05 else rng.randint(1, 60)
    exponent = rng.randrange(10 ** rng.randint(0, 6))
    exponent_sign = rng.choice(tuple(ExponentSign)) if exponent else ExponentSign.NON_NEGATIVE
    form = ScientificForm(rng.choice(tuple(Sign)), exponent_sign, exponent, _digits(rng, count))
    return DecimalValue.finite(form)


def _key(value: DecimalValue, width: int) -> str:
    return fixed_width_key(value, width).hex()


def encodings(cases: int = 6000, seed: str | None = None) -> list[str]:
    """Every encoder on each value, and both orders against the previous value."""
    rng = _rng("encodings", seed)
    lines = []
    previous = POSITIVE_ZERO
    for _ in range(cases):
        value = _value(rng)
        canonical = encode(value)
        lines.append(
            repr(
                (
                    render_decimal(value),
                    canonical.to_text(),
                    encode(value, trim=True).to_text(),
                    encode_prefix_free(value).to_text(),
                    _outcome(_key, value, 64),
                    _outcome(_key, value, 16),
                    canonical_bit_length(value),
                    lex_compare(encode(previous), canonical),
                    compare_numeric(previous, value),
                )
            )
        )
        previous = value
    return lines


def _shaped(rng: random.Random, continued: bool) -> str:
    """Bits laid out like an encoding, with fields that are often out of range:
    a header, an exponent run and payload, a tetrade and declets."""
    run = rng.randint(1, 12) if rng.random() < 0.9 else rng.randint(28, 34)
    lead = rng.choice("01")
    header = rng.choice(("00", "10")) if rng.random() < 0.9 else rng.choice(("01", "11"))
    parts = [header, lead * run, "1" if lead == "0" else "0"]
    parts.append("".join(rng.choices("01", k=run)))
    parts.append(format(rng.randrange(10) if rng.random() < 0.9 else rng.randrange(16), "04b"))
    for _ in range(rng.randint(0, 6)):
        declet = rng.randrange(1000) if rng.random() < 0.95 else rng.randrange(1000, 1024)
        parts.append(("1" if continued else "") + format(declet, "010b"))
    if continued:
        parts.append("0")
    return "".join(parts)


def _bit_text(rng: random.Random) -> str:
    """Random bits, long runs of one bit, or shaped fields cut, extended or flipped."""
    roll = rng.random()
    if roll < 0.15:
        return "".join(rng.choices("01", k=rng.randint(0, 40)))
    if roll < 0.25:
        longest = 20_000 if rng.random() < 0.1 else 400
        return "".join(rng.choice("01") * rng.randint(1, longest) for _ in range(rng.randint(1, 4)))
    continued = rng.random() < 0.4
    text = "".join(_shaped(rng, continued) for _ in range(rng.randint(1, 3 if continued else 1)))
    mutation = rng.random()
    if mutation < 0.2 and text:
        text = text[: rng.randrange(len(text))]
    elif mutation < 0.35:
        text += "".join(rng.choices("01", k=rng.randint(1, 12)))
    elif mutation < 0.5 and text:
        i = rng.randrange(len(text))
        text = text[:i] + ("1" if text[i] == "0" else "0") + text[i + 1 :]
    return text


def _stream(bits: BitString) -> str:
    return ",".join(render_decimal(value) for value in decode_prefix_free_stream(bits))


def decodings(cases: int = 10_000, seed: str | None = None) -> list[str]:
    """Each bit string read in all three framings."""
    rng = _rng("decodings", seed)
    lines = []
    for _ in range(cases):
        bits = BitString(_bit_text(rng))
        lines.append(
            repr(
                (
                    len(bits),
                    hashlib.sha256(bits.to_text().encode()).hexdigest()[:16],
                    _outcome(lambda: render_decimal(decode(bits))),
                    _outcome(lambda: render_decimal(decode(bits, trim=True))),
                    _outcome(_stream, bits),
                )
            )
        )
    return lines


def _from_bytes(data: bytes, bit_length: int) -> str:
    bits = BitString.from_bytes(data, bit_length)
    return f"{bits.to_text()} {_outcome(lambda: render_decimal(decode(bits)))}"


def from_bytes(cases: int = 3000, seed: str | None = None) -> list[str]:
    """Bit strings packed with zero padding, and random bytes and bit lengths."""
    rng = _rng("from_bytes", seed)
    lines = []
    for _ in range(cases):
        if rng.random() < 0.5:
            text = _bit_text(rng)
            bit_length = len(text)
            data = (int(text or "0", 2) << -bit_length % 8).to_bytes((bit_length + 7) // 8, "big")
        else:
            data = bytes(rng.choices(range(256), k=rng.randint(0, 12)))
            bit_length = rng.randint(-2, 8 * len(data) + 3)
        lines.append(repr((data.hex(), bit_length, _outcome(_from_bytes, data, bit_length))))
    return lines


_FLIP = str.maketrans("01", "10")


def _exponent_text(exponent: int) -> str:
    """The exponent field by the layout's rule: for k = e+2 of N bits, N-1
    ones, a zero, then k without its leading one."""
    k = format(exponent + 2, "b")
    return "1" * (len(k) - 1) + "0" + k[1:]


def _adapter_bits(rng: random.Random) -> tuple[str, int]:
    """Bits laid out like a finite encoding, often cut, flipped or extended,
    or random bits; and where the exponent field ends (a random position in
    random bits)."""
    if rng.random() < 0.15:
        text = "".join(rng.choices("01", k=rng.randint(0, 40)))
        return text, rng.randint(0, len(text))
    field = _exponent_text(rng.randrange(10 ** rng.randint(0, 6)))
    if rng.random() < 0.5:
        field = field.translate(_FLIP)
    parts = [rng.choice(("00", "10")), field]
    parts.append(format(rng.randrange(10) if rng.random() < 0.9 else rng.randrange(16), "04b"))
    for _ in range(rng.randint(0, 6) if rng.random() < 0.9 else rng.randint(60, 140)):
        declet = rng.randrange(1000) if rng.random() < 0.95 else rng.randrange(1000, 1024)
        parts.append(format(declet, "010b"))
    text = "".join(parts)
    mutation = rng.random()
    if mutation < 0.2:
        text = text[: rng.randrange(len(text))]
    elif mutation < 0.3:
        text += "".join(rng.choices("01", k=rng.randint(1, 12)))
    elif mutation < 0.4:
        text += "0" * rng.randint(1, 9)
    elif mutation < 0.55:
        i = rng.randrange(len(text))
        text = text[:i] + text[i].translate(_FLIP) + text[i + 1 :]
    return text, 2 + len(field)


def _read_exponent_at(bits: BitString, position: int) -> str:
    """The exponent, whether the field was flipped (its sign is negative),
    the field's bits by the layout's rule, and the cursor's end."""
    cursor = BitCursor(bits, position)
    exponent_sign, exponent = decode_exponent(cursor)
    inverted = exponent_sign is ExponentSign.NEGATIVE
    field = _exponent_text(exponent)
    return f"{exponent} {inverted} {field.translate(_FLIP) if inverted else field} @{cursor.position}"


def _read_significand_at(bits: BitString, position: int, negative: bool) -> str:
    cursor = BitCursor(bits, position)
    return f"{decode_significand(cursor, negative)} @{cursor.position}"


def adapters(cases: int = 2000, seed: str | None = None) -> list[str]:
    """``decode_exponent`` and ``decode_significand`` (both signs) on each bit
    string at cursor positions 0-8 and just after its exponent field: the
    result and the cursor's end. A case is a bit string; it gives a line per
    position."""
    rng = _rng("adapters", seed)
    lines = []
    for _ in range(cases):
        text, field_end = _adapter_bits(rng)
        bits = BitString(text)
        shown = hashlib.sha256(text.encode()).hexdigest()[:16]
        for position in sorted({*range(9), field_end}):
            if position > len(bits):
                break
            outcomes = (
                _outcome(_read_exponent_at, bits, position),
                _outcome(_read_significand_at, bits, position, False),
                _outcome(_read_significand_at, bits, position, True),
            )
            lines.append(repr((len(bits), shown, position, *outcomes)))
    return lines


_NUMERAL_FRAGMENTS = (
    "0", "00", "1", "9", "12", "007", ".", "..", "e", "E", "-", "+", "--", "e-", "E+",
    "INF", "inf", "Infinity", "NaN", "nan", "٣", "_", " ", "\t", "0x1", "1e", "x",
)


def _numeral(rng: random.Random) -> str:
    """Numeral-shaped text: signs, digits, point and exponent, often broken."""
    roll = rng.random()
    if roll < 0.25:
        return "".join(rng.choices(_NUMERAL_FRAGMENTS, k=rng.randint(0, 5)))
    parts = [rng.choice(("", "", "-", "+"))]
    parts.append("".join(rng.choices(DIGITS, k=rng.randint(0, 20))))
    if rng.random() < 0.5:
        parts.append("." + "".join(rng.choices(DIGITS, k=rng.randint(0, 20))))
    if rng.random() < 0.5:
        parts.append(rng.choice("eE") + rng.choice(("", "-", "+")))
        length = rng.randint(0, 8) if rng.random() < 0.95 else rng.choice((12, 40, 5000))
        parts.append("".join(rng.choices(DIGITS, k=length)))
    text = "".join(parts)
    if roll < 0.4 and text:
        i = rng.randrange(len(text) + 1)
        text = text[:i] + rng.choice(_NUMERAL_FRAGMENTS) + text[i:]
    return text


def parses(cases: int = 10_000, seed: str | None = None) -> list[str]:
    """Fuzzed numeral text through ``parse_decimal`` and back through rendering."""
    rng = _rng("parses", seed)
    lines = []
    for _ in range(cases):
        text = _numeral(rng)
        limit = 100 if rng.random() < 0.1 else None
        options = {} if limit is None else {"max_exponent": limit}
        shown = text if len(text) < 100 else hashlib.sha256(text.encode()).hexdigest()[:16]
        outcome = _outcome(lambda: render_decimal(parse_decimal(text, **options)))
        lines.append(repr((shown, limit, outcome)))
    return lines


CLI_RUNS = (
    (["encode", "--", "1.032e2", "-0.0405", "0", "-0", "INF", "-INF", "NaN"], ""),
    (["encode", "--trim", "--", "15", "-15", "1e-9"], ""),
    (["encode", "--variant", "prefix", "--", "4005012345", "-1.5"], ""),
    (["encode", "--variant", "fixed:64", "--", "3.14159", "-2e300"], ""),
    (["encode", "--variant", "fixed:8", "1e999999"], ""),
    (["encode", "--format", "hex", "--", "7.07106", "-0"], ""),
    (["encode"], "1\n\n  -2.5  \n1e5\n"),
    (["encode", "1..2"], ""),
    (["encode", "1e99999999999"], ""),
    (["encode", "--variant", "prefix", "--trim", "1"], ""),
    (["encode", "--variant", "fixed:12", "1"], ""),
    (["encode", "--variant", "fixed:x", "1"], ""),
    (["encode", "--variant", "other", "1"], ""),
    (["decode", "00 00111 1000 1111001000", "10 100 0001", "111", "01"], ""),
    (["decode", "--trim", "10100001001"], ""),
    (["decode", "--format", "hex", "A1 00/9"], ""),
    (["decode", "--format", "hex", "A1 00"], ""),
    (["decode", "--variant", "prefix", "00001111000111110010000" "01" "111"], ""),
    (["decode", "--variant", "fixed:64", "1"], ""),
    (["decode", "10 1111 0 1010"], ""),
    (["decode", "10 100 1111"], ""),
    (["decode", "1" * 40], ""),
    (["decode", "10 12"], ""),
    (["decode", "10" + "1" * 33 + "0" + "0" * 33 + "0001"], ""),
    (["decode", "--variant", "prefix", "10 100 0001 1 1111101000"], ""),
    (["decode", "--format", "hex", "80/9"], ""),
    (["decode"], "10 100 0001\n01\n"),
    (["cmp", "-0", "0"], ""),
    (["cmp", "1e3", "999"], ""),
    (["cmp", "NaN", "INF"], ""),
    (["cmp", "1", "one"], ""),
    (["sort"], "3\n-1\n\n1e2\n-0\n0\nNaN\n-INF\n2.50\n"),
    (["sort"], "1\nnot a number\n"),
    (["bench-size", "--max", "1e12", "--samples", "7"], ""),
    (["bench-size", "--max", "1e2000"], ""),
    (["bench-size", "--samples", "201"], ""),
    (["bench-size", "--max", "-5"], ""),
    (["bench-size", "--max", "1.5"], ""),
    (["selftest", "--cases", "40", "--seed", "7"], ""),
    (["selftest", "--cases", "0"], ""),
    ([], ""),
)


def _run_cli(argv: list[str], stdin: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def cli_runs() -> list[str]:
    """``cli.main`` on each run above: exit code, stdout and stderr."""
    return [repr((argv, stdin, _run_cli(argv, stdin))) for argv, stdin in CLI_RUNS]


_FORM = ScientificForm(Sign.NEGATIVE, ExponentSign.NON_NEGATIVE, 3, "15")
_VALUE = DecimalValue.finite(_FORM)
_BITS = encode(_VALUE)

# Each public function and constructor with arguments that work. The
# ``type_errors`` category calls each once so, then once with each argument,
# positional or keyword, replaced by each of the wrong values below.
_SIGNATURES = (
    ("BitString", BitString, ("101",), {}),
    ("BitString.from_bytes", BitString.from_bytes, (b"\x80", 1), {}),
    ("BitString.__add__", operator.add, (_BITS, _BITS), {}),
    ("lex_compare", lex_compare, (_BITS, _BITS), {}),
    ("Sign", Sign, (-1,), {}),
    ("ExponentSign", ExponentSign, (1,), {}),
    ("Kind", Kind, ("nan",), {}),
    ("ScientificForm", ScientificForm, (Sign.NEGATIVE, ExponentSign.NON_NEGATIVE, 3, "15"), {}),
    ("DecimalValue", DecimalValue, (Kind.FINITE, _FORM), {}),
    ("DecimalValue.finite", DecimalValue.finite, (_FORM,), {}),
    ("parse_decimal", parse_decimal, ("-1.5e3",), {"max_exponent": 10**6}),
    ("render_decimal", render_decimal, (_VALUE,), {}),
    ("compare_numeric", compare_numeric, (_VALUE, _VALUE), {}),
    ("canonical_bit_length", canonical_bit_length, (_VALUE,), {}),
    ("encode", encode, (_VALUE,), {"trim": False}),
    ("encode_prefix_free", encode_prefix_free, (_VALUE,), {}),
    ("fixed_width_key", fixed_width_key, (_VALUE, 64), {}),
    ("decode", decode, (_BITS,), {"trim": False, "max_exponent": 10**6}),
    (
        "decode_prefix_free_stream",
        decode_prefix_free_stream,
        (encode_prefix_free(_VALUE),),
        {"max_exponent": 10**6},
    ),
    ("DecodeErrorKind", DecodeErrorKind, ("truncated input",), {}),
    ("DecodeError", DecodeError, (DecodeErrorKind.TRUNCATED_INPUT, 3), {}),
    ("ParseError", ParseError, ("expected digit", 3), {}),
    ("ExponentLimitError", ExponentLimitError, (5, 4), {}),
    ("KeyWidthError", KeyWidthError, ("too narrow",), {}),
)
_WRONG = (None, True, 2.5, float("inf"), "16", b"\x80", [16], 16)


def type_errors() -> list[str]:
    """Each call in ``_SIGNATURES``, as given and with each argument of a wrong type."""
    lines = []
    for name, call, args, kwargs in _SIGNATURES:
        lines.append(repr((name, None, None, _outcome(call, *args, **kwargs))))
        for i in range(len(args)):
            for wrong in _WRONG:
                changed = args[:i] + (wrong,) + args[i + 1 :]
                lines.append(repr((name, i, repr(wrong), _outcome(call, *changed, **kwargs))))
        for key in kwargs:
            for wrong in _WRONG:
                changed = {**kwargs, key: wrong}
                lines.append(repr((name, key, repr(wrong), _outcome(call, *args, **changed))))
    return lines


CATEGORIES = {
    "encodings": encodings,
    "decodings": decodings,
    "from_bytes": from_bytes,
    "parses": parses,
    "adapters": adapters,
    "cli": cli_runs,
    "type_errors": type_errors,
}


def _sha256(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def digests(lines: list[str]) -> dict:
    """The category's digest, its case count and one digest per chunk."""
    chunks = [_sha256(lines[i : i + CHUNK]) for i in range(0, len(lines), CHUNK)]
    return {"digest": _sha256(lines), "cases": len(lines), "chunks": chunks}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    action = parser.add_mutually_exclusive_group(required=True)
    action.add_argument("--dump", nargs=2, metavar=("CATEGORY", "CHUNK"))
    action.add_argument("--write", action="store_true")
    parser.add_argument("--cases", type=int, help="cases to dump (default: as committed)")
    parser.add_argument("--seed", help="generator seed to dump (default: as committed)")
    args = parser.parse_args(argv)
    corpus = {name: getattr(args, name) for name in ("cases", "seed")}
    corpus = {name: value for name, value in corpus.items() if value is not None}
    if args.write:
        if corpus:
            parser.error("--cases and --seed apply to --dump only")
        table = {name: digests(build()) for name, build in CATEGORIES.items()}
        DIGEST_FILE.write_text(json.dumps(table, indent=1) + "\n")
        return 0
    category, chunk = args.dump
    if category not in CATEGORIES:
        parser.error(f"unknown category {category!r} ({' | '.join(CATEGORIES)})")
    if corpus and category in ("cli", "type_errors"):
        parser.error(f"the {category} category is a fixed list of calls")
    lines = CATEGORIES[category](**corpus)
    if chunk != "all":
        start = int(chunk) * CHUNK
        lines = lines[start : start + CHUNK]
    for line in lines:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
