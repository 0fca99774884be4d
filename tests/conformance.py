"""Conformance digest: what the library does, fixed as SHA-256 digests.

Each category runs a corpus from this file's own seeded generators through
the public API and records one line per case: what came out, or the error's
type, kind, position and message. ``conformance.json`` keeps one digest per
category and one per chunk of 1,000 cases, and ``test_conformance.py``
recomputes them. A change that means to alter behaviour rewrites the file
and names every intended difference.

The generators use only ``random.Random`` and this file's own rules, never
the library's helpers, so the corpus stays put when the library moves.

Usage::

    PYTHONPATH=src python tests/conformance.py --dump <category> <chunk>  # print its lines
    PYTHONPATH=src python tests/conformance.py --write  # rewrite conformance.json

To see what changed, dump the first chunk that differs here and at the
parent commit, and diff the two.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
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
    ExponentSign,
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
    return fixed_width_key(value, width).data.hex()


def encodings() -> list[str]:
    """Every encoder on each value, and both orders against the previous value."""
    rng = random.Random("conformance:encodings")
    lines = []
    previous = POSITIVE_ZERO
    for _ in range(6000):
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


def decodings() -> list[str]:
    """Each bit string read in all three framings."""
    rng = random.Random("conformance:decodings")
    lines = []
    for _ in range(10_000):
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


def from_bytes() -> list[str]:
    """Bit strings packed with zero padding, and random bytes and bit lengths."""
    rng = random.Random("conformance:from_bytes")
    lines = []
    for _ in range(3000):
        if rng.random() < 0.5:
            text = _bit_text(rng)
            bit_length = len(text)
            data = (int(text or "0", 2) << -bit_length % 8).to_bytes((bit_length + 7) // 8, "big")
        else:
            data = bytes(rng.choices(range(256), k=rng.randint(0, 12)))
            bit_length = rng.randint(-2, 8 * len(data) + 3)
        lines.append(repr((data.hex(), bit_length, _outcome(_from_bytes, data, bit_length))))
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


def parses() -> list[str]:
    """Fuzzed numeral text through ``parse_decimal`` and back through rendering."""
    rng = random.Random("conformance:parses")
    lines = []
    for _ in range(10_000):
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


CATEGORIES = {
    "encodings": encodings,
    "decodings": decodings,
    "from_bytes": from_bytes,
    "parses": parses,
    "cli": cli_runs,
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
    args = parser.parse_args(argv)
    if args.write:
        table = {name: digests(build()) for name, build in CATEGORIES.items()}
        DIGEST_FILE.write_text(json.dumps(table, indent=1) + "\n")
        return 0
    category, chunk = args.dump
    if category not in CATEGORIES:
        parser.error(f"unknown category {category!r} ({' | '.join(CATEGORIES)})")
    start = int(chunk) * CHUNK
    for line in CATEGORIES[category]()[start : start + CHUNK]:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
