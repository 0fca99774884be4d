"""Sweeps of the decoders' accepted language deeper than the test suite's.

Runs the checker of ``test_decode_fuzz.py``'s enumeration, which is
imported here, not copied: every input must either decode to values that
re-encode to it (up to a zero tail, where that is padding) or fail with a
typed error inside the input. Usage::

    PYTHONPATH=src python tests/sweep_decoders.py --heads    # canonical, trimmed
    PYTHONPATH=src python tests/sweep_decoders.py --bits 20  # all three framings

``--heads`` reads every 16-bit tail behind each of the six heads of
exponent magnitude at most 1, which the test suite sweeps under prefix-free
framing only. ``--bits N`` reads every string of exactly N bits. Prints one
line per sweep and exits 1 if any input is faulty.
"""

from __future__ import annotations

import argparse
import sys
import time

from test_decode_fuzz import LANGUAGES, check_language, headed_inputs, inputs_of_length


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--heads", action="store_true", help="the six heads' 16-bit tails, canonical and trimmed"
    )
    parser.add_argument("--bits", type=int, metavar="N", help="every N-bit string, every framing")
    args = parser.parse_args(argv)
    if args.bits is not None and args.bits < 0:
        parser.error("--bits must be non-negative")
    sweeps = []
    if args.heads:
        sweeps += [(framing, "heads", headed_inputs) for framing in ("canonical", "trimmed")]
    if args.bits is not None:
        inputs = lambda: inputs_of_length(args.bits)  # noqa: E731
        sweeps += [(framing, f"{args.bits} bits", inputs) for framing in LANGUAGES]
    if not sweeps:
        parser.error("give --heads, --bits N or both")
    faulty = False
    for framing, name, inputs in sweeps:
        started = time.perf_counter()
        bad = check_language(framing, inputs())
        elapsed = time.perf_counter() - started
        first = f", the first {bad[:3]}" if bad else ""
        print(f"{framing}, {name}: {len(bad)} faulty inputs{first} ({elapsed:.1f}s)", flush=True)
        faulty = faulty or bool(bad)
    return 1 if faulty else 0


if __name__ == "__main__":
    sys.exit(main())
