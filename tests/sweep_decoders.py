"""Sweeps of the decoders' accepted language deeper than the test suite's.

Runs the checker of ``test_decode_fuzz.py``'s enumeration, which is
imported here, not copied: every input must either decode to values that
re-encode to it (up to a zero tail, where that is padding) or fail with a
typed error inside the input. Usage::

    PYTHONPATH=src python tests/sweep_decoders.py --heads      # canonical, trimmed
    PYTHONPATH=src python tests/sweep_decoders.py --bits 20    # all three framings
    PYTHONPATH=src python tests/sweep_decoders.py --streams 3  # stream splitting

``--heads`` reads every 16-bit tail behind each of the six heads of
exponent magnitude at most 1, which the test suite sweeps under prefix-free
framing only. ``--bits N`` reads every string of exactly N bits.
``--streams N`` splits N seeded streams of 2,000 wide values at every view
size from 1 to 64 bytes, which the test suite runs at three sizes: each
split must give its values, and each stream with one bit flipped the values
before that bit's value, then what the rest of the stream gives alone.
Prints one line per sweep or view size and exits 1 if any input is faulty.
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from unittest import mock

from lexdec import codec, encode_prefix_free
from test_decode_fuzz import (
    LANGUAGES,
    check_language,
    headed_inputs,
    inputs_of_length,
    wide_stream_faults,
    wide_values,
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--heads", action="store_true", help="the six heads' 16-bit tails, canonical and trimmed"
    )
    parser.add_argument("--bits", type=int, metavar="N", help="every N-bit string, every framing")
    parser.add_argument(
        "--streams", type=int, metavar="N", help="N wide-value streams, every view size"
    )
    args = parser.parse_args(argv)
    for name in ("bits", "streams"):
        if (getattr(args, name) or 0) < 0:
            parser.error(f"--{name} must be non-negative")
    sweeps = []
    if args.heads:
        sweeps += [(framing, "heads", headed_inputs) for framing in ("canonical", "trimmed")]
    if args.bits is not None:
        inputs = lambda: inputs_of_length(args.bits)  # noqa: E731
        sweeps += [(framing, f"{args.bits} bits", inputs) for framing in LANGUAGES]
    if not sweeps and args.streams is None:
        parser.error("give --heads, --bits N, --streams N or several")
    faulty = False
    for framing, name, inputs in sweeps:
        started = time.perf_counter()
        bad = check_language(framing, inputs())
        elapsed = time.perf_counter() - started
        first = f", the first {bad[:3]}" if bad else ""
        print(f"{framing}, {name}: {len(bad)} faulty inputs{first} ({elapsed:.1f}s)", flush=True)
        faulty = faulty or bool(bad)
    if args.streams is not None:
        faulty = sweep_streams(args.streams) or faulty
    return 1 if faulty else 0


def sweep_streams(count: int) -> bool:
    """Split ``count`` seeded streams, each with one bit flipped as well, at
    every view size; print one line per size, and return whether any
    split was faulty."""
    streams = []
    for seed in range(count):
        values = wide_values(seed, 2000)
        length = sum(len(encode_prefix_free(value)) for value in values)
        streams.append((values, random.Random(seed).randrange(length)))
    faulty = False
    for window_bytes in range(1, 65):
        started = time.perf_counter()
        with mock.patch.object(codec, "_WINDOW_BYTES", window_bytes):
            bad = [
                (seed, fault)
                for seed, (values, flip) in enumerate(streams)
                for fault in wide_stream_faults(values, [flip])
            ]
        elapsed = time.perf_counter() - started
        first = f", the first {bad[:3]}" if bad else ""
        print(
            f"streams, {window_bytes}-byte view: {len(bad)} faults in {count} streams{first}"
            f" ({elapsed:.1f}s)",
            flush=True,
        )
        faulty = faulty or bool(bad)
    return faulty


if __name__ == "__main__":
    sys.exit(main())
