"""Sweeps of the decoders' accepted language deeper than the test suite's.

Runs the checker of ``test_decode_fuzz.py``'s enumeration, which is
imported here, not copied: every input must either decode to values that
re-encode to it (up to a zero tail, where that is padding) or fail with a
typed error inside the input. Usage::

    PYTHONPATH=src python tests/sweep_decoders.py --bits 20    # all three framings
    PYTHONPATH=src python tests/sweep_decoders.py --streams 3  # stream splitting

``--bits N`` reads every string of exactly N bits.
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
from strategies import FRAMINGS
from test_decode_fuzz import check_language, inputs_of_length, wide_stream_faults, wide_values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--bits", type=int, metavar="N", help="every N-bit string, every framing")
    parser.add_argument(
        "--streams", type=int, metavar="N", help="N wide-value streams, every view size"
    )
    args = parser.parse_args(argv)
    for name in ("bits", "streams"):
        if (getattr(args, name) or 0) < 0:
            parser.error(f"--{name} must be non-negative")
    if args.bits is None and args.streams is None:
        parser.error("give --bits N, --streams N or both")
    faulty = False
    if args.bits is not None:
        for framing in FRAMINGS:
            started = time.perf_counter()
            bad = check_language(framing, inputs_of_length(args.bits))
            elapsed = time.perf_counter() - started
            first = f", the first {bad[:3]}" if bad else ""
            line = f"{framing}, {args.bits} bits: {len(bad)} faulty inputs{first} ({elapsed:.1f}s)"
            print(line, flush=True)
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
