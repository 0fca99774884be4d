"""In-memory spans for the traced run, and the per-layer table built from them.

A span is ``(name, start_ns, end_ns, parent, op)``: ``parent`` is the index of
the enclosing span or -1, and ``op`` groups the spans of one operation (a
value's index, or a name such as ``"cli"`` for a one-off operation). Spans
are recorded only in the benchmark's own code, around calls into lexdec's
public functions; the library itself is never patched.
"""

from __future__ import annotations

import json
import statistics
from collections import Counter, defaultdict
from time import perf_counter_ns
from types import SimpleNamespace

#: Span name for each traced entry of the API namespace.
LAYER_NAMES = {
    "parse_decimal": "decimal_values.parse_decimal",
    "render_decimal": "decimal_values.render_decimal",
    "encode_exponent": "gamma.encode_exponent",
    "decode_exponent": "gamma.decode_exponent",
    "encode": "codec.encode",
    "decode": "codec.decode",
    "encode_significand": "codec.encode_significand",
    "decode_significand": "codec.decode_significand",
    "lex_compare": "bits.lex_compare",
    "to_bytes": "bits.to_bytes",
    "from_bytes": "bits.from_bytes",
    "to_text": "bits.to_text",
    "encode_prefix_free": "variants.encode_prefix_free",
    "decode_prefix_free_stream": "variants.decode_prefix_free_stream",
    "cli_main": "cli.main",
    "cli_sort_process": "cli.sort_process",
}

LAYERS = ("decimal_values", "gamma", "codec", "bits", "variants", "cli")


class Tracer:
    def __init__(self):
        self.spans: list[tuple | None] = []
        self.errors: Counter[str] = Counter()
        self.op = -1
        self._stack: list[int] = []

    def call(self, name: str, fn, *args):
        """Call ``fn(*args)`` inside a span; a raise counts as a layer error."""
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        start = perf_counter_ns()
        try:
            return fn(*args)
        except Exception:
            self.errors[name.split(".", 1)[0]] += 1
            raise
        finally:
            end = perf_counter_ns()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.op)

    def wrap(self, api: SimpleNamespace) -> SimpleNamespace:
        """The same API with every layer entry point recorded as a span."""
        traced = dict(vars(api))
        for attr, name in LAYER_NAMES.items():
            if attr in traced:
                traced[attr] = self._traced(name, traced[attr])
        return SimpleNamespace(**traced, tracer=self)

    def _traced(self, name, fn):
        call = self.call

        def traced(*args):
            return call(name, fn, *args)

        return traced

    def durations_us(self, name: str) -> dict[int | str, float]:
        """Total microseconds per op spent in spans named ``name``."""
        per_op: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span[0] == name:
                per_op[span[4]] += (span[2] - span[1]) / 1000
        return per_op

    def call_us(self, name: str) -> list[float]:
        return [(s[2] - s[1]) / 1000 for s in self.spans if s[0] == name]

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s[0] == name)

    def write(self, out, phase: str) -> None:
        """One JSON array per line: phase, name, start_ns, end_ns, parent, op."""
        for span in self.spans:
            out.write(json.dumps((phase, *span)) + "\n")


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else float("nan")


def glue_us(tracer: Tracer, outer: str, *inner: str) -> float:
    """Median over ops of the outer call's time minus its field calls' time.

    The field functions are called directly on the same inputs, once per op,
    so the difference is the work ``outer`` does around them.
    """
    outer_us = tracer.durations_us(outer)
    inner_us = [tracer.durations_us(name) for name in inner]
    return median(
        t - sum(parts[op] for parts in inner_us)
        for op, t in outer_us.items()
        if all(op in parts for parts in inner_us)
    )
