"""The four closed-loop workloads and the traced layer sweep.

Every workload is one client that waits for each reply before it sends the
next request, because callers of a codec do. The library is reached only
through an API namespace of its public functions (:func:`load_api`), so a
test can hand in a deliberately broken copy, and the traced run can hand in
one whose calls are recorded as spans.

Each ``run_*`` function measures for about ``seconds`` (at least one batch),
checks every output against :mod:`oracle` outside the timed region, and
returns a :class:`Result`.
"""

from __future__ import annotations

import io
import os
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from decimal import Decimal
from functools import cmp_to_key
from pathlib import Path
from time import perf_counter, perf_counter_ns
from types import SimpleNamespace

import corpus
import oracle
from reference import reference_ns
from spans import LAYERS, Tracer, glue_us, median

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

POOL = 8192  # inputs per run for the per-value workloads
BATCH = 4096  # values per closed-loop batch; ingest key-sorts each batch
STREAM_VALUES = 4000  # values per prefix-free stream
STREAM_POOL = 3 * STREAM_VALUES
CLI_LINES = 50_000
SWEEP_VALUES = 2000  # values per traced layer sweep
SWEEP_STREAMS = (1000, 4000)
OVERHEAD_ROUNDS = 3  # untraced/traced op pairs behind the tracing overhead
REF_SHARE = 0.02  # reference-loop time around a batch, as a share of the batch
MIN_PASSES, MAX_PASSES = 4, 60


def load_api() -> SimpleNamespace:
    """lexdec's public entry points, imported from this checkout's ``src``."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import lexdec
    import lexdec.cli

    if not Path(lexdec.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"lexdec imported from {lexdec.__file__}, not from {SRC}")
    bs = lexdec.BitString
    return SimpleNamespace(
        BitString=bs,
        BitCursor=lexdec.BitCursor,
        parse_decimal=lexdec.parse_decimal,
        render_decimal=lexdec.render_decimal,
        encode=lexdec.encode,
        decode=lexdec.decode,
        encode_exponent=lexdec.encode_exponent,
        decode_exponent=lexdec.decode_exponent,
        encode_significand=lexdec.encode_significand,
        decode_significand=lexdec.decode_significand,
        lex_compare=lexdec.lex_compare,
        to_bytes=bs.to_bytes,
        from_bytes=bs.from_bytes,
        to_text=bs.to_text,
        encode_prefix_free=lexdec.encode_prefix_free,
        decode_prefix_free_stream=lexdec.decode_prefix_free_stream,
        cli_main=lexdec.cli.main,
        cli_sort_process=cli_sort_process,
    )


def cli_sort_process(text: str) -> subprocess.CompletedProcess:
    """``python -m lexdec.cli sort`` in a fresh interpreter, fed ``text``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, "-m", "lexdec.cli", "sort"],
        input=text,
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
        timeout=120,
    )


@dataclass
class Batch:
    values: int  # values completed
    elapsed_ns: int
    p50_us: float  # per-value latency within the batch
    p99_us: float


@dataclass
class Result:
    """Batches of one closed-loop run; each metric is a median over batches.

    Call :meth:`tick` before every batch and once after the last one: it
    times the reference loop, and each batch's ``ref`` is the mean of the two
    ticks around it.
    """

    attempted: int = 0
    failed: int = 0
    batches: list[Batch] = field(default_factory=list)
    key_bits: float = 0.0  # mean key length over all the run's inputs
    named: dict[str, tuple[float, str, int]] = field(default_factory=dict)
    ticks_ns: list[float] = field(default_factory=list)

    def tick(self) -> None:
        """Time the reference loop for about 2% of the last batch's time."""
        passes = MIN_PASSES
        if self.batches and self.ticks_ns:
            passes = round(REF_SHARE * self.batches[-1].elapsed_ns / self.ticks_ns[-1])
        self.ticks_ns.append(reference_ns(min(MAX_PASSES, max(MIN_PASSES, passes))))

    def add(self, values: int, elapsed_ns: int, latencies_us: list[float] | None = None):
        if latencies_us:
            p50, p99 = median(latencies_us), percentile(latencies_us, 0.99)
        else:
            p50 = p99 = elapsed_ns / 1000 / max(1, values)
        self.batches.append(Batch(values, elapsed_ns, p50, p99))

    def _median(self, of) -> float:
        ticks = self.ticks_ns
        return median(
            of(b, (ticks[k] + ticks[k + 1]) / 2) for k, b in enumerate(self.batches) if b.values
        )

    @property
    def values_per_s(self) -> float:
        return self._median(lambda b, ref: b.values * 1e9 / b.elapsed_ns)

    @property
    def value_p50_us(self) -> float:
        return self._median(lambda b, ref: b.p50_us)

    @property
    def value_p99_us(self) -> float:
        return self._median(lambda b, ref: b.p99_us)

    @property
    def values_per_ref(self) -> float:
        return self._median(lambda b, ref: b.values * ref / b.elapsed_ns)

    @property
    def value_p50_ref(self) -> float:
        return self._median(lambda b, ref: b.p50_us * 1000 / ref)

    @property
    def samples(self) -> int:
        return sum(b.values for b in self.batches)


def percentile(samples: list[float], share: float) -> float:
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


def latency_metrics(prefix: str, result: Result) -> dict:
    """Wall-clock latency of one value: medians over batches of each batch's
    p50 and p99, with the number of values behind them."""
    return {
        f"{prefix}_p50_us": (result.value_p50_us, "us", result.samples),
        f"{prefix}_p99_us": (result.value_p99_us, "us", result.samples),
    }


# --- inputs ---------------------------------------------------------------


def prepare(workload: str, seed: int, api) -> SimpleNamespace:
    """The workload's inputs; the program sees only generated text or bytes."""
    rng = corpus.rng_for(workload, seed)
    if workload == "cli_sort_short":
        lines = corpus.short_lines(rng, CLI_LINES)
        return SimpleNamespace(
            texts=lines,
            text="\n".join(lines) + "\n",
            mean_key_bits=statistics.fmean(
                len(api.encode(api.parse_decimal(line))) for line in lines
            ),
        )
    specials = corpus.STREAM_SPECIALS if workload == "stream_prefix" else corpus.SPECIALS
    size = STREAM_POOL if workload == "stream_prefix" else POOL
    texts = corpus.wide_numerals(rng, size, specials)
    inputs = SimpleNamespace(texts=texts, values=[oracle.value(t) for t in texts])
    inputs.want_bits = [oracle.key_bits(d) for d in inputs.values]
    parsed = [api.parse_decimal(t) for t in texts]
    if workload == "stream_prefix":
        inputs.parsed = parsed
        inputs.mean_key_bits = statistics.fmean(len(api.encode_prefix_free(v)) for v in parsed)
    else:
        inputs.keys = [api.to_bytes(api.encode(v)) for v in parsed]
        inputs.mean_key_bits = statistics.fmean(bits for _, bits in inputs.keys)
    return inputs


# --- workloads --------------------------------------------------------------


def run_ingest(api, inputs, seconds: float) -> Result:
    """parse_decimal -> encode -> to_bytes per value, then a lex_compare key
    sort of each batch, as a tree index orders its inserts."""
    texts, values, want_bits = inputs.texts, inputs.values, inputs.want_bits
    parse, encode, to_bytes = api.parse_decimal, api.encode, api.to_bytes
    by_key = cmp_to_key(api.lex_compare)
    tracer = getattr(api, "tracer", None)
    result = Result(key_bits=inputs.mean_key_bits)
    encode_rates, sort_rates = [], []
    n, i = len(texts), 0
    deadline = perf_counter() + seconds
    while True:
        result.tick()
        keys, owners, latencies = [], [], []
        start = perf_counter_ns()
        for _ in range(BATCH):
            j = i % n
            i += 1
            if tracer:
                tracer.op = i
            t0 = perf_counter_ns()
            try:
                bits = encode(parse(texts[j]))
                to_bytes(bits)
            except Exception:
                result.failed += 1
                continue
            latencies.append((perf_counter_ns() - t0) / 1000)
            keys.append(bits)
            owners.append(j)
        encoded = perf_counter_ns()
        ordered = sorted(keys, key=by_key)
        end = perf_counter_ns()

        result.attempted += BATCH
        result.add(len(keys), end - start, latencies)
        encode_rates.append(len(keys) * 1e9 / (encoded - start))
        sort_rates.append(len(keys) * 1e9 / max(1, end - encoded))
        wrong_length = sum(len(k) != want_bits[j] for k, j in zip(keys, owners))
        expected = sorted(range(len(keys)), key=lambda k: oracle.sort_key(values[owners[k]]))
        misplaced = sum(got != keys[k] for got, k in zip(ordered, expected))
        result.failed += min(len(keys), wrong_length + misplaced)
        if perf_counter() >= deadline:
            break
    result.tick()
    result.named = {
        "encode_values_per_s": (median(encode_rates), "1/s", len(encode_rates)),
        **latency_metrics("encode", result),
        "keysort_values_per_s": (median(sort_rates), "1/s", len(sort_rates)),
    }
    return result


def run_readback(api, inputs, seconds: float) -> Result:
    """BitString.from_bytes -> decode -> render_decimal per value."""
    keys, values = inputs.keys, inputs.values
    from_bytes, decode, render = api.from_bytes, api.decode, api.render_decimal
    tracer = getattr(api, "tracer", None)
    result = Result(key_bits=inputs.mean_key_bits)
    n, i = len(keys), 0
    deadline = perf_counter() + seconds
    while True:
        result.tick()
        rendered, latencies = [], []
        start = perf_counter_ns()
        for _ in range(BATCH):
            j = i % n
            i += 1
            if tracer:
                tracer.op = i
            data, bit_length = keys[j]
            t0 = perf_counter_ns()
            try:
                text = render(decode(from_bytes(data, bit_length)))
            except Exception:
                result.failed += 1
                continue
            latencies.append((perf_counter_ns() - t0) / 1000)
            rendered.append((j, text))
        end = perf_counter_ns()

        result.attempted += BATCH
        result.add(len(rendered), end - start, latencies)
        result.failed += sum(not _same_text(values[j], text) for j, text in rendered)
        if perf_counter() >= deadline:
            break
    result.tick()
    result.named = {
        "decode_values_per_s": (result.values_per_s, "1/s", len(result.batches)),
        **latency_metrics("decode", result),
    }
    return result


def run_stream(api, inputs, seconds: float) -> Result:
    """encode_prefix_free 4,000 values, concatenate them, and split the
    stream back with decode_prefix_free_stream; one op is one stream."""
    parsed, values = inputs.parsed, inputs.values
    encode, split, render = api.encode_prefix_free, api.decode_prefix_free_stream, api.render_decimal
    empty = api.BitString()
    tracer = getattr(api, "tracer", None)
    result = Result(key_bits=inputs.mean_key_bits)
    windows = len(parsed) // STREAM_VALUES
    k = 0
    deadline = perf_counter() + seconds
    while True:
        result.tick()
        lo = (k % windows) * STREAM_VALUES
        k += 1
        if tracer:
            tracer.op = k
        chunk = parsed[lo : lo + STREAM_VALUES]
        t0 = perf_counter_ns()
        try:
            stream = empty
            for value in chunk:
                stream = stream + encode(value)
            decoded = split(stream)
        except Exception:
            decoded = None
        elapsed = perf_counter_ns() - t0

        result.attempted += 1
        ok = decoded is not None and _same_values(values[lo : lo + STREAM_VALUES], decoded, render)
        result.failed += not ok
        result.add(STREAM_VALUES if ok else 0, elapsed)
        if perf_counter() >= deadline:
            break
    result.tick()
    result.named = {"stream_values_per_s": (result.values_per_s, "1/s", len(result.batches))}
    return result


def run_cli_sort(api, inputs, seconds: float) -> Result:
    """``python -m lexdec.cli sort`` on 50,000 short numerals; one op is one
    run, start-up of the interpreter included."""
    lines, text = inputs.texts, inputs.text
    result = Result(key_bits=inputs.mean_key_bits)
    deadline = perf_counter() + seconds
    while True:
        result.tick()
        t0 = perf_counter_ns()
        try:
            proc = api.cli_sort_process(text)
        except subprocess.SubprocessError:
            proc = None
        elapsed = perf_counter_ns() - t0

        result.attempted += 1
        ok = proc is not None and not oracle.cli_sort_failures(lines, proc.stdout, proc.returncode)
        result.failed += not ok
        result.add(len(lines) if ok else 0, elapsed)
        if perf_counter() >= deadline:
            break
    result.tick()
    result.named = {"cli_sort_values_per_s": (result.values_per_s, "1/s", len(result.batches))}
    return result


def _stream_safe(d: Decimal) -> bool:
    """Whether the value delimits itself anywhere in a prefix-free stream."""
    return not (d.is_infinite() or (d.is_zero() and not d.is_signed()))


def _same_text(want: Decimal, text: str) -> bool:
    try:
        return oracle.same(want, oracle.value(text))
    except ArithmeticError:
        return False


def _same_values(want: list[Decimal], decoded, render) -> bool:
    return len(want) == len(decoded) and all(
        _same_text(d, render(v)) for d, v in zip(want, decoded)
    )


RUNS = {
    "ingest_wide": run_ingest,
    "readback_wide": run_readback,
    "stream_prefix": run_stream,
    "cli_sort_short": run_cli_sort,
}


# --- traced run -------------------------------------------------------------


def traced_run(workload: str, api, inputs) -> tuple[Result, dict, list[Tracer]]:
    """Per-layer metrics from a sweep over the workload's own inputs, plus
    the tracing overhead of the workload loop itself.

    The sweep calls each layer's public function once per value, the field
    functions too (``encode_exponent``, ``decode_significand`` on a
    ``BitCursor`` placed after the header, ...), so that a layer the workload
    never calls is still measured on the workload's inputs. Its work is fixed,
    so every ``.calls`` count repeats exactly for a seed.
    """
    run = RUNS[workload]
    loop_tracer = Tracer()
    plain_us, traced_us = [], []
    attempted = failed = 0
    for _ in range(OVERHEAD_ROUNDS):
        for us, lx in ((plain_us, api), (traced_us, loop_tracer.wrap(api))):
            loop = run(lx, inputs, 0)
            us.append(loop.value_p50_us)
            attempted += loop.attempted
            failed += loop.failed

    tracer = Tracer()
    result = layer_sweep(tracer.wrap(api), inputs.texts)
    result.attempted += attempted
    result.failed += failed
    metrics = layer_metrics(tracer, loop_tracer)
    metrics["trace.overhead_us_per_value"] = median(traced_us) - median(plain_us)
    return result, metrics, [tracer, loop_tracer]


def layer_sweep(lx, texts: list[str]) -> Result:
    tracer: Tracer = lx.tracer
    result = Result()
    keys, key_values = [], []
    for op, text in enumerate(texts[:SWEEP_VALUES]):
        tracer.op = op
        result.attempted += 1
        want = oracle.value(text)
        try:
            value = lx.parse_decimal(text)
            bits = lx.encode(value)
            data, bit_length = lx.to_bytes(bits)
            lx.to_text(bits)
            back = lx.render_decimal(lx.decode(lx.from_bytes(data, bit_length)))
            lx.encode_prefix_free(value)
            if value.form is not None:
                form = value.form
                negative = form.sign < 0
                lx.encode_exponent(form.exponent, form.sign != form.exponent_sign)
                lx.encode_significand(form.digits, negative)
                cursor = lx.BitCursor(bits, 2)
                lx.decode_exponent(cursor)
                lx.decode_significand(cursor, negative)
        except Exception:
            result.failed += 1
            continue
        if not _same_text(want, back) or len(bits) != oracle.key_bits(want):
            result.failed += 1
        keys.append(bits)
        key_values.append(want)

    tracer.op = "keysort"
    result.attempted += 1
    order = sorted(range(len(keys)), key=cmp_to_key(lambda a, b: lx.lex_compare(keys[a], keys[b])))
    if oracle.misordered([key_values[k] for k in order]):
        result.failed += 1

    in_stream = [t for t in texts if _stream_safe(oracle.value(t))]
    for size in SWEEP_STREAMS:
        tracer.op = f"stream{size}"
        result.attempted += 1
        chunk = in_stream[:size]
        try:
            stream = lx.BitString()
            for text in chunk:
                stream = stream + lx.encode_prefix_free(lx.parse_decimal(text))
            decoded = lx.decode_prefix_free_stream(stream)
        except Exception:
            decoded = []
        if not _same_values([oracle.value(t) for t in chunk], decoded, lx.render_decimal):
            result.failed += 1

    tracer.op = "cli"
    result.attempted += 1
    try:
        code, out = _cli_in_process(lx, texts)
    except Exception:
        code, out = -1, ""
    if code:
        tracer.errors["cli"] += 1
    try:
        for line in texts:  # what sort does per line, called directly
            lx.to_text(lx.encode(lx.parse_decimal(line)))
    except Exception:
        code = code or -1
    if oracle.cli_sort_failures(texts, out, code):
        result.failed += 1
    return result


def _cli_in_process(lx, lines: list[str]) -> tuple[int, str]:
    stdin, stdout = sys.stdin, sys.stdout
    sys.stdin, sys.stdout = io.StringIO("\n".join(lines) + "\n"), io.StringIO()
    try:
        code = lx.cli_main(["sort"])
        return code, sys.stdout.getvalue()
    finally:
        sys.stdin, sys.stdout = stdin, stdout


def layer_metrics(tracer: Tracer, loop_tracer: Tracer) -> dict[str, float]:
    def us(name):
        return median(tracer.call_us(name))

    stream_us = tracer.durations_us("variants.decode_prefix_free_stream")
    short, long = (stream_us[f"stream{size}"] / size for size in SWEEP_STREAMS)
    cli_us = {
        name: tracer.durations_us(name)["cli"]
        for name in ("cli.main", "decimal_values.parse_decimal", "codec.encode", "bits.to_text")
    }
    metrics = {
        "decimal_values.parse_decimal.us": us("decimal_values.parse_decimal"),
        "decimal_values.parse_decimal.calls": tracer.count("decimal_values.parse_decimal"),
        "decimal_values.render_decimal.us": us("decimal_values.render_decimal"),
        "gamma.encode_exponent.us": us("gamma.encode_exponent"),
        "gamma.decode_exponent.us": us("gamma.decode_exponent"),
        "codec.encode.us": us("codec.encode"),
        "codec.encode_significand.us": us("codec.encode_significand"),
        "codec.encode.glue_us": glue_us(
            tracer, "codec.encode", "gamma.encode_exponent", "codec.encode_significand"
        ),
        "codec.decode.us": us("codec.decode"),
        "codec.decode_significand.us": us("codec.decode_significand"),
        "codec.decode.glue_us": glue_us(
            tracer, "codec.decode", "gamma.decode_exponent", "codec.decode_significand"
        ),
        "bits.lex_compare.us": us("bits.lex_compare"),
        "bits.lex_compare.calls": tracer.count("bits.lex_compare"),
        "bits.to_bytes.us": us("bits.to_bytes"),
        "bits.from_bytes.us": us("bits.from_bytes"),
        "bits.to_text.us": us("bits.to_text"),
        "variants.encode_prefix_free.us": us("variants.encode_prefix_free"),
        "variants.stream_us_per_value.1k": short,
        "variants.stream_us_per_value.4k": long,
        "variants.stream_scaling": long / short,
        "cli.sort.s": cli_us["cli.main"] / 1e6,
        "cli.sort.self_s": (
            cli_us["cli.main"]
            - cli_us["decimal_values.parse_decimal"]
            - cli_us["codec.encode"]
            - cli_us["bits.to_text"]
        )
        / 1e6,
    }
    for layer in LAYERS:
        metrics[f"{layer}.errors"] = tracer.errors[layer] + loop_tracer.errors[layer]
    return metrics
