"""Checks of the benchmark itself: seeded inputs, the oracle, the traced run,
the BENCHMARK.json contract, and a negative control showing that a
deliberately broken codec is caught.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from decimal import Decimal
from types import SimpleNamespace

import pytest

import corpus
import oracle
import run
import workloads

BENCHMARK = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def api():
    return workloads.load_api()


@pytest.fixture
def small(monkeypatch):
    """Shrink every input so a whole workload runs in well under a second."""
    for name, value in {
        "POOL": 300,
        "BATCH": 128,
        "STREAM_VALUES": 100,
        "STREAM_POOL": 200,
        "CLI_LINES": 400,
        "SWEEP_VALUES": 100,
        "SWEEP_STREAMS": (50, 200),
        "OVERHEAD_ROUNDS": 1,
    }.items():
        monkeypatch.setattr(workloads, name, value)


def flip_first_bit(api, bits):
    text = api.to_text(bits)
    return api.BitString(("1" if text[0] == "0" else "0") + text[1:])


def with_(api, **replacements):
    return SimpleNamespace(**{**vars(api), **replacements})


# --- inputs and oracle ------------------------------------------------------


def test_inputs_repeat_for_a_seed_and_differ_across_seeds():
    def draw(workload, seed):
        return corpus.wide_numerals(corpus.rng_for(workload, seed), 200)

    assert draw("ingest_wide", 1) == draw("ingest_wide", 1)
    assert draw("ingest_wide", 1) != draw("ingest_wide", 2)
    assert draw("ingest_wide", 1) != draw("readback_wide", 1)


def test_wide_numerals_cover_the_stated_family():
    values = [Decimal(t) for t in corpus.wide_numerals(corpus.rng_for("w", 7), 5000)]
    finite = [d for d in values if d.is_finite() and not d.is_zero()]
    digits = [len(d.as_tuple().digits) for d in finite]
    assert min(digits) == 1 and max(digits) == corpus.MAX_WIDE_DIGITS
    assert max(abs(d.adjusted()) for d in finite) < 10**6
    combos = {(d.is_signed(), d.adjusted() < 0) for d in finite}
    assert len(combos) == 4
    assert 0.01 < (len(values) - len(finite)) / len(values) < 0.06
    assert any(d.is_nan() for d in values) and any(d.is_infinite() for d in values)


def test_short_lines_cover_the_stated_family():
    lines = corpus.short_lines(corpus.rng_for("s", 7), 5000)
    assert {"0", "-0"} <= {str(Decimal(t).normalize()) for t in lines if Decimal(t).is_zero()}
    assert len(set(lines)) < len(lines)  # repeated lines
    for line in lines:
        whole, _, fraction = line.lstrip("-").partition(".")
        assert len(fraction) <= corpus.MAX_SHORT_PLACES
        assert 1 <= len((whole + fraction).lstrip("0") or "0") <= corpus.MAX_SHORT_DIGITS


def test_oracle_key_bits_is_the_length_law(api):
    for text in corpus.wide_numerals(corpus.rng_for("bits", 1), 500):
        assert oracle.key_bits(Decimal(text)) == len(api.encode(api.parse_decimal(text)))


def test_oracle_order_puts_negative_zero_first_and_nan_last():
    texts = ["NaN", "0", "-0", "INF", "-INF", "1E-999999", "-1E+999999", "0.5"]
    ordered = sorted((Decimal(t) for t in texts), key=oracle.sort_key)
    assert [str(d) for d in ordered] == [
        "-Infinity", "-1E+999999", "-0", "0", "1E-999999", "0.5", "Infinity", "NaN"
    ]
    assert oracle.misordered(ordered) == 0
    assert oracle.misordered(ordered[::-1]) == len(ordered) - 1


def test_cli_oracle_rejects_each_kind_of_wrong_output():
    lines = ["3", "-1", "0", "-0", "2.5"]
    good = "-1\n-0\n0\n2.5\n3\n"
    assert oracle.cli_sort_failures(lines, good, 0) == 0
    assert oracle.cli_sort_failures(lines, good, 1) > 0
    assert oracle.cli_sort_failures(lines, "-1\n-0\n0\n3\n2.5\n", 0) > 0
    assert oracle.cli_sort_failures(lines, "-1\n-0\n0\n2.5\n", 0) > 0
    assert oracle.cli_sort_failures(lines, "-1\n0\n-0\n2.5\n3\n", 0) > 0


# --- workloads --------------------------------------------------------------


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_workload_passes_its_oracle(api, small, workload):
    inputs = workloads.prepare(workload, 3, api)
    result = workloads.RUNS[workload](api, inputs, 0)
    assert result.attempted > 0 and result.failed == 0
    assert result.values_per_ref > 0 and result.value_p50_ref > 0
    assert result.key_bits > 0


@pytest.mark.parametrize(
    "workload, replace",
    [
        ("ingest_wide", lambda api: {"encode": lambda v: flip_first_bit(api, api.encode(v))}),
        (
            "readback_wide",
            lambda api: {"from_bytes": lambda d, n: flip_first_bit(api, api.from_bytes(d, n))},
        ),
        (
            "stream_prefix",
            lambda api: {
                "encode_prefix_free": lambda v: flip_first_bit(api, api.encode_prefix_free(v))
            },
        ),
    ],
)
def test_a_bit_flipping_codec_is_caught(api, small, workload, replace):
    inputs = workloads.prepare(workload, 3, api)
    result = workloads.RUNS[workload](with_(api, **replace(api)), inputs, 0)
    assert result.failed > 0


def test_traced_run_reports_every_per_layer_metric(api, small):
    inputs = workloads.prepare("ingest_wide", 3, api)
    result, metrics, (tracer, loop_tracer) = workloads.traced_run("ingest_wide", api, inputs)
    assert result.failed == 0
    assert set(metrics) == {m["name"] for m in BENCHMARK["per_layer"]}
    assert all(run.layer_unit(m["name"]) == m["unit"] for m in BENCHMARK["per_layer"])
    assert metrics["bits.lex_compare.calls"] == tracer.count("bits.lex_compare") > 0
    assert all(metrics[f"{layer}.errors"] == 0 for layer in workloads.LAYERS)
    for spans in (tracer.spans, loop_tracer.spans):
        assert spans and all(end >= start for _, start, end, _, _ in spans)


def test_traced_counts_repeat_exactly(api, small):
    inputs = workloads.prepare("cli_sort_short", 4, api)
    first = workloads.traced_run("cli_sort_short", api, inputs)[1]
    second = workloads.traced_run("cli_sort_short", api, inputs)[1]
    for name in first:
        if name.endswith(".calls"):
            assert first[name] == second[name]


# --- the contract -----------------------------------------------------------


def test_benchmark_json_matches_the_benchmark():
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    bounds = [m["bound"] for m in BENCHMARK["end_to_end"]]
    assert max(bounds) <= 0.25 and setup["bound"] == max(bounds)


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(workloads.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(workloads.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ingest_wide", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
