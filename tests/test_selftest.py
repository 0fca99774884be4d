"""The randomized self-check engine."""

import pytest

from lexdec import BitString
from lexdec.selftest import run_selftest


def test_passes_and_is_deterministic():
    first = run_selftest(500, seed=1)
    second = run_selftest(500, seed=1)
    assert first.passed and second.passed
    assert first == second


def test_zero_cases_is_vacuous():
    result = run_selftest(0, seed=9)
    assert result.passed
    assert result.vacuous


def test_negative_cases_rejected():
    with pytest.raises(ValueError, match="^cases must be non-negative, not -3$"):
        run_selftest(-3, seed=9)


def test_corrupted_codec_is_caught():
    def flip_last_bit(bits: BitString) -> BitString:
        text = bits.to_text()
        return BitString(text[:-1] + ("1" if text[-1] == "0" else "0"))

    result = run_selftest(200, seed=3, mutate=flip_last_bit)
    assert not result.passed
    assert result.failures
    assert "violated" in result.failures[0]


def test_shrinking_reports_a_small_case():
    # Corrupt only long encodings; the reported counterexample should have
    # been shrunk below the corruption threshold's neighbourhood.
    def corrupt_long(bits: BitString) -> BitString:
        if len(bits) > 40:
            return BitString(bits.to_text().translate(str.maketrans("01", "10")))
        return bits

    result = run_selftest(300, seed=3, mutate=corrupt_long)
    assert not result.passed
