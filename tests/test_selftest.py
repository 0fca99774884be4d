"""The randomized self-check engine."""

import pytest

import lexdec.selftest
from lexdec import BitString, decode
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


def test_order_disagreement_is_reported(monkeypatch):
    monkeypatch.setattr(lexdec.selftest, "compare_numeric", lambda x, y: 2)
    result = run_selftest(3, seed=3)
    assert not result.passed
    assert result.failures[0].startswith("order agreement violated for: ")


def test_complement_that_is_not_an_involution_is_reported(monkeypatch):
    def off_by_one(first, slots, ones):
        return first, slots + 1, ones

    monkeypatch.setattr(lexdec.selftest, "_ten_minus", off_by_one)
    result = run_selftest(3, seed=3)
    assert not result.passed
    assert result.failures[0].startswith("complement involution violated for: ")


def test_header_law_violation_is_reported(monkeypatch):
    # No mutation of a real encoding reaches this check: decode rejects both
    # forbidden prefixes, and the round trip is checked first. So the
    # mutation puts one in front, and the decoder the selftest calls drops it.
    monkeypatch.setattr(lexdec.selftest, "decode", lambda bits: decode(BitString(bits.to_text()[5:])))
    result = run_selftest(3, seed=3, mutate=lambda bits: BitString("10011") + bits)
    assert result.failures == ["header law violated for: 1"]
