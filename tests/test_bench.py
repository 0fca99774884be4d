"""Log-spaced size measurements."""

from decimal import Decimal

import pytest

import lexdec.bench
from lexdec import parse_decimal
from lexdec.bench import _power_of_ten_floor, log_spaced_integers, measure, size_rows


def test_log_spaced_samples_are_exact_floors():
    # The j-th of 50 samples up to 10**300 is floor(10 ** (300*j/49)); no
    # sample coincides with another, so none is dropped as a duplicate.
    values = log_spaced_integers(10**300, 50)
    assert len(values) == 50
    for j, value in enumerate(values):
        assert value**49 <= 10 ** (300 * j) < (value + 1) ** 49


def test_power_of_ten_floor_when_n_divides_t():
    assert _power_of_ten_floor(0, 7) == 1
    assert _power_of_ten_floor(300, 3) == 10**100
    assert _power_of_ten_floor(3000, 1) == 10**3000
    assert log_spaced_integers(10**40, 5) == [1, 10**10, 10**20, 10**30, 10**40]


GRID = [(t, n) for n in range(1, 41) for t in range(0, 301, 7)]


def test_power_of_ten_floor_is_exact_on_a_grid():
    for t, n in GRID:
        value = _power_of_ten_floor(t, n)
        assert value**n <= 10**t < (value + 1) ** n


def test_power_of_ten_floor_exact_fallback_agrees(monkeypatch):
    # No fractional part lies more than 0.5 from both 0 and 1, so every seed
    # goes through the integer correction steps.
    fast = [_power_of_ten_floor(t, n) for t, n in GRID]
    monkeypatch.setattr(lexdec.bench, "_SEED_MARGIN", Decimal("0.5"))
    assert [_power_of_ten_floor(t, n) for t, n in GRID] == fast


def test_log_spaced_past_the_int_to_text_limit():
    # 10**5000 has more digits than int() will render as text.
    assert log_spaced_integers(10**5000, 3) == [1, 10**2500, 10**5000]


def test_decade_count_at_powers_of_ten():
    # Two samples are 1 and the largest power of ten not above v, then v.
    powers = [10**k for k in [*range(1, 300), *range(300, 4001, 100)]]
    for v in [*range(1, 1001), *(p + d for p in powers for d in (-1, 0, 1))]:
        assert log_spaced_integers(v, 2) == sorted({1, 10 ** (len(str(v)) - 1), v})


def test_log_spaced_shape():
    values = log_spaced_integers(10**40, 100)
    assert values[0] == 1
    assert values[-1] == 10**40
    assert values == sorted(set(values))
    assert len(values) <= 101


def test_log_spaced_degenerate():
    assert log_spaced_integers(10**6, 1) == [10**6]
    assert log_spaced_integers(1, 5) == [1]
    assert log_spaced_integers(10**3, 0) == []
    with pytest.raises(ValueError):
        log_spaced_integers(0, 5)


def test_measure_examples():
    assert measure(parse_decimal("1")).measured_bits == 9
    assert measure(parse_decimal("15")).measured_bits == 19
    assert measure(parse_decimal("1e9")).measured_bits == 13


def test_rows_agree_with_length_law():
    for row in size_rows(10**20, 60):
        assert row.measured_bits == row.law_bits
        assert row.exponent_bits >= 3
