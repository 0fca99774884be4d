"""Log-spaced size measurements."""

import pytest

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


def test_power_of_ten_floor_is_exact_on_a_grid():
    for n in range(1, 41):
        for t in range(0, 301, 7):
            value = _power_of_ten_floor(t, n)
            assert value**n <= 10**t < (value + 1) ** n


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
