"""Seeded randomized self-checks of the codec against the numeric oracle.

Five properties are exercised per case: round-trip, the header law (no
finite encoding starts with 10011 or 00100), the length law (a finite
encoding's length in closed form), pairwise order agreement between encoded
and numeric comparison, and the self-inverseness of the ten's complement.
Results are deterministic for a fixed seed. A hook is provided to corrupt
encodings on purpose, so the failure path itself can be tested.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Iterable

from .bits import BitString, lex_compare
from .codec import _field_ends, _spread_ones, _ten_minus, _write, decode, encode
from .decimal_values import (
    NAN,
    NEGATIVE_INFINITY,
    NEGATIVE_ZERO,
    POSITIVE_INFINITY,
    POSITIVE_ZERO,
    DecimalValue,
    ExponentSign,
    Kind,
    ScientificForm,
    Sign,
    _finite_value,
    compare_numeric,
    render_decimal,
)

__all__ = ["SelfTestResult", "run_selftest", "random_finite", "SPECIAL_VALUES"]

SPECIAL_VALUES = (
    NEGATIVE_INFINITY,
    NEGATIVE_ZERO,
    POSITIVE_ZERO,
    POSITIVE_INFINITY,
    NAN,
)

_FORBIDDEN_PREFIXES = ("10011", "00100")


@dataclass
class SelfTestResult:
    passed: bool
    cases: int
    failures: list[str] = field(default_factory=list)

    @property
    def vacuous(self) -> bool:
        return self.passed and self.cases == 0


def random_digits(rng: random.Random, max_digits: int = 60) -> str:
    """Random canonical digit text: leading and final digits non-zero."""
    n = rng.randint(1, max_digits)
    if n == 1:
        return str(rng.randint(1, 9))
    # One draw for all the middle digits, zero-filled by a leading 1 that is
    # cut off (none are left when n is 2): each digit is still uniform and
    # independent, at about a tenth of the cost of a draw per digit.
    middle = str(10 ** (n - 2) + rng.randrange(10 ** (n - 2)))[1:]
    return str(rng.randint(1, 9)) + middle + str(rng.randint(1, 9))


def random_finite(
    rng: random.Random, max_digits: int = 60, max_exponent: int = 10**6
) -> DecimalValue:
    """A random finite value covering all four sign combinations."""
    exponent = rng.randint(0, max_exponent)
    exponent_sign = (
        ExponentSign.NON_NEGATIVE
        if exponent == 0
        else rng.choice((ExponentSign.NEGATIVE, ExponentSign.NON_NEGATIVE))
    )
    sign = rng.choice((Sign.NEGATIVE, Sign.POSITIVE))
    return _finite_value(sign, exponent_sign, exponent, random_digits(rng, max_digits))


def run_selftest(
    cases: int,
    seed: int,
    *,
    mutate: Callable[[BitString], BitString] | None = None,
) -> SelfTestResult:
    """Run the property suite on ``cases`` seeded random value pairs.

    ``mutate``, when given, corrupts each encoding before it is checked; a
    mutated run is expected to fail and serves as a negative control. The
    first violation is minimized and reported. A negative ``cases`` is a
    :class:`ValueError`; zero cases pass vacuously.
    """
    if cases < 0:
        raise ValueError(f"cases must be non-negative, not {cases}")
    rng = random.Random(seed)
    post = mutate if mutate is not None else lambda bs: bs

    def encoded(value: DecimalValue) -> BitString:
        return post(encode(value))

    for value in SPECIAL_VALUES if cases > 0 else ():
        if decode(encoded(value)) != value:
            return _failure(cases, "special round-trip", value)

    for _ in range(cases):
        x = random_finite(rng)
        y = random_finite(rng)

        enc_x = encoded(x)
        try:
            ok = decode(enc_x) == x
        except Exception:
            ok = False
        if not ok:
            shrunk = _shrink(x, lambda v: not _round_trips(v, post))
            return _failure(cases, "round-trip", shrunk)

        if enc_x.to_text().startswith(_FORBIDDEN_PREFIXES):
            shrunk = _shrink(x, lambda v: encoded(v).to_text().startswith(_FORBIDDEN_PREFIXES))
            return _failure(cases, "header law", shrunk)

        if len(enc_x) != _lawful_length(x):
            shrunk = _shrink(x, lambda v: len(encoded(v)) != _lawful_length(v))
            return _failure(cases, "length law", shrunk)

        if lex_compare(enc_x, encoded(y)) != compare_numeric(x, y):
            return _failure(cases, "order agreement", x, y)

        # The stored tetrade digit and declet slots of x's positive digits,
        # as the decoder reads them.
        form = _finite_value(Sign.POSITIVE, ExponentSign.NON_NEGATIVE, 0, x.form.digits).form
        _, head, groups = _field_ends(form)  # groups: where the tetrade and each declet end
        stored = _write(form, False)._value & ((1 << groups[-1] - head) - 1)
        width = groups[-1] - groups[0]
        ones = _spread_ones(len(groups) - 1, groups.step)
        layout = stored >> width, stored & ((1 << width) - 1), ones
        if _ten_minus(*_ten_minus(*layout)) != layout:
            return _failure(cases, "complement involution", x)

    return SelfTestResult(passed=True, cases=cases)


def _lawful_length(value: DecimalValue) -> int:
    # The sign header, the exponent field, the tetrade, then the declets.
    e, n = value.form.exponent, len(value.form.digits)
    return 2 + (2 * (e + 2).bit_length() - 1) + 4 + 10 * ((n + 1) // 3)


def _round_trips(value: DecimalValue, post) -> bool:
    try:
        return decode(post(encode(value))) == value
    except Exception:
        return False


def _failure(cases: int, prop: str, *values: DecimalValue) -> SelfTestResult:
    rendered = ", ".join(render_decimal(v) for v in values)
    return SelfTestResult(
        passed=False,
        cases=cases,
        failures=[f"{prop} violated for: {rendered}"],
    )


def _shrink(value: DecimalValue, still_fails: Callable[[DecimalValue], bool]) -> DecimalValue:
    """Greedy shrink: keep applying the first simplification that still fails."""
    current = value
    for _ in range(200):
        for candidate in _simpler(current):
            try:
                failing = still_fails(candidate)
            except Exception:
                failing = True
            if failing:
                current = candidate
                break
        else:
            break
    return current


def _simpler(value: DecimalValue) -> Iterable[DecimalValue]:
    if value.kind is not Kind.FINITE:
        return
    form = value.form

    def build(sign, exponent_sign, exponent, digits):
        if exponent == 0:
            exponent_sign = ExponentSign.NON_NEGATIVE
        try:
            return DecimalValue.finite(
                ScientificForm(sign, exponent_sign, exponent, digits)
            )
        except ValueError:
            return None

    candidates = []
    if len(form.digits) > 1:
        half = form.digits[: max(1, len(form.digits) // 2)].rstrip("0")
        candidates.append(build(form.sign, form.exponent_sign, form.exponent, half))
        candidates.append(build(form.sign, form.exponent_sign, form.exponent, form.digits[:1]))
    if form.exponent > 0:
        candidates.append(
            build(form.sign, form.exponent_sign, form.exponent // 2, form.digits)
        )
        candidates.append(build(form.sign, ExponentSign.NON_NEGATIVE, 0, form.digits))
    if form.exponent_sign is ExponentSign.NEGATIVE:
        candidates.append(
            build(form.sign, ExponentSign.NON_NEGATIVE, form.exponent, form.digits)
        )
    if form.sign is Sign.NEGATIVE:
        candidates.append(
            build(Sign.POSITIVE, form.exponent_sign, form.exponent, form.digits)
        )
    for candidate in candidates:
        if candidate is not None and candidate != value:
            yield candidate
