"""A fixed reference loop: how fast this CPU runs Python at this moment.

On a shared machine a CPU's speed changes by up to half within seconds, as
neighbours come and go. The workloads run this loop before and after every
batch, and the benchmark's steady metrics are costs in units of it: one
``ref`` is the mean time of one pass of this loop on the same CPU just before
and just after the batch. A tick runs many passes back to back and keeps
their mean, not their minimum, because the slowdown is an average over
time, not a rare interruption. The loop does the kind of work lexdec does
(small objects, calls, shifts of growing integers, scanning characters) and
never calls lexdec, so a change to lexdec moves the workload's time but not
the ref.
"""

from __future__ import annotations

from time import perf_counter_ns

DIGITS = "31415926535897932384626433832795028841971"
ROUNDS = 30


class _Bits:
    __slots__ = ("value", "length")

    def __init__(self, value: int, length: int):
        self.value = value
        self.length = length

    def join(self, other: "_Bits") -> "_Bits":
        return _Bits((self.value << other.length) | other.value, self.length + other.length)


def reference_work() -> int:
    acc = _Bits(0, 0)
    total = 0
    for _ in range(ROUNDS):
        for ch in DIGITS:
            if ch.isdigit():
                acc = acc.join(_Bits(int(ch), 4))
        total += acc.value & 0xFFFF
        acc = _Bits(acc.value >> 64, max(0, acc.length - 64))
    return total


def reference_ns(passes: int) -> float:
    """Mean nanoseconds per pass over ``passes`` consecutive passes."""
    start = perf_counter_ns()
    for _ in range(passes):
        reference_work()
    return (perf_counter_ns() - start) / passes
