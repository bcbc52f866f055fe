"""
Reference CPU speed for the benchmark's timings.

The benchmark runs on shared hosts whose other tenants slow this CPU by a
factor of 1.1 to 1.9 for seconds to minutes at a time.  Steal time stays at
zero, so the slowdown shows in this process's own wall and CPU time alike.
To keep it out of the figures, every timed step sits between two slices of
a fixed reference loop, and its time is rescaled by REF_SLICE_S over the
mean of the two slice times:

    step_s * REF_SLICE_S / slice_s

That is the step's time at the speed where one slice takes REF_SLICE_S, the
loop's uncontended time on the host the baseline was taken on (2-vCPU Intel
Xeon, Python 3.11), so rescaled times read close to uncontended seconds.
The loop is benchmark code and never changes with the library, so the
rescaling cannot hide a change in the library's own speed.  Raw times are
kept beside the rescaled ones.
"""
from __future__ import annotations

import time
from fractions import Fraction

REF_SLICE_S = 0.0105


def slice_s() -> float:
    """
    Seconds one slice of the reference loop takes now.  The loop mixes the
    kinds of work the library does (small-integer arithmetic, building and
    comparing tuples and lists, Fraction and big-integer arithmetic), so
    contention that slows the library slows it alike; a pure integer loop
    tracks the library's slowdowns about half as well.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(40_000):
        acc += i * i % 7
    for i in range(2_000):
        word = tuple(range(i % 9, i % 9 + 8))
        kept = [v for v in word if v > 3]
        acc += (word < tuple(kept)) + len(kept)
    value = Fraction(1, 3)
    for i in range(800):
        value = value * Fraction(i + 1, i + 2) + Fraction(1, i + 3)
        value = Fraction(value.numerator % 10**40, value.denominator % 10**40 + 1)
    return time.perf_counter() - t0


def at_reference(seconds: float, slice_seconds: float) -> float:
    return seconds * REF_SLICE_S / slice_seconds
