"""Host pace: host timings scaled to one reference speed of the core.

The sandbox's vCPU switches between a fast and a slow state, 1.3-1.9x
apart, each lasting from seconds to minutes, so a whole run can sit in
either and the spread between runs measured the host, not the program.
The benchmark therefore takes a reading of a fixed reference loop just
before and just after each unit of work (a trap-mix round, a chaos cell)
and scales that unit's host timings by :data:`REFERENCE_S` over the
readings: each reported time is what the unit would have taken at the
reference pace.  The loop is the benchmark's own, apart from the
simulator, so a change to the simulator moves the scaled timings as it
moves the raw ones.  Of the loops tried (a bare integer loop, a
dict-and-method loop, a small decode-dispatch interpreter), the bare
loop slowed down most nearly as much as the simulator did between the
two states (1.39x against 1.31-1.38x).
"""

from __future__ import annotations

from time import perf_counter

#: Seconds one :func:`reference_loop` pass takes at the reference pace:
#: the fast state of the sandbox's 2.1 GHz Xeon vCPU (readings there are
#: 0.71-0.83 ms; in the slow state 1.1-1.3 ms).
REFERENCE_S = 0.77e-3

#: Passes per reading.  The fastest is kept, so an interrupt that lands
#: in one pass does not count.
PASSES = 3

#: Iterations of one pass.
LOOP = 25_000


def reference_loop() -> int:
    total = 0
    for i in range(LOOP):
        total += i
    return total


def reading() -> float:
    """Seconds of the fastest of :data:`PASSES` reference passes."""
    best = float("inf")
    for _ in range(PASSES):
        start = perf_counter()
        reference_loop()
        best = min(best, perf_counter() - start)
    return best


def scale(before: float, after: float) -> float:
    """Factor from host seconds to seconds at the reference pace, for a
    unit of work between the readings ``before`` and ``after``."""
    return 2.0 * REFERENCE_S / (before + after)
