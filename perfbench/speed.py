"""Host speed reference: a fixed computation timed around every pass.

The shared 2-vCPU host this benchmark was built on changes speed in
phases that last from seconds to minutes: the same pass on the same bytes
takes up to 1.5x as long in a slow phase as in a fast one, with no CPU
steal reported.  Medians over one run cannot remove that, and longer
runs do not help, because the phases are longer than a run.  So the
benchmark times this reference kernel right before and right after every
timed pass, and reports pass times at reference speed:

    seconds at reference speed = measured seconds * NOMINAL_S / reference

where `reference` is the kernel's mean time over SAMPLES timings taken
right before and SAMPLES right after the pass.  A change to spoofbench
moves the measured seconds and not the kernel, so it shows in full; a
host phase moves both and largely cancels.  The kernel imports nothing
from spoofbench, so no change to the program can change it.

The kernel is a 15 ms interpreted integer loop that allocates nothing,
so the heap a pass leaves behind cannot change its time.  Within a phase
the host also flips between fast and slow states from one tenth of a
second to the next, which a pass of a second or more averages over but
one 15 ms timing does not; hence the mean over many timings.  A kernel
that built strings and dictionaries, or one that ran numpy FFTs, tracked
the passes worse (BASELINE.md).
"""

from __future__ import annotations

import time

# About the kernel's time on the baseline machine (BASELINE.md), so that
# times at reference speed read close to measured seconds there.
NOMINAL_S = 0.015
SAMPLES = 5


def _kernel() -> int:
    total = 0
    for i in range(120_000):
        total += i * i % 7
    return total


def reference_s() -> float:
    """Mean seconds of SAMPLES kernel timings, now."""
    times = []
    for _ in range(SAMPLES):
        start = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - start)
    return sum(times) / len(times)


def timed(fn):
    """Calls fn() between two reference timings.  Returns (fn's result,
    seconds fn took, reference: the mean of all kernel timings)."""
    before = reference_s()
    start = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - start
    return result, elapsed, (before + reference_s()) / 2.0


def at_reference_speed(seconds: float, reference: float) -> float:
    return seconds * NOMINAL_S / reference
