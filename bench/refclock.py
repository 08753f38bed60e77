"""A clock that times code in reference seconds: the process's CPU time
scaled by the machine's speed, sampled while the code runs.

The shared machine the benchmark was written on (2 vCPUs of an Intel Xeon)
switches between a fast and a slow state, about 1.9x apart, in spells of
0.5 s to several seconds; a solve running through them takes up to twice as
long for the same work, in CPU time as much as in wall time.  Medians over
passes cannot remove that when a whole run falls in slow spells, and speed
probes between solves miss the switches inside solves that last seconds.

So the clock runs a short fixed kernel, of the same kind of work as the
solvers (small numpy operations driven from Python), at the start and end
of the timed code and every ``PERIOD_S`` of wall time in between, from a
SIGALRM handler.  The code itself runs unchanged; the time spent in the
kernel is left out.  Each stretch between two kernel runs counts as its
CPU time multiplied by the speed the kernel showed at its two ends,
relative to ``REFERENCE_KERNEL_S``:

    reference seconds = sum over stretches of  cpu * mean(REFERENCE_KERNEL_S / kernel_cpu)

A program that does more work still takes more reference seconds in
proportion; a slow spell of the machine slows the kernel as much as the
program and cancels.  CPU time rather than wall time keeps other processes
that share the CPU out of the figure.  It equals the wall time the user
waits only while the timed code runs on one thread, which the benchmark
ensures by setting every BLAS and OpenMP thread count to 1; a solver that
ran on several threads would be charged for all of them.
"""

from __future__ import annotations

import signal
import time

import numpy as np

# One kernel run takes about this long on the machine above in its fast
# state, so reference seconds read close to its unloaded wall seconds.
REFERENCE_KERNEL_S = 5e-4
PERIOD_S = 0.02


def kernel() -> float:
    x = np.zeros(20)
    s = 0.0
    for _ in range(300):
        x = x * 0.5 + 1.0
        s += float(x[3])
    return s


class WallClock:
    """Times a ``with`` block in wall seconds; ``elapsed`` holds the last."""

    elapsed = 0.0

    def __enter__(self):
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self._t0
        return False


class RefClock(WallClock):
    """Times a ``with`` block in reference seconds; ``elapsed`` holds the
    last, and ``cpu`` sums the CPU seconds of every block without the
    kernel runs.  Not reentrant: it owns SIGALRM while a block runs."""

    cpu = 0.0

    def _probe(self, *_):
        t0 = time.process_time()
        kernel()
        self._marks.append((t0, time.process_time()))

    def __enter__(self):
        self._marks = []
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        self._probe()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._probe()
        stretches = list(zip(self._marks, self._marks[1:]))
        self.cpu += sum(b0 - a1 for (_, a1), (b0, _) in stretches)
        self.elapsed = sum(
            (b0 - a1) * 0.5 * (REFERENCE_KERNEL_S / (a1 - a0) + REFERENCE_KERNEL_S / (b1 - b0))
            for (a0, a1), (b0, b1) in stretches)
        return False
