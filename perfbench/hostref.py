"""The host reference: a fixed kernel timed alongside the workload.

The shared 2-vCPU hosts this benchmark runs on change speed by ±25%
within seconds and by up to ~2x between runs (neighbours on the same
cores and caches, stolen vCPU time, other tasks on the pinned CPU).  A
run therefore times its work in process CPU time, which leaves out the
time the process was not running (steal and time slices of other
tasks), and divides it by the CPU time of this kernel measured around
the same piece of work.  What is left is the work's cost in *reference
milliseconds* (``ref_ms``): one ``ref_ms`` is one call of
:func:`kernel`.

The kernel depends on NumPy only, never on ``repro``, so a change to
the program moves the workload's cost and not the reference.  Changing
the kernel changes every normalized metric: never do it in a change
that is compared against its parent.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy

#: Kernel calls per sample; a sample is their median.
REPEATS = 5

_rng = numpy.random.default_rng(20050307)


def kernel() -> float:
    """About a millisecond of the workloads' kinds of work: normal draws
    and an FFT on a NumPy array, then an interpreter loop over a dict."""
    spectrum = numpy.fft.rfft(_rng.standard_normal(1 << 14))
    table = {}
    total = 0
    for index in range(2000):
        total += index * index % 7
        table[index % 97] = total
    return float(spectrum[1].real) + total


def sample() -> float:
    """Median process CPU seconds of one :func:`kernel` call, now."""
    times = []
    for _ in range(REPEATS):
        start = time.process_time()
        kernel()
        times.append(time.process_time() - start)
    return statistics.median(times)


def warm_up() -> None:
    """Pay first-call costs (FFT plan, allocator) before any sample."""
    for _ in range(20):
        kernel()


class Reference:
    """Reference samples taken between pieces of timed work.

    Call :meth:`mark` before the first piece and after each one; it
    returns the index of the piece that just ended.  After the last
    mark, :meth:`ref_ms` turns CPU time spent in a piece into reference
    milliseconds.  A piece is normalized by the median of the samples
    taken from ``WINDOW_S`` seconds before it starts to ``WINDOW_S``
    seconds after it ends: one noisy sample does not move it, a host
    that changes speed over seconds does.  ``wall_s`` is the wall time
    spent sampling, to leave out of wall-time rates.
    """

    #: Seconds on each side of a piece whose samples normalize it.
    WINDOW_S = 2.0

    def __init__(self) -> None:
        self.samples = []
        self.times = []
        self.pieces_cpu_s = []
        self.wall_s = 0.0
        self._cpu = None

    def mark(self) -> int:
        cpu = time.process_time()
        start = time.perf_counter()
        if self._cpu is not None:
            self.pieces_cpu_s.append(cpu - self._cpu)
        self.samples.append(sample())
        self.times.append(start)
        self.wall_s += time.perf_counter() - start
        self._cpu = time.process_time()
        return len(self.pieces_cpu_s) - 1

    def ref_ms(self, piece: int, cpu_s: float | None = None) -> float:
        """``cpu_s`` spent within ``piece`` (default: all of the piece,
        the process's CPU time between its marks) in ref_ms."""
        if cpu_s is None:
            cpu_s = self.pieces_cpu_s[piece]
        low = bisect.bisect_left(self.times,
                                 self.times[piece] - self.WINDOW_S)
        high = bisect.bisect_right(self.times,
                                   self.times[piece + 1] + self.WINDOW_S)
        return cpu_s / statistics.median(self.samples[low:high])

    def total_ref_ms(self) -> float:
        """All pieces together, in ref_ms."""
        return sum(self.ref_ms(piece)
                   for piece in range(len(self.pieces_cpu_s)))
