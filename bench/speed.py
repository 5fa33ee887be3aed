"""Machine-speed calibration for the benchmark's time metrics.

The machines the benchmark runs on are shared virtual machines whose speed
swings by up to 1.7x, in spells of seconds to minutes (see NOTES.md,
"Noise on the measuring machine").  CPU time tracks wall time there, so the
swings are not preemption, and no choice of run length or median removes a
spell that covers a whole run.

So the worker samples the machine's speed while it measures: a timer signal
runs a fixed pure-Python kernel (`kernel`) every INTERVAL_S, between the
program's bytecodes, during the timed calls (the signal is held back
between them), and the kernel's time is taken out of the call it
interrupted.  Each call's time is then scaled to the reference speed: a
time t measured while the kernel took k on average is reported as
t * REFERENCE_S / k (`SpeedProbe.local_mean` gives k), and rates and
quantiles are taken over the scaled times.  The kernel is the
benchmark's own code, so a change to the program does not move it.

This module imports nothing that vtangle imports, so the set-up probe can
use it without warming vtangle's import.
"""

from __future__ import annotations

import signal
import time
from array import array

KERNEL_ITERS = 2000
# The reference speed: the kernel takes this long.  A round figure within
# the 180-340 us the kernel took on the baseline machine (NOTES.md).
REFERENCE_S = 250e-6
INTERVAL_S = 0.01
# The speed of a call is the mean over the samples taken during it, or over
# the last LOCAL_SAMPLES when it holds fewer.  The machine's speed changes
# within a run, so one mean for the run would scale the slow and the fast
# calls alike, and move the latency quantiles.
LOCAL_SAMPLES = 8
# A sample this many times the median was preempted; it is left out.
OUTLIER_FACTOR = 4.0

_table = [0] * 256


def kernel(n: int = KERNEL_ITERS) -> int:
    """Integer arithmetic and list stores; allocates no container."""
    s = 0
    for i in range(n):
        s += i * i % 7
        _table[i & 255] = s
    return s


def time_kernel() -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def kernel_mean(samples) -> float:
    """Mean kernel time, leaving out samples cut by preemption."""
    cap = OUTLIER_FACTOR * sorted(samples)[len(samples) // 2]
    kept = [s for s in samples if s <= cap]
    return sum(kept) / len(kept)


class SpeedProbe:
    """Samples the kernel from a timer signal while installed.

    `starts` and `ends` bound every handler run, so that its time can be
    taken out of the timed call it fell in (`spent`); index i of the three
    arrays is one sample.  They are flat arrays: keeping a Python object
    per sample alive among the program's own would move the worker's peak
    memory.
    """

    def __init__(self):
        self.samples = array("d")
        self.starts = array("d")
        self.ends = array("d")

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append(time_kernel())
        self.starts.append(start)
        self.ends.append(time.perf_counter())

    def local_mean(self, first: int) -> float:
        """Kernel time for a call whose samples start at index `first`."""
        first = min(first, len(self.samples) - LOCAL_SAMPLES)
        return kernel_mean(self.samples[max(first, 0):])

    def spent(self, first: int, start: float, end: float) -> float:
        """Handler time inside [start, end], among the runs from `first` on."""
        return sum(min(b, end) - max(a, start)
                   for a, b in zip(self.starts[first:], self.ends[first:])
                   if b > start and a < end)

    def install(self) -> None:
        """Start the timer, with its signal held back until `resume`.

        LOCAL_SAMPLES samples are taken at once, for the first calls.
        """
        for _ in range(LOCAL_SAMPLES):
            self._sample(None, None)
        self.pause()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def resume(self) -> None:
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})

    def pause(self) -> None:
        # Outside the timed calls the signal waits: a handler run inside a
        # large write to the worker's pipe has cut the record short.
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})

    def uninstall(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        # Drop a signal still held back; by default it would end the process.
        signal.signal(signal.SIGALRM, signal.SIG_IGN)
        self.resume()
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
