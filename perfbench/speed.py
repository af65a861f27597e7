"""CPU speed sampling, so that times can be read at one reference speed.

On a shared virtual machine the same Python code runs up to 1.8x slower while
other tenants load the host, and the slow and fast periods switch within a
second.  Process CPU time slows down as much as wall time, so it does not
help.  ``Sampler`` runs a fixed pure-Python kernel from a profiling timer
(every ``INTERVAL_S`` of this process's CPU time) and records how long each
run of the kernel took.  ``Sampler.normalize`` turns a wall-clock interval
into seconds at the reference speed: the interval, less the kernel's own time
inside it, times the mean of ``REFERENCE_KERNEL_S / kernel time`` over the
samples taken in it.  A child process records its own samples (see
``child.py``); the timestamps are ``perf_counter`` values, which on Linux
read the system-wide monotonic clock, so they line up with the parent's.

The kernel allocates no container objects, so it never triggers the cyclic
garbage collector, and a sample never charges the program's garbage to the
kernel.
"""

import json
import signal
import statistics
from bisect import bisect_left, bisect_right
from contextlib import contextmanager
from time import perf_counter

INTERVAL_S = 0.01
# Kernel time at the reference speed: about the kernel's time in the fast
# periods of a shared 2-vCPU Intel Xeon virtual machine with Python 3.11, so a
# normalized time reads close to a wall time there.  It only sets the scale.
REFERENCE_KERNEL_S = 0.0003
# An interval with fewer samples inside it takes the nearest ones around it.
MIN_SAMPLES = 8

_TABLE = {i: 7 * i + 3 for i in range(64)}


def kernel() -> int:
    """Integer arithmetic and dict look-ups, the interpreter's common work."""
    x, s, table = 1, 0, _TABLE
    for _ in range(1200):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        s = (s + table[x & 63] * (x >> 20)) % 1000003
    return s


class Sampler:
    def __init__(self):
        self.at: list[float] = []       # start of each kernel run
        self.kernel: list[float] = []   # its duration

    def _sample(self, signum, frame):
        start = perf_counter()
        kernel()
        self.kernel.append(perf_counter() - start)
        self.at.append(start)

    @contextmanager
    def running(self):
        previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
            signal.signal(signal.SIGPROF, previous)

    def add(self, samples) -> None:
        """Merge (start, duration) pairs, e.g. a child's, keeping time order."""
        pairs = sorted(list(zip(self.at, self.kernel)) + [tuple(p) for p in samples])
        self.at = [a for a, _ in pairs]
        self.kernel = [k for _, k in pairs]

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump(list(zip(self.at, self.kernel)), f)

    def speed(self, start: float, end: float) -> float:
        """Mean speed relative to the reference over the samples in [start, end]."""
        lo, hi = bisect_left(self.at, start), bisect_right(self.at, end)
        if hi - lo < MIN_SAMPLES:
            if not self.at:
                return 1.0  # nothing was sampled: the wall time stands as it is
            middle = (lo + hi) // 2
            lo = max(min(middle - MIN_SAMPLES // 2, len(self.at) - MIN_SAMPLES), 0)
            hi = min(lo + MIN_SAMPLES, len(self.at))
        return statistics.fmean(REFERENCE_KERNEL_S / k for k in self.kernel[lo:hi])

    def normalize(self, start: float, end: float) -> float:
        """Seconds from start to end at the reference speed."""
        lo, hi = bisect_left(self.at, start), bisect_right(self.at, end)
        own = sum(self.kernel[lo:hi])
        return (end - start - own) * self.speed(start, end)
