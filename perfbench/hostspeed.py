"""Host-speed samples, to take a shared host's changing speed out of timings.

On a virtual machine whose cores are shared with other tenants' work, a
process runs up to ~1.7 times slower for stretches from milliseconds to
minutes, and a whole benchmark run can fall into a slow stretch.  A
``Probe`` times a fixed reference kernel every ``EVERY_S`` of wall time from
a SIGALRM handler, so that the samples fall inside whatever the process is
doing at the time.  ``adjusted`` rescales a time measured over an interval
by the kernel's mean time over that same interval: the result is the time
the interval would have taken on a host where the kernel takes
``KERNEL_REF_S``.  Sampling costs about 1.5 % of the time; ``adjusted``
subtracts it.

Python runs the handler between bytecodes of the main thread, so a sample
due during a long call into compiled code waits until that call returns.
"""

from __future__ import annotations

import signal
import time

EVERY_S = 0.005
# about the kernel's median time on the 2-vCPU Xeon virtual machine the
# benchmark was set up on, so that adjusted seconds read close to wall
# seconds there
KERNEL_REF_S = 70e-6


def kernel() -> float:
    """Interpreted float arithmetic around a power, the kind of work the
    program's hot loops do (bisection on x**delta, Runge-Kutta stages);
    about 0.07 ms."""
    s = 0.0
    for i in range(300):
        x = 0.1 + i * 1e-7
        s += x ** 2.98 + 1e-4 - x
    return s


class Probe:
    def __init__(self):
        self.n = 0
        self.kernel_s = 0.0       # summed kernel times
        self.spent_s = 0.0        # summed handler times

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.n += 1
        self.kernel_s += t1 - t0
        self.spent_s += time.perf_counter() - t0

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> tuple:
        return self.n, self.kernel_s, self.spent_s

    def since(self, mark: tuple) -> dict:
        """Samples taken since ``mark``, their mean kernel time (None if
        there were none) and the time the sampling took."""
        n = self.n - mark[0]
        return {"samples": n,
                "kernel_s": (self.kernel_s - mark[1]) / n if n else None,
                "probe_s": self.spent_s - mark[2]}


def adjusted(seconds: float, probe_s: float, kernel_s: float) -> float:
    """A time measured while the probe ran, without the sampling and at
    the reference host speed."""
    return (seconds - probe_s) * KERNEL_REF_S / kernel_s
