"""Machine-speed sampling, to take the host's speed swings out of timings.

The machines this benchmark runs on are shared: another tenant's load
slows a vCPU down by up to 2x for seconds to minutes at a time, with CPU
time equal to wall time (the process is not descheduled, it runs slower).
A reference loop run on the other vCPU does not see it; a reference loop
run in the measured thread itself does.

So every process that runs timed work samples its own speed: every
INTERVAL_S of wall time a SIGALRM handler runs one of three fixed
kernels (Fraction arithmetic, a polynomial product with Fraction
coefficients reduced mod a cyclotomic polynomial, integer and dict
work; none of them touches lenswrt) and records how long it took.  The
speed at a probe is the kernel's REFERENCE_S time over its measured time:
about 0.9 in the fast state of the machine the references were taken on,
about 0.6 in its slow state.  A span of work then counts as its wall time, less
the probes inside it, times the mean speed of the probes around it:
seconds at the reference speed.  A change in lenswrt moves that figure
exactly as it moves wall time; a change of the host's load moves it far
less.
"""

from __future__ import annotations

import bisect
import json
import signal
import statistics
import time
from array import array
from fractions import Fraction

INTERVAL_S = 0.01
MIN_PROBES = 6  # a span shorter than this many probes borrows the probes around it
clock = time.perf_counter


def _fraction_kernel():
    a, s = Fraction(3, 7), Fraction(0)
    for i in range(1, 40):
        s = s * a + Fraction(i, i + 2)


def _poly_kernel():
    a = [Fraction(i, 3) for i in range(6)]
    b = [Fraction(1, i + 1) for i in range(6)]
    out = [Fraction(0)] * 11
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    for k in range(10, 5, -1):  # reduce mod 1 + t + ... + t^6
        c = out[k]
        if c:
            for j in range(k - 6, k):
                out[j] -= c
            out[k] = 0


def _dict_kernel():
    d, x = {}, 1
    for i in range(300):
        x = (x * 1103515245 + 12345) & 0xFFFFFFFF
        d[x & 63] = d.get(x & 63, 0) + i


KERNELS = (_fraction_kernel, _poly_kernel, _dict_kernel)
# About each kernel's fastest time on a 2-vCPU Intel Xeon host, CPython 3.11.
# Fixed constants: they set the scale of every timing, so they never change.
REFERENCE_S = (180e-6, 150e-6, 80e-6)


class Sampler:
    """Probes of this process's speed, taken on SIGALRM in the main thread."""

    def __init__(self):
        self.ends = array("d")
        self.durations = array("d")
        self.speeds = array("d")

    def start(self):
        signal.signal(signal.SIGALRM, self._probe)
        self.resume()

    def stop(self):
        self.pause()
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def pause(self):
        signal.setitimer(signal.ITIMER_REAL, 0)

    def resume(self):
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def _probe(self, _signum, _frame):
        kind = len(self.ends) % len(KERNELS)
        t0 = clock()
        KERNELS[kind]()
        t1 = clock()
        self.ends.append(t1)
        self.durations.append(t1 - t0)
        self.speeds.append(REFERENCE_S[kind] / (t1 - t0))

    def probe_time(self, t0: float, t1: float) -> float:
        """Seconds spent in probes that ended within [t0, t1]."""
        i, j = bisect.bisect_left(self.ends, t0), bisect.bisect_right(self.ends, t1)
        return sum(self.durations[i:j])

    def speed(self, t0: float, t1: float) -> float:
        """Mean speed of the probes within [t0, t1], widened to at least MIN_PROBES."""
        n = len(self.ends)
        if n == 0:
            raise RuntimeError("no speed probes were taken")
        lo, hi = bisect.bisect_left(self.ends, t0), bisect.bisect_right(self.ends, t1)
        while hi - lo < MIN_PROBES and (lo > 0 or hi < n):
            lo, hi = max(0, lo - 1), min(n, hi + 1)
        return statistics.fmean(self.speeds[lo:hi])

    def scaled(self, t0: float, t1: float) -> float:
        """The span [t0, t1] in seconds at the reference speed, probes excluded."""
        return (t1 - t0 - self.probe_time(t0, t1)) * self.speed(t0, t1)

    def summary(self) -> dict:
        """All probes as one speed figure, for a child process to hand to its parent."""
        return {"probes": len(self.ends), "probe_s": sum(self.durations),
                "speed": statistics.fmean(self.speeds) if self.speeds else None}

    def write_summary(self, path: str):
        with open(path, "w") as fh:
            json.dump(self.summary(), fh)
