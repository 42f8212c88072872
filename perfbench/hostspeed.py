"""How fast the host runs the benchmark, sampled while the operations run.

On a shared host the speed a process gets drifts by a quarter and more, and
flips by up to 2x for seconds at a time, as other tenants load the same cores,
caches and memory; thread CPU time drifts with it, so it is no remedy. Timing
the operations alone would report that drift as the program's. While a
``Meter`` is entered, a SIGALRM every PERIOD_S of wall time runs two reps of
a fixed reference kernel that calls no orthobound code, in the benchmark
process between two bytecodes of whatever is running, and times the second.
The runner takes the sampling's time out of each operation's and scales what
is left by how fast the kernel ran meanwhile:

    scaled = (measured - sampling time inside it) * REF_NS / (mean timed rep)

That is the operation's time on a host that runs one kernel rep in
``REF_NS``. A program that gets slower still reads slower by the same share;
a host that gets slower moves both timings and cancels out.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

import numpy as np

# Mean kernel rep, in ns, on a 2-vCPU Intel Xeon VM (4 MiB L2 per core) with
# one BLAS thread: the speed every scaled time is quoted at.
REF_NS = 115_000.0
# two reps per PERIOD_S: about 6% of the wall time
PERIOD_S = 0.004
# a scale needs at least MIN_REPS reps; fewer borrow the latest ones
MIN_REPS = 5

_SMALL = np.linspace(-1.0, 1.0, 8) + 1j * np.linspace(0.5, -0.5, 8)
_WIDE = np.random.default_rng(0).standard_normal((16, 512))
_TALL = np.random.default_rng(1).standard_normal((8, 4)) + 1j * np.linspace(0.0, 1.0, 4)


def kernel() -> float:
    """One rep, about 0.1 ms in four near-equal parts: tiny complex array
    calls, dict and str work in the interpreter, a 16 x 512 gram product and
    an 8 x 4 complex QR. The workloads spend their time in this mix, and the
    host's slow phases slow each kind of work by a different share: over 1 s
    windows of hypothesis-screen the scaled throughput spread (CV) 4% with
    the mix and 5 to 11% with one part alone."""
    s = 0.0
    for i in range(8):
        s += float(np.vdot(_SMALL, _SMALL * (i + 1)).real) + math.sqrt(i + 1.0)
    counts: dict[int, int] = {}
    for i in range(100):
        counts[i % 17] = counts.get(i % 17, 0) + len(str(i))
    gram = _WIDE @ _WIDE.T
    q, _ = np.linalg.qr(_TALL + s)
    return s + float(gram[0, 0]) + float(np.abs(q).sum()) + len(counts)


def rep() -> int:
    """One kernel rep, timed in ns."""
    t0 = time.perf_counter_ns()
    kernel()
    return time.perf_counter_ns() - t0


class Meter:
    """Samples the kernel every PERIOD_S while entered.

    ``reps`` holds each timed rep in ns and ``spent`` the time of all samples,
    so a caller reads ``spent`` before and after a timed call to take the
    sampling's share out of it, and ``len(reps)`` before a stretch of calls
    to scale them. The first rep of a sample only warms the caches: an op
    that streams large arrays leaves them cold, and a cold rep took up to 1.9x
    a warm one, which would make the scale depend on the program's memory
    traffic as well as on the host.
    """

    def __init__(self):
        self.reps: list[int] = []
        self.spent = 0
        self._previous = None

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter_ns()
        kernel()
        self.reps.append(rep())
        self.spent += time.perf_counter_ns() - t0

    def __enter__(self) -> Meter:
        rep()  # warm up outside any timing
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self, since: int) -> float:
        """Factor that turns a time measured while ``reps[since:]`` ran into
        reference time."""
        reps = self.reps[since:]
        if len(reps) < MIN_REPS:
            reps = self.reps[-MIN_REPS:] or [rep()]
        return REF_NS / statistics.fmean(reps)
