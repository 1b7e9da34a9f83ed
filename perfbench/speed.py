"""Machine speed, sampled while a workload runs.

The benchmark runs on virtual machines that share their cores with
other tenants.  There the same pass of magri varies by up to a factor of
two between minutes, and a single run cannot tell a slow program from a
slow minute.  So a probe, a fixed loop of dict lookups and Fraction
products over a small table shaped like magri's, runs every
``INTERVAL_S`` seconds of wall time, from a timer signal in the
benchmark's one thread.  The median probe time, against its nominal
``NOMINAL_S``, gives the speed factor by which the benchmark scales the
times it reports: each operation by the probes taken during it or within
half a second of it.  The raw times go into the run's info line.  Probe
time is taken out of every timed interval, through ``now()``.

The correction is partial: the probe speeds up more than magri's larger
working sets do when the host is quiet.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from fractions import Fraction

NOMINAL_S = 0.0015  # the probe's time on a quiet 2.1 GHz Xeon core
INTERVAL_S = 0.05
EDGE_PROBES = 10  # probes taken at the start and at the end of a pass

_spent = 0.0  # wall time spent in probes so far


# A sparse table like magri's: tuple monomials to Fractions.
_TABLE = {(i % 5, i % 7, i % 11, i): Fraction(i, 1 + i % 4) for i in range(2048)}
_KEYS = list(_TABLE)[::7]


def probe():
    """Dict lookups and Fraction products over a fixed table, GC held off."""
    gc_on = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    acc = {}
    for k in _KEYS:
        m = (k[0], k[1], k[2] + 1, k[3] >> 1)
        acc[m] = acc.get(m, 0) + _TABLE[k] * 3
    dt = time.perf_counter() - t0
    if gc_on:
        gc.enable()
    return dt


def now():
    """perf_counter with the time spent in probes taken out."""
    return time.perf_counter() - _spent


class Speedometer:
    """Samples the probe during a ``with`` block.

    With ``interval=None`` it samples only at the edges of the block,
    which costs nothing inside it (the traced run uses that).
    """

    def __init__(self, interval=INTERVAL_S):
        self.interval = interval
        self.at = []  # now() at each probe
        self.samples = []  # probe times

    def _probe(self, *_signal_args):
        global _spent
        t0 = time.perf_counter()
        self.at.append(t0 - _spent)
        self.samples.append(probe())
        _spent += time.perf_counter() - t0

    def __enter__(self):
        for _ in range(EDGE_PROBES):
            self._probe()
        if self.interval:
            signal.signal(signal.SIGALRM, self._probe)
            signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        if self.interval:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
        for _ in range(EDGE_PROBES):
            self._probe()
        return False

    def factor(self):
        """Multiply a time measured in the block by this to get it at nominal speed."""
        return NOMINAL_S / statistics.median(self.samples)

    def factor_between(self, start, end, pad=0.5):
        """The factor for an interval of now(), from the probes near it."""
        lo = bisect.bisect_left(self.at, start - pad)
        hi = bisect.bisect_right(self.at, end + pad)
        near = self.samples[lo:hi]
        return NOMINAL_S / statistics.median(near) if near else self.factor()
