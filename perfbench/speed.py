"""Host speed probes: scale measured times to a fixed reference speed.

On a shared guest (measured on a 2-core x86_64 KVM guest) the neighbours slow
the client down by up to a factor of two, in phases that last minutes, so a
multi-second operation's wall time carries the host's state as much as the
program's cost.
A fixed snippet, half interpreter arithmetic and half random reads from a
buffer larger than the caches, is therefore timed every PERIOD seconds from a
SIGALRM handler inside the client, interleaved with whatever the client is
doing.  An operation's scaled time is its wall time net of the samples taken
during it, times (REFERENCE_S / median sample of its pass) ** ELASTICITY:
the time it takes on a host where one sample takes REFERENCE_S, about the
median sample on the guest above.  A pass (8 to 20 s, a few hundred samples) is
short against the host's phases; the few samples of one operation would add
noise of their own.  The operations lose more than the snippet does when the
neighbours are busy: over ten runs of each workload, log(unscaled pass time)
rose with log(median sample) with slopes of 1.3 (verify-small), 1.5 (sample)
and 1.7 (exact-large), correlation 0.87 to 0.95, hence ELASTICITY.  That
brings the spread (IQR / median over ten seeds) of `wall_s` from about 0.2
unscaled to 0.05 to 0.07.

A set-up's work happens in child interpreters, which the snippet does not
track; it is scaled by how long a bare interpreter takes to start
(`interpreter_start`) at the same moments, which does.
"""

from __future__ import annotations

import random
import signal
import statistics
import subprocess
import sys
import time

PERIOD = 0.05          # seconds between samples
LOOPS = 7_500          # interpreter arithmetic per sample
READS = 2_000          # random buffer reads per sample
BUFFER = 1 << 23       # bytes
REFERENCE_S = 1e-3     # the sample time that scaled times are given at
ELASTICITY = 1.5
START_REFERENCE_S = 0.05   # the interpreter start-up set-ups are given at


class Probe:
    """Speed samples of one run, taken on a timer."""

    def __init__(self):
        rng = random.Random(0)
        self.buffer = rng.randbytes(BUFFER)
        self.index = [rng.randrange(BUFFER) for _ in range(READS)]
        self.samples = []

    def snippet(self):
        """Seconds one fixed piece of work takes now."""
        t0 = time.perf_counter()
        s = 0
        for i in range(LOOPS):
            s += i * i
        buffer = self.buffer
        for j in self.index:
            s += buffer[j]
        return time.perf_counter() - t0

    def _alarm(self, signum, frame):
        self.samples.append(self.snippet())

    def start(self):
        self.samples.append(self.snippet())
        signal.signal(signal.SIGALRM, self._alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def time(self, fn, *args):
        """(fn's result, its seconds net of the samples taken during it)."""
        first = len(self.samples)
        t0 = time.perf_counter()
        out = fn(*args)
        return out, time.perf_counter() - t0 - sum(self.samples[first:])

    def median_since(self, first):
        """Median of the samples from index `first` on."""
        return statistics.median(self.samples[first:])


def scale(seconds, sample):
    """`seconds` measured while samples took `sample`, at REFERENCE_S."""
    return seconds * (REFERENCE_S / sample) ** ELASTICITY


def interpreter_start():
    """Seconds a bare interpreter takes to start and exit."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True)
    return time.perf_counter() - t0
