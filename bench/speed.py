"""Machine-speed calibration for timings taken on a host whose speed drifts.

On a shared virtual machine the same Python work can take twice as long
from one few-second window to the next, in wall time and CPU time alike,
so raw timings of separate runs do not agree.  The benchmark therefore
times a fixed calibration loop (pure Python ``Fraction`` and big-integer
arithmetic, nothing from ``qmforms``) right before and right after each
timed call and, from a ``SIGALRM`` handler, every ``PERIOD_S`` seconds
during it, and scales the call's time to *reference speed*:

    reference seconds = net seconds * REFERENCE_S * mean(1 / calibration seconds)

over the calibrations around and inside the call, where the net seconds
leave out the time the handler itself took.  A reference second is a
second on a machine where one calibration loop takes ``REFERENCE_S``.  A
change to the package moves its own time and not the loop's, so it shows in
full; a host that is slower for a while moves both and cancels out.  The
loop runs with the garbage collector off, so the size of the package's
caches does not leak into it.

Calls that run a subprocess are calibrated with a bare interpreter start
instead (``Meter.for_subprocesses``): a reference second there is a second
on a machine where ``python -c pass`` takes ``SPAWN_REFERENCE_S``.
"""

import gc
import signal
import subprocess
import sys
from fractions import Fraction
from time import perf_counter

# the reference machine's calibration time; a 2-vCPU cloud VM running
# Python 3.11 read 1.6 ms to 3.3 ms as its speed drifted
REFERENCE_S = 0.002
# seconds between speed samples inside a timed call
PERIOD_S = 0.025
# a bare interpreter start on the reference machine; the same VM read 40 ms
# to 60 ms
SPAWN_REFERENCE_S = 0.04

_TERMS = [Fraction(3 * i + 1, 2 * i + 3) for i in range(24)]


def _work():
    total = Fraction(0)
    for x in _TERMS:
        for y in _TERMS:
            total += x * y
    return total


def calibrate():
    """Seconds that one calibration loop takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        _work()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def spawn_bare():
    """Seconds that starting and ending a bare interpreter takes now."""
    start = perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True, capture_output=True, timeout=60)
    return perf_counter() - start


class Meter:
    """Times calls and converts their time to reference seconds.

    Inside ``with Meter():`` a ``SIGALRM`` handler samples the host's speed
    every ``period`` seconds, also in the middle of a long call; with
    ``period=None`` only the calibrations around each call are used."""

    def __init__(self, period=PERIOD_S, calibrate=calibrate, reference=REFERENCE_S):
        self.period = period
        self.calibrate, self.reference = calibrate, reference
        self.samples = []  # (start, calibration seconds, handler seconds)
        self._previous = None

    @classmethod
    def for_subprocesses(cls):
        """A meter for calls that each run a subprocess.  Their time follows
        the time of a bare interpreter start, not of the in-process loop
        (which runs on whichever vCPU the parent has), so that is their
        calibration, around each call only."""
        return cls(period=None, calibrate=spawn_bare, reference=SPAWN_REFERENCE_S)

    def __enter__(self):
        if self.period:
            self._previous = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc_info):
        if self.period:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, signum, frame):
        start = perf_counter()
        seconds = calibrate()
        self.samples.append((start, seconds, perf_counter() - start))

    def timed(self, fn):
        """``(result, exception, net seconds, reference seconds)`` of
        ``fn()``; an exception it raises is returned, not raised."""
        before = self.calibrate()
        first = len(self.samples)
        start = perf_counter()
        try:
            result, error = fn(), None
        except Exception as exc:  # the caller decides what a raising call means
            result, error = None, exc
        stop = perf_counter()
        after = self.calibrate()
        inside = [s for s in self.samples[first:] if start <= s[0] < stop]
        net = stop - start - sum(taken for _, _, taken in inside)
        rates = [1.0 / seconds for seconds in [before, after] + [s[1] for s in inside]]
        return result, error, net, net * self.reference * sum(rates) / len(rates)
