"""Host-speed correction for timings taken on a shared machine.

The machine this benchmark was written on shares its cores with other
tenants.  The speed of a core swings by up to 2x, from one second to the
next and from one minute to the next.  CPU time and wall time swing
together, so this is not time stolen while the process is descheduled.  Raw
wall times of identical runs then spread by 20-40%.

`SpeedMeter` samples the speed while the benchmark runs.  Every `PERIOD`
seconds a SIGALRM handler times the four parts of `PROBE`, the kinds of work
loopsoup does: an integer loop, small numpy calls, a JSON round trip and
building an argparse parser.  The speed sample is the mean over the parts of
their reference time over their observed time.  Measured against repeated
K4 enumerations and batches of CLI calls, this mean tracked the program's
own slowdowns better than any one part alone.

A timed interval is converted to reference seconds.  Its length, less the
probes that ran inside it, is multiplied by the mean speed sample of the
probes that ran inside it or within WINDOW seconds of it.  A reference second
is a second of a core that runs each probe part in its reference time.  A
program change moves the corrected time exactly as it moves the raw time,
while a change of host speed moves both the program and the probe.  Raw
times stay in the run record.
"""

from __future__ import annotations

import argparse
import bisect
import json
import signal
import statistics
import time

import numpy as np

PERIOD = 0.05
WINDOW = 0.2  # probes this close to an interval also set its speed
_SMALL = np.arange(16.0).reshape(4, 4)
_DOC = {f"k{i}": [i, i * 0.5, f"s{i}", {"x": i}] for i in range(30)}


def _integer_loop():
    acc = 0
    for i in range(1000):
        acc += i * i % 7


def _small_numpy():
    for _ in range(40):
        _SMALL.sum(axis=1)
        np.zeros((4, 4))


def _json_round_trip():
    json.loads(json.dumps(_DOC))


def _argparse_parser():
    parser = argparse.ArgumentParser(prog="probe")
    sub = parser.add_subparsers(dest="command")
    p = sub.add_parser("a")
    p.add_argument("--x", type=float, default=1.0)
    parser.parse_args(["a", "--x", "2"])


# (part, its time in seconds on a fast core of the 2-vCPU machine the
# baseline came from); the reference scale of every reported time
PROBE = ((_integer_loop, 7.0e-5), (_small_numpy, 1.05e-4), (_json_round_trip, 8.0e-5),
         (_argparse_parser, 2.2e-4))


class SpeedMeter:
    def __init__(self):
        self.starts: list = []   # probe start times, increasing
        self.lengths: list = []  # whole-probe durations
        self.speeds: list = []   # mean over parts of reference / observed time

    def _tick(self, signum, frame):
        start = now = time.perf_counter()
        ratio = 0.0
        for part, reference in PROBE:
            part()
            end = time.perf_counter()
            ratio += reference / (end - now)
            now = end
        self.starts.append(start)
        self.lengths.append(now - start)
        self.speeds.append(ratio / len(PROBE))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._tick(None, None)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def corrected(self, start: float, end: float) -> float:
        """Reference seconds of the interval [start, end] of wall time."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_right(self.starts, end)
        # a probe that started inside may end just after; count it all
        busy = end - start - sum(self.lengths[lo:hi])
        near = self.speeds[bisect.bisect_left(self.starts, start - WINDOW):
                           bisect.bisect_right(self.starts, end + WINDOW)]
        return busy * statistics.fmean(near)

    def factor(self) -> float:
        """Mean reference-to-observed speed ratio over every probe so far."""
        return statistics.fmean(self.speeds)
