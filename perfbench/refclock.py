"""Wall time rescaled to a reference speed of the host.

The shared 2-vCPU host the reference figures come from alternates, over
seconds to minutes, between a fast and a slow state about 1.5x apart, and
the share of fast time changes from run to run; raw timings of the same
code then spread 14-27% between runs.  A `RefClock` probes the host's
current speed with a fixed ~2 ms mix of interpreter and numpy work at
every lap and every PERIOD seconds in between (from a SIGALRM interval
timer, so also inside a single long call of the program, between two of
its Python bytecodes).  Each stretch between two probes is rescaled to a
host on which the probe takes P_REF seconds, by the mean of the two
probes; probe time is not counted.  The probe calls nothing of
cycleweights, so a change to the program moves these times as it moves
raw ones.
"""

import signal
import time

import numpy as np

# the probe's time on the reference host (this one, in its slow state)
P_REF = 0.0025
# seconds between probes inside a lap
PERIOD = 0.2

_A = np.linspace(0.0, 1.0, 4096)


def probe() -> float:
    """Seconds taken by a fixed mix of interpreter and numpy work."""
    t = time.perf_counter()
    s = 0
    for i in range(20000):
        s += i * i
    for _ in range(40):
        s += float(np.sum(np.exp(_A * 0.5)))
    return time.perf_counter() - t


class RefClock:
    """Laps of reference-speed seconds.  Owns SIGALRM until `close`."""

    def __init__(self):
        self._probing = False  # a nested timer signal then adds no probe
        # (start, end, probe seconds) of each probe since the last lap
        self._marks = []
        self._last = self._mark()
        signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def _mark(self):
        t = time.perf_counter()
        p = probe()
        return t, time.perf_counter(), p

    def _on_timer(self, signum, frame):
        if not self._probing:
            self._probing = True
            self._marks.append(self._mark())
            self._probing = False

    def lap(self) -> float:
        """Reference-speed seconds since the previous lap."""
        self._probing = True
        marks = [self._last] + self._marks + [self._mark()]
        self._marks = []
        self._last = marks[-1]
        self._probing = False
        return sum((b[0] - a[1]) * 2.0 * P_REF / (a[2] + b[2])
                   for a, b in zip(marks, marks[1:]))

    def close(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
