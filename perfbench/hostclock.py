"""Wall times scaled to a reference host speed.

The benchmark runs on a shared host whose speed changes by up to 2x, in
stretches of seconds to minutes, as other tenants load its cores: a fixed
pure-Python loop took 13 ms while they were idle and 23-26 ms while they
were busy, and the same build_catalog call took 216 ms and 440 ms within
one minute.  Medians over the passes of a run cannot remove a change that
lasts as long as the run, so raw wall times of runs a few minutes apart
differ by more than any useful bound.

While a run is timed, a SIGALRM timer therefore runs a fixed pure-Python
kernel (elimination of a 16 x 17 matrix over GF(31), about 1 ms) every
TICK_S seconds, in the benchmark's one thread, and records how long it
took.  A timed interval [t0, t1] is reported as

    scaled = (t1 - t0 - kernel time inside it) * mean(REF_S / d)

over the kernel durations d of the ticks that start within [t0 - WINDOW_S,
t1]: the wall time the interval would have taken at the speed where the
kernel takes REF_S.  Ticks are evenly spaced in time, so the mean of
REF_S / d is the host's mean speed over the interval.  Measured against
build_catalog(T2/GF(2), 3) run back to back with the kernel for 90 s, the
library's time moved 2x while its ratio to the kernel's stayed within
+-6% per 5-second window.  The kernel shares no code with moritakit, so a
change to the library moves scaled times as it moves wall time.
"""

from __future__ import annotations

import bisect
import signal
import time

TICK_S = 0.025
REF_S = 0.001
WINDOW_S = 0.2

P = 31
N = 16


def _start_rows():
    """A fixed 16 x 17 matrix over GF(31) of full rank, from an LCG."""
    x, rows = 12345, []
    for _ in range(N):
        row = []
        for _ in range(N + 1):
            x = (x * 1103515245 + 12345) % 2 ** 31
            row.append((x >> 16) % P)
        rows.append(tuple(row))
    return rows


START = _start_rows()


def kernel() -> int:
    """Reduced row echelon form of START; returns the rank (16)."""
    rows = [list(r) for r in START]
    seen = {}
    lead = 0
    for col in range(N + 1):
        piv = next((r for r in range(lead, N) if rows[r][col]), None)
        if piv is None:
            continue
        rows[lead], rows[piv] = rows[piv], rows[lead]
        inv = pow(rows[lead][col], P - 2, P)
        rows[lead] = [x * inv % P for x in rows[lead]]
        for r in range(N):
            if r != lead and rows[r][col]:
                f = rows[r][col]
                rows[r] = [(a - f * b) % P for a, b in zip(rows[r], rows[lead])]
        seen[tuple(rows[lead])] = col
        lead += 1
    return len(seen)


class HostClock:
    """Use as a context manager around the timed part of a run; stamp()
    before and after an interval, then interval(a, b) gives its wall and
    scaled seconds.  Without the context manager no ticks run and scaled
    equals wall."""

    def __init__(self):
        self.at, self.took = [], []
        self.kernel_s = 0.0
        self._busy = False
        self._old = None

    def _tick(self, signum=None, frame=None):
        if self._busy:  # a tick that fires inside a tick is dropped
            return
        self._busy = True
        start = time.perf_counter()
        kernel()
        took = time.perf_counter() - start
        self.at.append(start)
        self.took.append(took)
        self.kernel_s += took
        self._busy = False

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._tick)
        self._tick()  # so that the first interval has a tick before it
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        return False

    def stamp(self):
        return time.perf_counter(), self.kernel_s

    def interval(self, a, b):
        """(wall seconds without kernel time, seconds at reference speed)."""
        wall = (b[0] - a[0]) - (b[1] - a[1])
        lo = bisect.bisect_left(self.at, a[0] - WINDOW_S)
        hi = bisect.bisect_right(self.at, b[0])
        took = self.took[lo:hi] or self.took[-1:]
        if not took:
            return wall, wall
        return wall, wall * sum(REF_S / d for d in took) / len(took)

    def speeds(self) -> list:
        """REF_S / d for every tick so far: the host speed it measured."""
        return [REF_S / d for d in self.took]
