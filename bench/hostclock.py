"""A benchmark clock that corrects for the host's drifting CPU speed.

On a shared host the speed of the same single-threaded code changes while it
runs. A fixed kernel, timed back to back on an otherwise idle process, takes
either about 15 ms or about 22 ms, switching within seconds; the share of time
spent in the slow state changes over minutes, and moved the median of ten
labor-sweep runs by 35% between two sets of runs of unchanged code.

While a run is measured, this clock runs that reference kernel every
``INTERVAL`` seconds from a SIGALRM handler, between two Python bytecodes of
whatever the program is doing. Each stretch of work between two reference runs
is scaled by ``NOMINAL_S`` over the mean duration of those two runs, so a
timing reads as it would on an uncontended host. The reference runs themselves
are excluded from every timing. The kernel mixes the kinds of work the
program does: interpreted Python with dicts and string formatting, and scipy
sparse construction and mat-vecs. It uses no wtnrank code, so a faster
program cannot speed it up.

The correction assumes the program runs one thread at a time: the program's
own threads on the other core slow the kernel too, and would be corrected away
as if the host were contended. Around multi-threaded work, ``pause()`` the
clock: from then on it takes no reference runs and leaves timings as measured.

Usage: ``start()``, take ``now()`` readings around the work, optionally
``pause()``, ``stop()``, then convert readings with ``scaled()`` (or take
``duration(a, b)``).
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np
from scipy import sparse

INTERVAL = 0.3
NOMINAL_S = 0.015  # the kernel's duration on an uncontended 2-vCPU Xeon host


class HostClock:
    def __init__(self):
        rng = np.random.default_rng(12345)
        n, nnz = 2000, 100_000
        self._coo = (rng.random(nnz), (rng.integers(0, n, nnz), rng.integers(0, n, nnz)))
        self._shape = (n, n)
        self._x0 = rng.random(n)
        self._values = rng.random(4000).tolist()
        self.marks: list[tuple[float, float]] = []  # (now() at the run, its duration)
        self._excluded = 0.0
        self._paused = False
        self._previous = None
        self._knots = None

    def _kernel(self) -> None:
        m = sparse.coo_matrix(self._coo, shape=self._shape).tocsc()
        x = self._x0
        for _ in range(20):
            x = m @ x
            x = 0.85 * x / x.sum() + 0.15 / x.size
        table = {}
        for i, value in enumerate(self._values):
            table[(i % 97, repr(value))] = value * 0.5
        ",".join(f"{v:.6g}" for v in table.values())

    def now(self) -> float:
        """Wall time minus the time spent in reference runs."""
        return time.perf_counter() - self._excluded

    def sample(self) -> None:
        start = time.perf_counter()
        self._kernel()
        took = time.perf_counter() - start
        self.marks.append((start - self._excluded, took))
        self._excluded += took

    def _on_alarm(self, signum, frame) -> None:
        self.sample()
        # one-shot timer, re-armed here, so a handler never interrupts itself
        signal.setitimer(signal.ITIMER_REAL, INTERVAL)

    def start(self) -> None:
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL)

    def pause(self) -> None:
        """Take no more reference runs; time from here on is left as measured."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()
        self._paused = True

    def stop(self) -> None:
        if not self._paused:
            self.pause()
            self._paused = False
        at = np.array([t for t, _ in self.marks])
        took = np.array([d for _, d in self.marks])
        slope = NOMINAL_S / ((took[:-1] + took[1:]) / 2)
        last = NOMINAL_S / took[-1]
        if self._paused:  # the stretch from the pause to now is not corrected
            at = np.append(at, self.now())
            slope = np.append(slope, 1.0)
            last = 1.0
        self._knots = (at, np.concatenate(([at[0]], at[0] + np.cumsum(slope * np.diff(at)))),
                       NOMINAL_S / took[0], last)

    def scaled(self, t: float) -> float:
        """A ``now()`` reading taken after ``start()``, speed-corrected."""
        at, y, first, last = self._knots
        if t < at[0]:
            return float(y[0] - first * (at[0] - t))
        if t > at[-1]:
            return float(y[-1] + last * (t - at[-1]))
        return float(np.interp(t, at, y))

    def duration(self, start: float, end: float) -> float:
        return self.scaled(end) - self.scaled(start)

    def reference_s(self) -> float:
        """Median duration of the reference kernel over the run."""
        return statistics.median(d for _, d in self.marks)
