"""Host speed, sampled inside the measured process.

The benchmark's host is a few cores of a shared machine.  Its cores slow
down and speed up by 20% and more within seconds as other tenants come and
go, and delaytree's per-vertex Python loops slow with them, so raw wall
times of one build spread past any useful bound.  A ``Speedometer``
interrupts the process every ``PERIOD_S`` of wall time (``SIGALRM``) and
times one fixed block of work: Python-level reads, at scattered positions,
of a 16 MB NumPy table, so that the block feels contention for the shared
caches as delaytree's loops over NumPy arrays do (a block that stays in L1
tracks the host less well).  The block never touches delaytree, so a change
to the program cannot move its duration; what moves it is the host.  A span of wall time is then reported as

    (wall - time spent in probes) * mean(REF_PROBE_S / probe duration)

over the probes inside the span: the time the same work would take on a
host that runs the block in ``REF_PROBE_S``.  Python runs a signal handler
only between bytecodes, so during one long native call the probes wait and
the span is scaled by the probes around it.
"""

from __future__ import annotations

import bisect
import signal
import time

import numpy as np

PERIOD_S = 0.1
PROBE_ITERS = 20_000
TABLE_ENTRIES = 1 << 21  # float64: 16 MiB, resident for the life of the meter
# median probe duration on the reference machine (README.md)
REF_PROBE_S = 0.006


def probe(table: np.ndarray) -> float:
    """Seconds one fixed block of reads from ``table`` takes now."""
    mask = len(table) - 1
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(PROBE_ITERS):
        acc += float(table[(i * 7919) & mask])
    return time.perf_counter() - t0


class Speedometer:
    """Probes the host speed every ``period`` seconds between start and stop."""

    def __init__(self, period: float = PERIOD_S):
        self.period = period
        self.table = np.random.default_rng(0).random(TABLE_ENTRIES)
        self.table_mb = self.table.nbytes / 2**20
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._previous = None

    def _on_alarm(self, signum, frame) -> None:
        self.starts.append(time.perf_counter())
        self.durations.append(probe(self.table))

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def __enter__(self) -> "Speedometer":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def at_reference_speed(self, t0: float, t1: float) -> tuple[float, float]:
        """(work seconds, reference seconds) of the wall span ``[t0, t1]``.

        Work seconds are the span minus the probes that ran inside it;
        reference seconds scale them by the probes' mean speed.  A span no
        probe fell into is scaled by the nearest probe.
        """
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        inside = self.durations[lo:hi]
        work = (t1 - t0) - sum(inside)
        if not inside:
            if not self.durations:
                raise ValueError("no probe has run yet")
            inside = [self.durations[min(lo, len(self.durations) - 1)]]
        speed = sum(REF_PROBE_S / d for d in inside) / len(inside)
        return work, work * speed
