"""How fast the machine runs Python during a run, from a fixed probe loop
that does not touch degenq.

The reference machine shares its cores with other tenants.  Its speed
switches between a fast and a slow state (one probe takes about 1.9 ms or
about 3.4 ms) from one tenth of a second to the next, and the share of slow
time drifts over minutes, so clock times of identical work spread by up to
a half from run to run.  A run therefore times this probe between its jobs
and reports its times scaled to the speed at which one probe takes
``REF_PROBE_S``.  The probe multiplies dict-keyed Laurent polynomials, the
kind of work degenq's scalars do, but written here, so no change to degenq
can move it.
"""

from __future__ import annotations

import gc
import statistics
import time

REF_PROBE_S = 0.0025  # reported times are at the speed where one probe takes this long
PROBE_REPS = 20

_A = {i: (i * 7919) % 97 - 48 for i in range(-12, 13)}
_B = {i: (i * 104729) % 89 - 44 for i in range(-10, 11)}


def probe() -> float:
    """Seconds one probe takes now; the collector is paused so that it cannot
    pick up garbage a job left behind."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        acc: dict[int, int] = {}
        for _ in range(PROBE_REPS):
            out: dict[int, int] = {}
            for i, x in _A.items():
                for j, y in _B.items():
                    v = out.get(i + j, 0) + x * y
                    if v:
                        out[i + j] = v
                    else:
                        out.pop(i + j, None)
            for k, v in out.items():
                acc[k] = (acc.get(k, 0) + v) % 1000003
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class SpeedLog:
    """The probe times of one run, taken at even steps of its job time."""

    def __init__(self) -> None:
        probe()  # the first probe in a process runs unspecialised bytecode
        self.seconds: list[float] = []

    def probe(self) -> None:
        self.seconds.append(probe())

    def scale(self) -> float:
        """Factor that takes the run's times to reference speed.  One probe
        catches the fast or the slow state; the mean over the run weighs them
        as the run's jobs met them."""
        return REF_PROBE_S / statistics.fmean(self.seconds)
