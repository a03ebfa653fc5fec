"""A fixed probe of how fast the host runs Python code, right now.

The benchmark shares a few vCPUs with other tenants, whose load slows
the program by up to 1.8x for stretches of several seconds (CPU time
grows with wall time, so rusage cannot tell the slowdown apart).
``child.py`` runs :func:`probe` between injections and around set-up,
and scales each timed interval by the probe times measured around it,
which turns seconds on the host as it was into seconds on the host as
it is when quiet (:data:`QUIET_PROBE_S`).

The probe is the benchmark's own code, never the program's, so a change
to the program moves the timings but not the probe.  It has two halves
of about equal time: a plain interpreter loop, and small numpy
operations on a 256 x 32-lane register file, the simulator's own kind
of work.  Neither alone tracks every workload: over ten invocations per
workload, the log-log slope of scaled campaign time against the loop's
time was +0.21 / -0.11 / -0.12 (bt-transient / bt-permanent / bt-serve)
with the loop alone, -0.03 / -0.31 / +0.01 with the numpy half alone,
and +0.09 / -0.21 / -0.05 with both (0 = fully corrected).
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: About the probe time on a quiet 2-vCPU Xeon host; scaled timings are
#: in seconds on such a host.  A constant, so that every commit's figures
#: are on the same scale.
QUIET_PROBE_S = 0.0022
#: An interval is scaled by the mean of the probes taken inside it, or of
#: this many probes nearest to its midpoint when fewer fall inside.  A
#: mean, not a median, because a probe that the host paused stands for
#: pauses the program's time includes too: over ten runs of one 370.bt
#: campaign, timings scaled by means of the loop half alone varied by
#: 2.4%, by medians 3.1%, unscaled 7.5%.
NEAREST = 7

ITERATIONS = 15_000
REGISTERS = 256
LANES = 32
_REGS = np.arange(REGISTERS * LANES, dtype=np.int32).reshape(REGISTERS, LANES)
_FREGS = np.linspace(0.0, 1.0, REGISTERS * LANES, dtype=np.float32).reshape(
    REGISTERS, LANES
)
_OPERANDS = [
    ((7 * i) % REGISTERS, (13 * i + 1) % REGISTERS, (29 * i + 2) % REGISTERS)
    for i in range(150)
]
_HALF = np.float32(0.5)
_QUARTER = np.float32(0.25)


def probe() -> float:
    """Seconds the host takes, now, for one fixed unit of work."""
    started = time.perf_counter()
    total = 0
    for i in range(ITERATIONS):
        total += i * i % 7
    for a, b, c in _OPERANDS:
        _REGS[a] = (_REGS[b] + _REGS[c]) & 0xFFFF
        _FREGS[a] = _FREGS[b] * _HALF + _FREGS[c] * _QUARTER
        _REGS[c] = np.where(_REGS[b] < _REGS[c], _REGS[a], _REGS[b])
    return time.perf_counter() - started


class Probes:
    """The probes one process took: ``(start time, seconds)`` pairs.

    ``perf_counter`` reads the system-wide monotonic clock, so events of
    different processes of one run compare.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.events: list[tuple[float, float]] = []

    def take(self, times: int = 1) -> None:
        for _ in range(times if self.enabled else 0):
            self.events.append((time.perf_counter(), probe()))


def spent(events, start: float, end: float) -> float:
    """Seconds of probing that started inside ``[start, end)``."""
    return sum(seconds for at, seconds in events if start <= at < end)


def scale(events, start: float, end: float) -> float:
    """The factor that turns host seconds in ``[start, end]`` into seconds
    on a quiet host (1.0 when nothing was probed)."""
    if not events:
        return 1.0
    inside = [seconds for at, seconds in events if start <= at <= end]
    if len(inside) < NEAREST:
        middle = (start + end) / 2
        near = sorted(events, key=lambda event: abs(event[0] - middle))
        inside = [seconds for _, seconds in near[:NEAREST]]
    return QUIET_PROBE_S / statistics.mean(inside)
