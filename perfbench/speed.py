"""Host-speed calibration: a fixed chunk of work timed alongside each workload.

The benchmark runs on shared hosts whose speed drifts by up to 2x over
seconds to minutes, and the drift does not show as steal time.  Every
timing the benchmark reports is therefore rescaled to a reference speed:

    reference seconds = measured seconds * REF_CHUNK_S / mean chunk time

where the chunk times are sampled on the same CPU during (``Sampler``) or
right around (``bracket``) the measured work.  The chunk is frozen code
that does not touch the package: small matrix-vector products (two thirds
of its time) and 2-vector projections.  That is the kind of work the
program itself does: Python loops that call many small numpy operations.
Of the kernels tried, these tracked the program's slow phases best; a
pure-Python integer loop slowed less than the program did.  A change to the program does not change the chunk, so a real
speed-up shows in full; only the host's drift is divided out.
"""

from __future__ import annotations

import signal
import time

import numpy as np

# Median chunk time on the reference machine (2-vCPU KVM guest, Xeon
# Sapphire Rapids, Python 3.11, numpy 2.4) in its fast phases.  Only a
# scale: it makes reference seconds read like seconds on that machine.
REF_CHUNK_S = 2.5e-3

# Signal period of the in-process sampler: chunks take about 6% of a run.
PERIOD_S = 0.04

_M = ((np.arange(32 * 32, dtype=float).reshape(32, 32) % 7.0) - 3.0) / 32.0
_V = np.linspace(-1.0, 1.0, 64).reshape(32, 2)
_CENTER = np.array([0.25, -0.5])
_POINTS = [np.array([np.cos(0.1 * k), np.sin(0.3 * k)]) for k in range(32)]


def _chunk_work() -> float:
    acc = 0
    x = _V
    for _ in range(120):
        y = _M @ x
        d = np.sqrt((y * y).sum(axis=1))
        x = y / (1.0 + d.max())
    for _ in range(6):
        for p in _POINTS:
            diff = p - _CENTER
            n = float(np.sqrt(diff @ diff))
            q = _CENTER + diff * (0.5 / n) if n > 0.5 else p
            acc += q[0] > 0
    return acc + float(x[0, 0])


def chunk() -> float:
    """Run one calibration chunk; return its wall time in seconds."""
    t0 = time.perf_counter()
    _chunk_work()
    return time.perf_counter() - t0


def factor(mean_chunk_s: float) -> float:
    """Multiplier from measured seconds to reference seconds."""
    return REF_CHUNK_S / mean_chunk_s


def bracket(count: int) -> list[float]:
    """``count`` chunk times, for calibrating a child process run just before
    or after on the same CPU."""
    return [chunk() for _ in range(count)]


class Sampler:
    """Run a chunk every ``PERIOD_S`` seconds from SIGALRM in this process.

    ``total`` is the time spent in chunks so far; timers subtract its growth
    to measure the program alone.  Python runs the handler
    between bytecodes of the main thread, so chunks land on the CPU the
    program is using at that moment, spread evenly over its run.
    """

    def __init__(self, period: float = PERIOD_S):
        self.period = period
        self.total = 0.0
        self.count = 0

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        _chunk_work()
        self.total += time.perf_counter() - t0
        self.count += 1

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)

    def stop(self) -> None:
        """Stop sampling; a run shorter than one period gets one chunk now."""
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if not self.count:
            self._tick(signal.SIGALRM, None)

