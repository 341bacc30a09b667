"""Reference clock: raw seconds scaled by how fast the host runs a fixed loop.

Time on a shared two-core host drifts by tens of percent within a
second and between runs, while CPU time tracks wall time, so raw seconds
cannot be compared across runs.  A timed section therefore runs under an
interval timer: every ``SAMPLE_INTERVAL_S`` a signal handler times a
short fixed pure-Python reference loop, and the wall time since the
previous sample is scaled by how fast that loop ran.  The sum is in
*reference seconds*: raw seconds on a host that runs the loop in
``REF_NOMINAL_S``.  Sampling all through the section tracks the host's
speed far better than timing a loop only between operations.
"""

from __future__ import annotations

import signal
import time

_MASK64 = (1 << 64) - 1
REF_ITERS = 400
# Nominal duration of the reference loop: it fixes the unit (raw seconds on
# a host that runs the loop this fast), not the comparison.
REF_NOMINAL_S = 0.00025
SAMPLE_INTERVAL_S = 0.01


def reference_loop() -> int:
    """Fixed integer, dict and list traffic, like the program's inner loops."""
    table: dict[int, int] = {}
    window: list[int] = []
    x = 0x2545F4914F6CDD1D
    for i in range(REF_ITERS):
        x ^= (x << 13) & _MASK64
        x ^= x >> 7
        x ^= (x << 17) & _MASK64
        k = x & 1023
        table[k] = table.get(k, 0) + i
        window.append(k)
        if len(window) > 32:
            del window[0]
    return len(table) + sum(window)


def time_reference() -> float:
    t0 = time.perf_counter()
    reference_loop()
    return time.perf_counter() - t0


class RefClock:
    """Raw and reference seconds of one section, sampled by SIGALRM.

    Signal handlers run between bytecodes of the main thread, so a sample
    never interrupts the program inside an operation it must finish; the
    time a sample takes is kept out of the section and reported to
    ``on_exclude`` so a tracer can keep it out of the layer it ran in.
    """

    def __init__(self, on_exclude=None):
        self.on_exclude = on_exclude
        self.raw_s = 0.0
        self.norm_s = 0.0
        self.refs: list[float] = []
        self.running = False

    def _account(self, dt: float, ref: float) -> None:
        self.raw_s += dt
        self.norm_s += dt * REF_NOMINAL_S / ref

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        reference_loop()
        t1 = time.perf_counter()
        self.refs.append(t1 - t0)
        self._account(t0 - self._t, t1 - t0)
        if self.on_exclude is not None:
            self.on_exclude(time.perf_counter() - t0)
        self._t = time.perf_counter()

    def start(self) -> "RefClock":
        signal.signal(signal.SIGALRM, self._sample)
        self.running = True
        self._t = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def stop(self) -> None:
        if not self.running:
            return
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self.running = False
        dt = time.perf_counter() - self._t
        # the tail since the last sample runs at the last sample's speed
        self._account(dt, self.refs[-1] if self.refs else time_reference())
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    @property
    def scale(self) -> float:
        return self.norm_s / self.raw_s if self.raw_s > 0 else 1.0
