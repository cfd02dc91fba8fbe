"""Wall time scaled to a fixed host speed.

On a shared host the same CPU-bound run can take twice as long while another
tenant contends for the core, and CPU time grows with it, so neither raw
wall time nor CPU time repeats from one batch of runs to the next. While a
measured call runs, a SIGALRM timer runs a fixed pure-Python kernel every
10 ms and records how long it took. The call's wall time, less the kernel's
own, is scaled by ``REFERENCE_S / mean(kernel time)``: it reads as seconds at
the speed where one kernel takes ``REFERENCE_S``, about an uncontended core
of a 2-core Xeon VM. A slower program still reads slower; a busier host
mostly does not: on that VM, slowed two to three times by other tenants,
the median raw time of an 800-record run spread 18% between six windows of
15 s and the scaled time 4%. The kernel costs about 1-2% of the call.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

PERIOD_S = 0.01
REFERENCE_S = 100e-6

_KEYS = [("k", i) for i in range(97)]
_TABLE = dict.fromkeys(_KEYS, 0)


def kernel() -> None:
    # Dict lookups, integer and string work that allocate no object the
    # garbage collector tracks, so a sample never pays for a collection of
    # the measured program's heap.
    for i in range(500):
        key = _KEYS[i % 97]
        _TABLE[key] = (_TABLE[key] + i) & 0xFFFF
        str(i)


class Probe:
    """Context manager timing its body; ``scaled_s`` is the result."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.wall_s = 0.0
        self._busy = False

    def _sample(self, *_) -> None:
        # A tick that lands inside a sample would time itself into it.
        if self._busy:
            return
        self._busy = True
        enabled = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        kernel()
        self.samples.append(time.perf_counter() - t0)
        if enabled:
            gc.enable()
        self._busy = False

    def __enter__(self) -> "Probe":
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        self._t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.wall_s = time.perf_counter() - self._t0
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        # The first sample ran before the clock started.
        self.work_s = self.wall_s - sum(self.samples[1:])
        self._sample()

    @property
    def scale(self) -> float:
        return REFERENCE_S / statistics.fmean(self.samples)

    @property
    def scaled_s(self) -> float:
        return self.work_s * self.scale
