"""Machine-speed probe: times work and expresses it in reference seconds.

On a shared machine the speed one process gets can change by a factor of
about 1.8 within tens of seconds, which swamps most changes to the program.
So while timed work runs, a SIGALRM handler times a small fixed computation
that does not use ftracekit (`probe_work`) every PERIOD_S seconds.  The
work's time, less the time spent in the handler, divided by the median
probe and multiplied by REFERENCE_S, is its duration in reference seconds:
the time it would have taken at the speed the reference machine gives that
computation when nothing else contends for it.
"""

from __future__ import annotations

import signal
import statistics
import time

PERIOD_S = 0.25
# Duration of probe_work() on the 2-core x86 virtual machine (Python 3.11,
# numpy 2.4) the benchmark was defined on, when uncontended: about the 5th
# percentile of its durations over a few minutes.
REFERENCE_S = 0.0065
LEAST_SAMPLES = 3


def probe_work() -> float:
    """Time a fixed run of small-array numpy sorts and cumulative sums.

    Of the probes tried (this one, regex and dict work, and pure
    interpreter work on small objects), this one tracked the speed of all
    three workloads best: divided by it, per-call times varied 3-8% where
    raw times varied 9-22% over the same minutes."""
    import numpy as np
    X = np.random.default_rng(12345).random((256, 16))
    t0 = time.perf_counter()
    for j in range(400):
        x = X[:, j % 16]
        np.cumsum(x[np.argsort(x, kind="stable")])
    return time.perf_counter() - t0


class SpeedProbe:
    """Context manager that times its body and samples the machine's speed
    while it runs.  `seconds` excludes the sampling, `ticks` are the
    sampling intervals, and `factor` converts seconds to reference seconds.
    Must run on the main thread, which receives SIGALRM."""

    def __init__(self):
        self.samples: list[float] = []
        self.ticks: list[tuple[float, float]] = []  # (start, end) in the body
        self.spent = 0.0
        self.seconds = 0.0
        self._busy = False

    def _tick(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            start = time.perf_counter()
            self.samples.append(probe_work())
            end = time.perf_counter()
            self.ticks.append((start, end))
            self.spent += end - start
        finally:
            self._busy = False

    def __enter__(self) -> "SpeedProbe":
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        elapsed = time.perf_counter() - self._t0
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)
        # a body shorter than a few periods is judged by probes after it
        while len(self.samples) < LEAST_SAMPLES:
            self.samples.append(probe_work())
        self.seconds = elapsed - self.spent
        return False

    @property
    def factor(self) -> float:
        """Reference seconds per second while the body ran."""
        return REFERENCE_S / statistics.median(self.samples)

    @property
    def reference_s(self) -> float:
        return self.seconds * self.factor
