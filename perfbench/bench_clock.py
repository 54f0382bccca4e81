"""Wall-clock timing rescaled to a nominal host speed.

The benchmark runs on shared hosts whose speed drifts by 20-50 % in phases
lasting from under a second to minutes (other tenants on the same cores),
and the drift hits the package and any other CPU-bound code alike.  While a
timed operation runs, an interval timer interrupts it every
:data:`SAMPLE_INTERVAL_S` and times a short fixed pure-Python reference loop
in the signal handler, so the loop samples the host's speed at the same
moments and on the same CPU as the operation.  The operation's own wall time
(the handler's time taken out) is then rescaled by
``REFERENCE_NOMINAL_S / median(reference samples)``.  The result reads as the
operation's wall time on a host running the reference loop in
``REFERENCE_NOMINAL_S``: a slower package reads slower by the same ratio
(the loop runs no package code), while a host phase that stretches the loop
and the operation alike cancels.

The raw wall times are kept next to the rescaled ones, and the runner
prints both.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import Any, Callable, List, Tuple

#: Iterations of the reference loop (about 1 ms on a 2-CPU x86 host).
REFERENCE_LOOPS = 12_000
#: Wall time of the reference loop at nominal host speed.
REFERENCE_NOMINAL_S = 0.001
#: How often a running operation is interrupted to sample the host speed
#: (the samples cost about 2 % of the operation's time, which is taken out).
SAMPLE_INTERVAL_S = 0.05


def reference_s() -> float:
    """Wall time of one pass of the fixed reference loop."""
    started = time.perf_counter()
    total = 0
    for value in range(REFERENCE_LOOPS):
        total += value * value
    return time.perf_counter() - started


class NominalClock:
    """Times calls and rescales each one by the reference loop run during it."""

    def __init__(self) -> None:
        reference_s()  # warm-up
        self.references: List[float] = []
        self._samples: List[float] = []

    def _sample(self, signum, frame) -> None:
        self._samples.append(reference_s())

    def time(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Tuple[Any, float, float]:
        """Call ``fn``; return its result, its raw wall time and its nominal time.

        The reference loop also runs once right before and once right after
        the call, so that calls shorter than the sampling interval still get
        a reference.  An exception from ``fn`` propagates.
        """
        # The handler stays installed after the call: a signal still pending
        # when the timer is disarmed then lands in this list, not in the
        # default handler (which would end the process).
        self._samples = [reference_s()]
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        started = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - started
            signal.setitimer(signal.ITIMER_REAL, 0.0)
        samples = list(self._samples)
        during = samples[1:]
        samples.append(reference_s())
        self.references += samples
        own_s = elapsed - sum(during)
        return result, own_s, own_s * REFERENCE_NOMINAL_S / statistics.median(samples)

    def speed(self) -> float:
        """Median host speed seen so far, as nominal over measured reference time."""
        return REFERENCE_NOMINAL_S / statistics.median(self.references)
