"""Scale measured times to a fixed reference speed of the host.

On a host shared with other tenants the speed of plain Python code
swings by a third within seconds and drifts over minutes, far more than
the changes the benchmark has to resolve.  So a fixed probe is timed
every few tenths of a second during a run, and each operation's time is
multiplied by the probe's reference time over the probe time around it
(a running median of five probes).  Every time is then reported as it
would read on a host where the probe takes exactly its reference time.

Two probes match the two kinds of workload.  In-process workloads use a
kernel of stdlib ``Fraction`` arithmetic, the package's own scalar type.
Workloads made of child processes use a bare ``python -c pass``, which
tracks process start-up far better than any in-process kernel.  Neither
probe touches the package, so the factor does not depend on which
version of the package runs: two versions compare as they would on a
quiet host.
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction
from typing import Callable

# probes on each side of one in the running median
SMOOTHING = 2
# reference probe times, close to the fastest seen on the reference machine
KERNEL_REFERENCE_S = 1e-3
KERNEL_PERIOD_S = 0.2
INTERPRETER_REFERENCE_S = 50e-3
INTERPRETER_PERIOD_S = 1.0


def fraction_kernel() -> Fraction:
    acc = Fraction(0)
    for k in range(1, 120):
        acc = Fraction(k, k + 1) * Fraction(2, 3) + Fraction(1, k) + acc * Fraction(1, 2)
    return acc


def fraction_kernel_seconds() -> float:
    """Fastest of three kernel runs, with the collector off so no collection lands in it."""
    gc.disable()
    try:
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            fraction_kernel()
            best = min(best, time.perf_counter() - start)
        return best
    finally:
        gc.enable()


class HostSpeed:
    """Probe timings taken during a run, and the scale factors they give."""

    def __init__(self, probe: Callable[[], float], reference_s: float, period_s: float) -> None:
        self.probe = probe
        self.reference_s = reference_s
        self.period_s = period_s
        self.samples: list[float] = []
        self._due = 0.0

    def tick(self) -> int:
        """Probe when one is due; return the index of the latest probe."""
        if time.perf_counter() >= self._due:
            self.samples.append(self.probe())
            self._due = time.perf_counter() + self.period_s
        return len(self.samples) - 1

    def scales(self) -> list[float]:
        """Per probe: the reference time over the smoothed probe time."""
        s = self.samples
        return [
            self.reference_s / statistics.median(s[max(0, k - SMOOTHING) : k + SMOOTHING + 1])
            for k in range(len(s))
        ]
