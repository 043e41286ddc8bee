"""Machine-speed calibration for the end-to-end times.

The 2-vCPU VM this benchmark was developed on switches between a fast and a
slow state within seconds, and the mix drifts over minutes. In one
curv-specs run (seed 2001 of tuning set A in trajectory.json) the median of a
30-call burst of the kernel below was 10.5 ms in one burst and 16.6 ms in
another, and a pass took 2.9 s or 4.6 s.
So a run's raw times measure the host's state as much as the code.

Each run therefore times a fixed kernel that shares no code with curvlab: a
NumPy contraction shaped like the direction search (most of its time),
``Fraction`` arithmetic and a Python integer loop. It runs in bursts that
bracket every pass and every setup sample. The end-to-end times are
multiplied by ``REFERENCE_KERNEL_S / kernel_s()`` and so are given in seconds
on a machine where the kernel takes ``REFERENCE_KERNEL_S``.  ``kernel_s`` is
the geometric mean of the bursts' medians: a median over the run would jump
between the two states' times as the mix crosses one half, where a mean moves
with the mix, as the pass times do.  trajectory.json gives, for each
recorded set of ten runs, the spread of the raw and of the scaled times side
by side.
"""

from __future__ import annotations

import gc
import statistics
from fractions import Fraction
from time import perf_counter

import numpy as np

REFERENCE_KERNEL_S = 0.016  # median kernel time of the 30 runs of tuning set A, trajectory.json
BURST = 30  # kernel calls per burst, about 0.4 s


def _kernel(dirs, forms):
    np.einsum("si,cij,sj->sc", dirs, forms, dirs)
    acc = Fraction(0)
    for i in range(1, 40):
        acc += Fraction(i, i + 1) * Fraction(3, 7)
    x = 0
    for i in range(20_000):
        x += i * i
    return acc, x


class Calibration:
    def __init__(self):
        rng = np.random.default_rng(20251101)
        self._dirs = rng.standard_normal((20_000, 6))
        self._forms = rng.standard_normal((12, 6, 6))
        self.samples: list[float] = []
        self.burst_medians: list[float] = []

    def burst(self):
        # the collector's cost grows with the objects curvlab left alive
        gc.disable()
        try:
            for _ in range(BURST):
                t0 = perf_counter()
                _kernel(self._dirs, self._forms)
                self.samples.append(perf_counter() - t0)
        finally:
            gc.enable()
        self.burst_medians.append(statistics.median(self.samples[-BURST:]))

    def kernel_s(self) -> float:
        return statistics.geometric_mean(self.burst_medians)

    def scale(self) -> float:
        """Factor that turns this run's wall times into reference seconds."""
        return REFERENCE_KERNEL_S / self.kernel_s()
