"""Timing in nominal seconds.

The benchmark runs on shared cores whose speed changes with other tenants'
load. On the 2-vCPU Intel Xeon VM where it was defined, the same pass ran
up to twice as slow from one minute to the next, and whole runs moved
together. That machine-wide drift is common to all code, so it is measured
and divided out.

A fixed reference kernel that does not touch ccdet is timed before the first
timed segment and after every segment. A segment's nominal duration is its
raw duration times the kernel's nominal time over the mean of the two
reference times that bracket it: the time the segment would take on a
machine that runs the kernel in its nominal time. Changes to ccdet still
show in full, because the kernels do not call it.

The drift differs between kinds of work, so a workload uses the kernel that
resembles it. The ``mixed`` kernel does numpy generator construction, small
draws and products, and a scalar loop over ``math`` and ``scipy.special``.
The ``blas`` kernel does the draws and products, large enough for OpenBLAS's
thread pool, that dominate ``mc_random_wide``.
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter, process_time

import numpy as np
from scipy import special

_PHI = np.random.default_rng(0).standard_normal((20, 100))
_PHI_WIDE = np.random.default_rng(1).standard_normal((50, 100))


def _mixed_kernel() -> float:
    """Generator construction, small draws and products, and a scalar loop."""
    acc = 0.0
    for i in range(70):
        draws = np.random.default_rng([7, i]).standard_normal((5, 100))
        acc += float((draws @ _PHI.T).sum())
        for j in range(60):
            acc += math.exp(-0.01 * j) * float(special.gammaln(j + 1.5))
    return acc


def _blas_kernel() -> float:
    """Draws and products of the size mc_random_wide makes per trial; at this
    size OpenBLAS runs its thread pool, as the workload does."""
    acc = 0.0
    for i in range(12):
        draws = np.random.default_rng([9, i]).standard_normal((50, 100))
        acc += float((draws @ _PHI_WIDE.T).sum())
    return acc


# kernel -> typical reference time on the shared 2-vCPU Intel Xeon VM the
# benchmark was defined on (numpy 2.4, scipy 1.17). Only its being fixed
# matters: it sets the scale of every nominal time.
KERNELS = {"mixed": (_mixed_kernel, 0.003), "blas": (_blas_kernel, 0.0017)}


def reference_seconds(kernel: str = "mixed") -> float:
    """Median wall time of three runs of a reference kernel, so that one
    interrupted run does not skew the segments next to it."""
    work = KERNELS[kernel][0]
    times = []
    for _ in range(3):
        start = perf_counter()
        if not math.isfinite(work()):
            raise ArithmeticError(f"reference kernel {kernel!r} gave a non-finite value")
        times.append(perf_counter() - start)
    return statistics.median(times)


class Clock:
    """Raw and nominal seconds of timed segments, by stage."""

    def __init__(self, kernel: str = "mixed") -> None:
        self.kernel = kernel
        self.reference_nominal = KERNELS[kernel][1]
        self.raw: dict[str, float] = defaultdict(float)
        self.nominal: dict[str, float] = defaultdict(float)
        self.cpu = 0.0
        self.references = [reference_seconds(kernel)]

    @contextmanager
    def segment(self, stage: str = "pass"):
        """Time the body as one segment of ``stage``."""
        cpu, start = process_time(), perf_counter()
        try:
            yield
        finally:
            elapsed = perf_counter() - start
            self.cpu += process_time() - cpu
            before = self.references[-1]
            after = reference_seconds(self.kernel)
            self.references.append(after)
            self.raw[stage] += elapsed
            self.nominal[stage] += elapsed * self.reference_nominal / (0.5 * (before + after))

    @property
    def raw_total(self) -> float:
        return sum(self.raw.values())

    @property
    def nominal_total(self) -> float:
        return sum(self.nominal.values())
