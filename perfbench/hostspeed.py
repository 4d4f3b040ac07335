"""Host-speed control for a shared, noisy host.

On a host shared with other tenants, the same interpreter-bound work runs
up to ~2x slower on a CPU whose physical core another tenant is busy on, for
stretches of seconds to minutes, and neither process CPU time nor steal time
shows it.  Which CPU is the loaded one changes over time, and the scheduler
moves a single-threaded run between them.

:class:`HostSpeed` therefore times a fixed calibration kernel on every CPU
the process may use, between calls, and keeps the process (and the children
it starts) on the CPU that was fastest.  The kernel time on that CPU is also
recorded: end-to-end times are scaled by
``(KERNEL_NOMINAL_S / median(kernel time)) ** SENSITIVITY`` so a slowdown
that lasts the whole run does not read as a regression.  The kernel does not touch the
library, so a change to the library moves the normalised metrics exactly as
it moves the raw ones; the raw values are reported alongside.
"""

from __future__ import annotations

import gc
import heapq
import os
import statistics
import time
from typing import List, Optional

import numpy as np

#: Median kernel time on the reference host (2-vCPU x86_64, CPython 3.11,
#: numpy 2.4) on an unloaded CPU; a factor of 1.0 means "as fast as that".
KERNEL_NOMINAL_S = 0.0035

#: How strongly the workloads slow when the kernel slows: the interpreter-
#: bound kernel suffers more from a busy sibling core than the library's
#: mix of interpreter and numpy code.  Over ten-seed sweeps on a loaded host
#: the worst workload's run-to-run spread (interquartile range over median)
#: was 35 % raw and 19 % / 18 % / 16 % with exponents 1.0 / 0.5 / 0.75.
SENSITIVITY = 0.75

#: Minimum wall time between two samples (keeps the cost near 3 % on 2 CPUs).
SAMPLE_EVERY_S = 0.2


def calibration_kernel() -> int:
    """Fixed interpreter-bound work shaped like the library's inner loops:
    heap pushes and pops, dict updates and scalar numpy draws."""
    rng = np.random.default_rng(0)
    heap: list = []
    counts: dict = {}
    for index in range(3000):
        heapq.heappush(heap, ((index * 7919) % 1000, index, "task"))
        counts[index % 97] = counts.get(index % 97, 0) + 1
        if index % 3 == 0:
            rng.normal()
    while heap:
        heapq.heappop(heap)
    return len(counts)


def timed_kernel() -> float:
    """Seconds one kernel run takes.  Without the collector the time does not
    depend on how many objects the workload keeps alive; the kernel makes no
    cycles."""
    gc.disable()
    try:
        start = time.perf_counter()
        calibration_kernel()
        return time.perf_counter() - start
    finally:
        gc.enable()


class HostSpeed:
    """Keeps the process on its fastest CPU and records the kernel time there."""

    def __init__(self, cpus: Optional[List[int]] = None) -> None:
        """``cpus`` defaults to the CPUs this process may use now; pass the
        first instance's list to a later one, since sampling pins the process."""
        if cpus is None and hasattr(os, "sched_setaffinity"):
            cpus = sorted(os.sched_getaffinity(0))
        self.cpus: List[int] = list(cpus or [])
        self.samples: List[float] = []
        self._last = float("-inf")

    def sample(self, force: bool = False) -> None:
        """Time the kernel on every CPU and move to the fastest, unless the
        last sample is less than ``SAMPLE_EVERY_S`` old."""
        if not force and time.perf_counter() - self._last < SAMPLE_EVERY_S:
            return
        if len(self.cpus) > 1:
            times = {}
            try:
                for cpu in self.cpus:
                    os.sched_setaffinity(0, {cpu})
                    times[cpu] = timed_kernel()
                fastest = min(times, key=times.get)
                os.sched_setaffinity(0, {fastest})
            except OSError:  # affinity refused: stay where the scheduler puts us
                self.cpus = []
                times = {None: timed_kernel()}
                fastest = None
            self.samples.append(times[fastest])
        else:
            self.samples.append(timed_kernel())
        self._last = time.perf_counter()

    @property
    def factor(self) -> float:
        """Host speed relative to the reference (below 1 when slower),
        scaled to the workloads' sensitivity to core contention."""
        return (KERNEL_NOMINAL_S / statistics.median(self.samples)) ** SENSITIVITY
