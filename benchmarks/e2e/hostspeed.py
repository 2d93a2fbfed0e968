"""Host-speed reference for the end-to-end benchmark.

A shared host's speed drifts: on a shared 2-core x86 VM the same call took
up to twice as long a few minutes later, with no CPU steal reported (other
tenants contend for caches, memory bandwidth and turbo headroom).  A fixed
reference computation slows down with the host.  :class:`HostSpeed` times
it every few tenths of a second, and a call's wall time divided by the
reference's slowdown at that moment (:meth:`HostSpeed.factor_at`) holds
still while raw wall time wanders.

The reference has two parts, and a workload uses the ones that match where
its time goes: ``python`` (an interpreter loop and a dict build) for the
object walk, page decoding and single-query recursion, and ``python`` plus
``numpy`` (passes over a 10 MB array) for the struct-of-arrays kernels.
Across 50 windows of 15 s over 15 minutes, each workload kind's time
followed its reference with a log-log slope of 0.98-1.04; with the
numpy-heavy reference, interpreter-bound calls moved 1.3 times as far as
the reference did.

The reference runs in the measured process between calls, with the garbage
collector off, so the index's object count cannot change how long it
takes.  Timed in a child process instead, it tracked the index's speed
worse (correlation 0.6-0.7 against 0.7-0.9 in-process).
"""

from __future__ import annotations

import bisect
import gc
import math
import time

import numpy as np

# Each part's median on the 2-core VM the benchmark was calibrated on, so
# normalized timings read as that host's seconds.  Only the ratio matters
# when two commits are compared.
REFERENCE_S = {"python": 0.008, "numpy": 0.017}


class HostSpeed:
    """Timed samples of the reference parts ``parts``, ordered by when they
    ran."""

    INTERVAL_S = 0.3
    NEAREST = 3  # samples whose median gives the factor at a moment

    def __init__(self, parts: tuple[str, ...]):
        self.parts = parts
        self.reference_s = sum(REFERENCE_S[p] for p in parts)
        rng = np.random.default_rng(0)
        # Row blocks keep the temporaries small next to the index's memory.
        self.blocks = [rng.random((5_000, 64)) for _ in range(4)]
        self.vector = rng.random(64)
        self.times: list[float] = []  # midpoints, ascending
        self.seconds: list[float] = []
        self.last = -math.inf

    def sample(self, times: int = 1) -> None:
        for _ in range(times):
            gc.disable()
            try:
                start = time.perf_counter()
                if "python" in self.parts:
                    total = 0
                    for i in range(50_000):
                        total += i * i
                    table = {i: (i, str(i)) for i in range(20_000)}
                    del table
                if "numpy" in self.parts:
                    for _ in range(4):
                        for block in self.blocks:
                            np.abs(block - self.vector).sum(axis=1).argsort()
                self.last = time.perf_counter()
            finally:
                gc.enable()
            self.times.append((start + self.last) / 2)
            self.seconds.append(self.last - start)

    def maybe_sample(self) -> None:
        if time.perf_counter() - self.last >= self.INTERVAL_S:
            self.sample()

    def factor_at(self, moment: float) -> float:
        """How much slower than the reference host the host was around
        ``moment``: the median of the nearest samples in time."""
        i = bisect.bisect_left(self.times, moment)
        lo, hi = max(0, i - self.NEAREST), min(len(self.times), i + self.NEAREST)
        near = sorted(range(lo, hi), key=lambda j: abs(self.times[j] - moment))
        return float(np.median([self.seconds[j] for j in near[: self.NEAREST]])) / self.reference_s

    def factor(self) -> float:
        """The median slowdown over every sample."""
        return float(np.median(self.seconds)) / self.reference_s
