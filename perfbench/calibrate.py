"""A fixed CPU kernel that measures how fast the machine runs right now.

The benchmark shares its host: on the 2-vCPU machine it was written on, the
same Python loop ran anywhere between 1x and 1.85x its fastest time, in
phases lasting from seconds to minutes, with no steal time reported. A
timing taken in a slow phase would read as a regression. So the benchmark
runs this kernel between trials and scales every measured time by
``NOMINAL_S / kernel time``: times are reported as they would read on the
machine running the kernel in exactly NOMINAL_S.

The kernel imitates the library's work per sample (numpy draws, an O(1)
top-two tally, log-gamma lookups, a posterior test at 1/2) and per trial
(seeding a generator, a multivariate hypergeometric batch), but is written
here and never imports modestop, so no change to the library moves it.
"""

from __future__ import annotations

import math
import time

import numpy as np

__all__ = ["NOMINAL_S", "kernel_seconds"]

NOMINAL_S = 0.003  # kernel time that defines the reported machine speed
_SAMPLES = 4096
_CHUNK = 256
_STREAMS = 16
_COLORS = np.array([1440, 18, 18, 18, 18, 18, 18, 18, 17, 17])
_LOG_FACT = [0.0, 0.0] + [math.lgamma(n) for n in range(2, _SAMPLES + 3)]
_CUM = np.array([0.35, 0.68, 0.80, 0.90, 1.0])
_LN2 = math.log(2.0)


class _Top2:
    __slots__ = ("counts", "first", "second")

    def __init__(self, k: int) -> None:
        self.counts = [0] * k
        self.first = 0
        self.second = 1

    def add(self, idx: int) -> None:
        counts = self.counts
        counts[idx] += 1
        first, second = self.first, self.second
        if idx == first:
            return
        c = counts[idx]
        if c > counts[first]:
            self.first, self.second = idx, first
        elif idx != second and c > counts[second]:
            self.second = idx


def _log_half(a: int, b: int) -> float:
    lg = _LOG_FACT
    return -(a + b) * _LN2 + lg[a + b + 2] - lg[a + 1] - lg[b + 1]


def _kernel() -> int:
    for i in range(_STREAMS):
        seq = np.random.SeedSequence((20210911, i))
        np.random.Generator(np.random.PCG64(seq)).multivariate_hypergeometric(_COLORS, 20)
    rng = np.random.Generator(np.random.PCG64(20210911))
    top = _Top2(len(_CUM))
    threshold = math.log(1e-30)
    stops = 0
    for _ in range(_SAMPLES // _CHUNK):
        for idx in np.searchsorted(_CUM, rng.random(_CHUNK), side="right").tolist():
            top.add(idx)
            counts = top.counts
            if _log_half(counts[top.first], counts[top.second]) <= threshold:
                stops += 1
    return stops


def kernel_seconds() -> float:
    """Wall time of one run of the kernel (about NOMINAL_S on a quiet host)."""
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0
