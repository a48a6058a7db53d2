"""Calibration kernels that put wall times on a fixed machine speed.

Shared machines change speed by up to 2x over tens of seconds, which
swamps run-to-run comparison of raw wall time. The benchmark times a fixed
kernel right before and right after every op and reports each op's time
scaled by ``REF_S`` over the mean of the two kernel times: the time the op
would take on a machine where the kernel takes ``REF_S``. Bracketing the
op catches a change of speed on either side of it. The kernel does the
same kind of work as the workload's bottleneck, because the interpreter
and numpy's normal sampler do not slow by the same factor on a shared
machine (README.md gives the spreads). The kernels call nothing in
``gmprod``. The program can still slow them by work an op leaves running,
such as busy threads, so the benchmark records the CPU time other threads
use while a kernel runs and warns when it is large.
"""

from __future__ import annotations

import gc
import statistics
import time
from collections import Counter
from fractions import Fraction

import numpy as np

REF_S = 0.005


def interpreter() -> None:
    """Interpreter-bound work: Counter and Fraction arithmetic, tiny numpy products."""
    total = Fraction(0)
    for i in range(300):
        tally = Counter((i % 7, j % 5) for j in range(12))
        total += Fraction(sum(tally.values()), i + 1)
    rng = np.random.Generator(np.random.Philox(1))
    for _ in range(150):
        x = rng.standard_normal((4, 4))
        float((x @ x.T).sum())


def draws() -> None:
    """Normal-draw-bound work: a quarter million Philox normals."""
    float(np.random.Generator(np.random.Philox(1)).standard_normal(250_000).sum())


KERNELS = {"interpreter": interpreter, "draws": draws}


def kernel_seconds(kind: str, repeat: int = 1) -> float:
    """Median time of ``repeat`` back-to-back runs of a kernel.

    The garbage collector is off while the kernel runs, so the size of the
    heap the program has left behind cannot change the kernel's time.
    """
    kernel = KERNELS[kind]
    times = []
    gc.disable()
    try:
        for _ in range(repeat):
            t = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - t)
    finally:
        gc.enable()
    return statistics.median(times)


def scaled(times: list[float], before: list[float], after: list[float]) -> list[float]:
    """Each op time scaled by REF_S over the mean of the kernel times around it."""
    return [t * REF_S / ((b + a) / 2) for t, b, a in zip(times, before, after)]
