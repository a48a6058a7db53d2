"""Batched Monte Carlo trials of the statistic h = tr((A^T A)^2).

``h_samples(sample, spec, n, seed)`` returns the statistic of n trials
drawn by a one-trial sampler (``sample_product`` or ``sample_single``),
with trial i on stream ``seed.stream_index + i``.

A Philox generator keyed by the master seed serves a run of trials.
Before trial i, ``stream_rng(seed, rng, i)`` resets it to the state a
new generator for stream ``seed.stream_index + i`` starts in (counter
``(0, 0, stream_index + i, 0)``, empty buffer), and the sampler draws
from it. So each trial draws the same normals in the same order as a
Philox built for its stream, without building one per trial, nor a
``SeedSpec``. Each trial's matrix is checked by ``as_matrix`` and stored
in one slot of a preallocated stack; the statistic then runs as stacked
matrix products over the stack, the only place the package computes h.
A stack holds at most ``_CHUNK_ENTRIES`` matrix entries, which keeps
memory bounded; a trial with more entries than that runs alone.

Trials of a chain that draws at least ``_PARALLEL_NORMALS`` normals per
trial are drawn on every CPU the process may run on: each chunk is split
into contiguous blocks of trials, one per worker thread, and each worker
owns a Philox of its own. numpy's normal fill loop, large ufuncs and BLAS
release the interpreter lock, so the draws overlap. Since a trial's
values depend on its stream alone, the output is the same bit for bit
whatever the number of workers. No trial may draw or store more than
``_MAX_TRIAL_NORMALS`` values. None of these limits is a setting.
"""

from __future__ import annotations

import os
import threading
from collections.abc import Callable

import numpy as np

from .core import ChainSpec, as_matrix
from .sampling import SeedSpec, stream_rng

# 2**15 float64 entries, 256 KiB per stack.
_CHUNK_ENTRIES = 1 << 15
# Below 2**12 normals per trial, a trial spends most of its time in
# interpreter work, which holds the interpreter lock and so cannot
# overlap; such chains run on the calling thread.
_PARALLEL_NORMALS = 1 << 12
# 2**26 float64 values, 512 MiB: the most one trial may draw or store.
# Every worker holds a trial at a time, so this also bounds their memory.
_MAX_TRIAL_NORMALS = 1 << 26


def _cpu_count() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _stacked_h(x: np.ndarray) -> np.ndarray:
    """h of each matrix of an (m, rows, cols) stack: the squared Frobenius norm of X^T X."""
    # the Gram factor on the smaller side: X X^T and X^T X share nonzero eigenvalues
    xt = np.swapaxes(x, 1, 2)
    g = xt @ x if x.shape[2] <= x.shape[1] else x @ xt
    return (g * g).reshape(x.shape[0], -1).sum(axis=1)


def _in_threads(work: Callable[[int], None], count: int) -> None:
    """Run ``work(0)`` .. ``work(count - 1)`` at once, ``work(0)`` on the calling thread.

    Every thread started is joined before this returns, also on error.
    If calls raise, the error of the lowest-numbered one is raised.
    """
    errors: list[BaseException | None] = [None] * count

    def run(w: int) -> None:
        try:
            work(w)
        except BaseException as exc:  # handed to the calling thread below
            errors[w] = exc

    threads = []
    try:
        for w in range(1, count):
            thread = threading.Thread(target=run, args=(w,))
            thread.start()
            threads.append(thread)
        run(0)
    finally:
        for thread in threads:
            thread.join()
    for exc in errors:
        if exc is not None:
            raise exc


def h_samples(
    sample: Callable[[ChainSpec, np.random.Generator], np.ndarray],
    spec: ChainSpec,
    n: int,
    seed: SeedSpec,
) -> np.ndarray:
    """h of n trials of ``sample(spec, rng)``, trial i on stream ``seed.stream_index + i``.

    Raises ValueError, before drawing anything, when one trial of the
    chain would draw more than ``_MAX_TRIAL_NORMALS`` normals or its
    matrix would hold more than that many entries.
    """
    if n < 1:
        raise ValueError(f"need at least one trial, got {n}")
    seed.stream(n - 1)  # the last trial's stream index must fit in 64 bits
    dims = (spec.p, *spec.inner, spec.q)
    normals = sum(a * b for a, b in zip(dims, dims[1:]))  # one draw of the product chain
    if max(normals, spec.p * spec.q) > _MAX_TRIAL_NORMALS:
        raise ValueError(
            f"one trial would draw {normals} normals into a {spec.p} x {spec.q} matrix; "
            f"the limit is {_MAX_TRIAL_NORMALS} values per trial"
        )
    chunk = max(1, min(n, _CHUNK_ENTRIES // (spec.p * spec.q)))
    workers = min(_cpu_count(), chunk) if normals >= _PARALLEL_NORMALS else 1
    # one generator per worker, built per call through np.random.Philox,
    # never cached at import
    key = np.array([seed.master_seed, 0], dtype=np.uint64)
    rngs = [np.random.Generator(np.random.Philox(key=key)) for _ in range(workers)]
    stack = np.empty((chunk, spec.p, spec.q))
    out = np.empty(n)
    for first in range(0, n, chunk):
        m = min(chunk, n - first)
        count = min(workers, m)

        def draw(w: int) -> None:
            # worker w fills the w-th of `count` contiguous blocks of the chunk
            for t in range(m * w // count, m * (w + 1) // count):
                stack[t] = as_matrix(sample(spec, stream_rng(seed, rngs[w], first + t)))

        _in_threads(draw, count)
        out[first : first + m] = _stacked_h(stack[:m])
    return out
