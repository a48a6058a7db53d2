"""Batched Monte Carlo trials of the statistic h = tr((A^T A)^2).

``h_samples(sample, spec, n, seed)`` returns the statistic of n trials
drawn by a one-trial sampler (``sample_product`` or ``sample_single``),
with trial i on stream ``seed.stream_index + i``.

The n trials are split once into contiguous blocks, one per worker; the
calling thread is worker 0. A worker owns a Philox generator keyed by the
master seed and a stack, and walks its block in chunks. Before trial i,
``stream_rng(seed, rng, i)`` resets the generator to the state a new
generator for stream ``seed.stream_index + i`` starts in, so the trial
draws the same normals as a Philox built for its stream, without building
one. Each trial's matrix is checked by ``as_matrix`` into one slot of the
stack; the statistic then runs as stacked matrix products over the chunk,
the only place the package computes h. A stack holds at most
``_CHUNK_ENTRIES`` matrix entries, so a larger trial runs alone.

A chain that draws at least ``_PARALLEL_NORMALS`` normals per trial gets
one worker per CPU the process may run on, but no more than a chunk holds
trials; other chains run on the calling thread. Worker threads start once
per call and are joined before it returns, also on error. numpy's normal
fill loop, large ufuncs and BLAS release the interpreter lock, so the
draws overlap. A trial's values depend on its stream alone, so the output
is the same bit for bit whatever the number of workers. No trial may draw
or store more than ``_MAX_TRIAL_NORMALS`` values. None of these limits is
a setting.
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
    # a chain whose matrix fills a stack alone (p*q > 2**14) gets chunks of one
    # trial, so it stays on one thread: threading it measured up to 2.4x slower
    workers = min(_cpu_count(), chunk) if normals >= _PARALLEL_NORMALS else 1
    key = np.array([seed.master_seed, 0], dtype=np.uint64)
    out = np.empty(n)
    errors: list[BaseException | None] = [None] * workers

    def work(w: int) -> None:
        """Draw the w-th of ``workers`` contiguous blocks of trials, chunk by chunk."""
        try:
            start, stop = n * w // workers, n * (w + 1) // workers
            # built per call through np.random.Philox, never cached at import
            rng = np.random.Generator(np.random.Philox(key=key))
            stack = np.empty((min(chunk, stop - start), spec.p, spec.q))
            for first in range(start, stop, chunk):
                m = min(chunk, stop - first)
                for t in range(m):
                    stack[t] = as_matrix(sample(spec, stream_rng(seed, rng, first + t)))
                out[first : first + m] = _stacked_h(stack[:m])
        except BaseException as exc:  # raised on the calling thread below
            errors[w] = exc

    threads = []
    try:
        for w in range(1, workers):
            thread = threading.Thread(target=work, args=(w,))
            thread.start()
            threads.append(thread)
        work(0)
    finally:
        for thread in threads:
            thread.join()
    # each worker stops at its first failing trial, so the lowest worker's
    # error is the lowest failing trial's
    for exc in errors:
        if exc is not None:
            raise exc
    return out
