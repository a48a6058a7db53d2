"""Batched Monte Carlo trials of the statistic h = tr((A^T A)^2).

``h_samples(sample, spec, n, seed)`` returns the statistic of n trials
drawn by a one-trial sampler (``sample_product`` or ``sample_single``),
with trial i on stream ``seed.stream_index + i``.

One Philox generator keyed by the master seed serves every trial. Before
trial i, ``stream_rng`` resets it to the state a new generator for stream
``seed.stream_index + i`` starts in (counter ``(0, 0, stream_index + i,
0)``, empty buffer), and the sampler draws from it. So each trial draws
the same normals in the same order as a Philox built for its stream,
without building one per trial. Each trial's matrix is checked by
``as_matrix`` and stored in one slot of a preallocated stack; the
statistic then runs as stacked matrix products over the stack, equal bit
for bit to ``stat_h`` of each matrix. A stack holds at most
``_CHUNK_ENTRIES`` matrix entries, which keeps memory bounded; a trial
with more entries than that runs alone.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from .core import ChainSpec, Matrix, as_matrix
from .sampling import SeedSpec, stream_rng

# 2**15 float64 entries, 256 KiB per stack.
_CHUNK_ENTRIES = 1 << 15


def _stacked_h(x: np.ndarray) -> np.ndarray:
    """h of each matrix of an (m, rows, cols) stack, as ``stat_h`` computes it."""
    # the Gram factor on the smaller side, as stat_h takes it
    xt = np.swapaxes(x, 1, 2)
    g = xt @ x if x.shape[2] <= x.shape[1] else x @ xt
    return (g * g).reshape(x.shape[0], -1).sum(axis=1)


def h_samples(
    sample: Callable[[ChainSpec, np.random.Generator], Matrix], spec: ChainSpec, n: int, seed: SeedSpec
) -> np.ndarray:
    """h of n trials of ``sample(spec, rng)``, trial i drawn from stream ``seed.stream(i)``."""
    if n < 1:
        raise ValueError(f"need at least one trial, got {n}")
    seed.stream(n - 1)  # the last trial's stream index must fit in 64 bits
    chunk = max(1, min(n, _CHUNK_ENTRIES // (spec.p * spec.q)))
    # built per call through np.random.Philox, never cached at import
    rng = np.random.Generator(
        np.random.Philox(key=np.array([seed.master_seed, 0], dtype=np.uint64))
    )
    stack = np.empty((chunk, spec.p, spec.q))
    out = np.empty(n)
    for first in range(0, n, chunk):
        m = min(chunk, n - first)
        for t in range(m):
            stack[t] = as_matrix(sample(spec, stream_rng(seed.stream(first + t), rng)))
        out[first : first + m] = _stacked_h(stack[:m])
    return out
