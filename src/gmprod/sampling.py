"""Reproducible sampling of Gaussian matrices and normalized product chains.

Every trial owns an independent random stream identified by
``(master_seed, stream_index)``. Streams are disjoint counter blocks of a
keyed Philox generator, so a stream is a pure function of the seed pair and
trials can run concurrently in any order without changing aggregate
results. Normal variates come from numpy's ziggurat implementation of
``Generator.standard_normal``; outputs are bit-reproducible for a pinned
numpy version.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ChainSpec, Matrix

_U64 = 1 << 64
# the four-word output block of a Philox that has drawn nothing yet
_EMPTY_BUFFER = (0, 0, 0, 0)


@dataclass(frozen=True)
class SeedSpec:
    """Identifies one random stream: a master seed plus a trial index."""

    master_seed: int
    stream_index: int = 0

    def __post_init__(self):
        for name, value in (("master_seed", self.master_seed), ("stream_index", self.stream_index)):
            if not isinstance(value, int) or not 0 <= value < _U64:
                raise ValueError(f"{name} must be an unsigned 64-bit integer, got {value!r}")

    def stream(self, offset: int) -> "SeedSpec":
        """Seed for the stream ``offset`` positions after this one."""
        return SeedSpec(self.master_seed, self.stream_index + offset)


def stream_rng(seed: SeedSpec, rng: np.random.Generator | None = None) -> np.random.Generator:
    """Generator for the stream named by ``seed``.

    The master seed keys Philox; the stream index selects a disjoint
    2**128-long counter block, so distinct indices never overlap. The
    key/counter words are passed as uint64 arrays because this runs once
    per Monte Carlo trial and the integer path is measurably slower.

    Given ``rng``, a Generator over a Philox, its bit generator is reset
    to the state a new one for this stream starts in (empty buffer) and
    ``rng`` itself is returned. The stream is the same; the reset skips
    building a Philox, which costs several times more than the reset.
    """
    if rng is not None:
        bit_generator = rng.bit_generator
        if not isinstance(bit_generator, np.random.Philox):
            raise TypeError(f"can only reset a Philox stream, got {type(bit_generator).__name__}")
        # the state setter takes plain integers, which skips the arrays below
        bit_generator.state = {
            "bit_generator": type(bit_generator).__name__,
            "state": {"counter": (0, 0, seed.stream_index, 0), "key": (seed.master_seed, 0)},
            "buffer": _EMPTY_BUFFER,
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        return rng
    key = np.zeros(2, dtype=np.uint64)
    key[0] = seed.master_seed
    counter = np.zeros(4, dtype=np.uint64)
    counter[2] = seed.stream_index
    return np.random.Generator(np.random.Philox(key=key, counter=counter))


def gaussian_matrix(
    rows: int, cols: int, seed: SeedSpec, rng: np.random.Generator | None = None
) -> Matrix:
    """rows x cols matrix of i.i.d. standard normals drawn from ``seed``'s stream.

    ``rng``, if given, is reset to the stream and drawn from (see ``stream_rng``).
    """
    if rows < 1 or cols < 1:
        raise ValueError(f"matrix dimensions must be positive, got {rows}x{cols}")
    return stream_rng(seed, rng).standard_normal((rows, cols))


def sample_single(
    spec: ChainSpec, seed: SeedSpec, rng: np.random.Generator | None = None
) -> Matrix:
    """One draw of the single-matrix ensemble: a p x q Gaussian scaled by 1/sqrt(d1).

    Requires at least one inner dimension so the normalizer is defined; for
    a bare unnormalized Gaussian the caller scales explicitly. ``rng`` is
    passed to ``stream_rng``.
    """
    scale = 1.0 / math.sqrt(spec.d1)
    return scale * gaussian_matrix(spec.p, spec.q, seed, rng)


def sample_product(
    spec: ChainSpec, seed: SeedSpec, rng: np.random.Generator | None = None
) -> Matrix:
    """One draw of the product ensemble W_1 W_2 ... W_r.

    Factor i is a d_{i-1} x d_i Gaussian scaled by 1/sqrt(d_i), except the
    last factor, which is scaled by 1/sqrt(d1) regardless of its column
    count; ``spec.validate()`` enforces the closure rule d_{r-1} == d1.
    Factors are drawn first-to-last from a single stream, so a given seed
    always replays the identical product. ``rng`` is passed to
    ``stream_rng``.
    """
    r = spec.r
    if r < 2:
        raise ValueError("product ensemble needs at least two factors (nonempty inner)")
    spec.validate()
    rng = stream_rng(seed, rng)
    dims = (spec.p, *spec.inner, spec.q)
    d1 = spec.inner[0]
    out = None
    for i in range(r):
        g = rng.standard_normal((dims[i], dims[i + 1]))
        scale = 1.0 / math.sqrt(d1 if i == r - 1 else dims[i + 1])
        w = scale * g
        out = w if out is None else out @ w
    return out
