"""Reproducible sampling of Gaussian matrices and normalized product chains.

Every trial owns an independent random stream identified by
``(master_seed, stream_index)``: Philox keyed by the master seed, with the
stream index selecting a disjoint counter block, so a stream is a pure
function of the seed pair and trials can run concurrently in any order
without changing aggregate results; the trial engine draws trials on
several threads this way, each thread with a generator of its own.
``stream_rng(seed, rng, offset)`` is the one place a ``SeedSpec`` becomes
a stream: it resets a Philox generator to the state a new one for stream
``stream_index + offset`` starts in. The samplers draw from the generator
they are handed. Normal variates come from numpy's ziggurat
implementation of ``Generator.standard_normal``; outputs are
bit-reproducible for a pinned numpy version.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ChainSpec

_U64 = 1 << 64
# the four-word output block of a Philox that has drawn nothing yet
_EMPTY_BUFFER = (0, 0, 0, 0)


def _check_u64(name: str, value) -> None:
    if not isinstance(value, int) or not 0 <= value < _U64:
        raise ValueError(f"{name} must be an unsigned 64-bit integer, got {value!r}")


@dataclass(frozen=True)
class SeedSpec:
    """Identifies one random stream: a master seed plus a trial index."""

    master_seed: int
    stream_index: int = 0

    def __post_init__(self):
        _check_u64("master_seed", self.master_seed)
        _check_u64("stream_index", self.stream_index)

    def stream(self, offset: int) -> "SeedSpec":
        """Seed for the stream ``offset`` positions after this one."""
        return SeedSpec(self.master_seed, self.stream_index + offset)


def stream_rng(seed: SeedSpec, rng: np.random.Generator, offset: int = 0) -> np.random.Generator:
    """Reset ``rng``, a Generator over a Philox, to stream ``seed.stream_index + offset``.

    The master seed keys Philox; the stream index selects a disjoint
    2**128-long counter block, so distinct indices never overlap. The bit
    generator gets the state a new Philox for this stream starts in
    (counter ``(0, 0, stream_index + offset, 0)``, empty buffer), and
    ``rng`` itself is returned. The reset costs several times less than
    building a Philox. ``stream_rng(seed, rng, k)`` resets to the stream
    of ``seed.stream(k)`` without building that ``SeedSpec``; an index
    outside ``[0, 2**64)`` raises ValueError.
    """
    bit_generator = rng.bit_generator
    if not isinstance(bit_generator, np.random.Philox):
        raise TypeError(f"can only reset a Philox stream, got {type(bit_generator).__name__}")
    index = seed.stream_index + offset
    _check_u64("stream_index", index)
    bit_generator.state = {
        "bit_generator": type(bit_generator).__name__,
        "state": {"counter": (0, 0, index, 0), "key": (seed.master_seed, 0)},
        "buffer": _EMPTY_BUFFER,
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return rng


def sample_single(spec: ChainSpec, rng: np.random.Generator) -> np.ndarray:
    """One draw of the single-matrix ensemble: a p x q Gaussian scaled by 1/sqrt(d1).

    Requires at least one inner dimension so the normalizer is defined; for
    a bare unnormalized Gaussian the caller scales explicitly.
    """
    scale = 1.0 / math.sqrt(spec.d1)
    return scale * rng.standard_normal((spec.p, spec.q))


def sample_product(spec: ChainSpec, rng: np.random.Generator) -> np.ndarray:
    """One draw of the product ensemble W_1 W_2 ... W_r.

    Factor i is a d_{i-1} x d_i Gaussian scaled by 1/sqrt(d_i), except the
    last factor, which is scaled by 1/sqrt(d1) regardless of its column
    count; every ``ChainSpec`` closes up (d_{r-1} == d1) once built.
    Factors are drawn first-to-last from ``rng``, so a generator reset to
    a given stream always replays the identical product.
    """
    d1, r = spec.d1, spec.r
    dims = (spec.p, *spec.inner, spec.q)
    out = None
    for i in range(r):
        w = rng.standard_normal((dims[i], dims[i + 1]))
        w *= 1.0 / math.sqrt(d1 if i == r - 1 else dims[i + 1])  # in place: no second copy
        out = w if out is None else out @ w
    return out
