"""Matrix validation and the dimension profile of a product chain.

Matrices are plain 2-D float64 numpy arrays; every public operation
validates its inputs and returns finite values, and a ``ChainSpec`` is
valid once built. All functions are pure, so values can be shared freely
between concurrent workers.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np


def as_matrix(x) -> np.ndarray:
    """Coerce ``x`` to a 2-D float64 array with positive dims and finite entries."""
    import numpy as np  # here, so that a ChainSpec costs no numpy import

    m = np.asarray(x, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={m.ndim}")
    if m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError(f"matrix dimensions must be positive, got {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    return m


def _dimension(name: str, value) -> int:
    """A positive dimension as a Python int: any integral type except bool, never a float."""
    try:
        index = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        index = None
    if index is None or index < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")
    return index


@dataclass(frozen=True)
class ChainSpec:
    """Dimension profile of a matrix-product ensemble.

    ``p`` and ``q`` are the output rows/columns; ``inner`` lists the
    intermediate dimensions of the chain, so the number of factors is
    ``r = len(inner) + 1``. An empty ``inner`` describes a single matrix.
    The constructor enforces closure: the last inner dimension equals the first.
    """

    p: int
    q: int
    inner: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "p", _dimension("p", self.p))
        object.__setattr__(self, "q", _dimension("q", self.q))
        object.__setattr__(
            self, "inner", tuple(_dimension("inner dimension", d) for d in self.inner)
        )
        if self.inner and self.inner[-1] != self.inner[0]:
            raise ValueError(
                f"last inner dimension {self.inner[-1]} must equal the first {self.inner[0]}"
            )

    @property
    def r(self) -> int:
        """Number of factors in the chain."""
        return len(self.inner) + 1

    @property
    def d1(self) -> int:
        """First inner dimension; it also normalizes the last factor."""
        if not self.inner:
            raise ValueError("a chain needs at least two factors; this one has no inner dimension")
        return self.inner[0]
