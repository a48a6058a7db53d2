"""Matrix validation and the dimension profile of a product chain.

Matrices are plain 2-D float64 numpy arrays; every public operation
validates its inputs and returns finite values, and a ``ChainSpec`` is
valid once built, also after a copy or a pickle, which rebuild it through
its constructor. All functions are pure, so values can be shared freely
between concurrent workers.

The package's records (``ChainSpec``, ``MomentVector``, ``SeedSpec``,
``TestPlan``) are immutable ``__slots__`` classes on ``_Record``, not
dataclasses: importing ``dataclasses`` loads ``inspect``, about a third
of the time that importing ``gmprod.cli`` would take with it. A record
that checks nothing (``MomentVector``, ``TestPlan``) is its docstring and
its ``__slots__``, built by ``_Record``'s positional ``__init__``;
``ChainSpec`` and ``SeedSpec`` check their fields in their own.
"""

from __future__ import annotations

import operator

# numpy, bound by the first as_matrix call, so that a ChainSpec costs no numpy import
np = None


def as_matrix(x, shape: tuple[int, int]) -> np.ndarray:
    """Coerce ``x`` to a float64 array of ``shape``, a chain's ``(p, q)``, with finite entries."""
    global np
    if np is None:
        import numpy as np
    m = np.asarray(x, dtype=np.float64)
    if m.shape != shape:
        raise ValueError(f"expected a {shape[0]} x {shape[1]} matrix, got shape {m.shape}")
    # counting the finite entries is exact and sets no floating-point flag;
    # a sum of the entries would warn when finite entries overflow it
    if np.count_nonzero(np.isfinite(m)) != m.size:
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


class _Record:
    """An immutable record whose fields are its class's ``__slots__``, in order.

    ``==``, ``hash`` and ``repr`` go by the field values, and a record equals
    only a record of its own class. ``__init__`` takes one value per field,
    positionally, and raises TypeError, naming the class, for any other
    count. A subclass that checks its fields does so in its own
    ``__init__``: ``SeedSpec`` then calls this one, while ``ChainSpec``
    sets each field with its own ``object.__setattr__`` call, because a
    loop over the slots built a ``ChainSpec`` about 1.5 times as slowly on
    cold caches, as in an ``oracle`` op. After that, assigning or deleting
    an attribute raises AttributeError. Copy and pickle call the class
    with the field values, so they pass the constructor's checks.
    """

    __slots__ = ()

    def __init__(self, *values):
        if len(values) != len(self.__slots__):
            raise TypeError(f"{self.__class__.__qualname__} takes {len(self.__slots__)} fields, "
                            f"got {len(values)}")
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._values()


class ChainSpec(_Record):
    """Dimension profile of a matrix-product ensemble.

    ``p`` and ``q`` are the output rows/columns; ``inner`` lists the
    intermediate dimensions of the chain, so the number of factors is
    ``r = len(inner) + 1``. An empty ``inner`` describes a single matrix.
    The constructor enforces closure: the last inner dimension equals the first.
    """

    __slots__ = ("p", "q", "inner")

    def __init__(self, p: int, q: int, inner: tuple[int, ...] = ()):
        p, q = _dimension("p", p), _dimension("q", q)
        inner = tuple(_dimension("inner dimension", d) for d in inner)
        if inner and inner[-1] != inner[0]:
            raise ValueError(f"last inner dimension {inner[-1]} must equal the first {inner[0]}")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "inner", inner)

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
