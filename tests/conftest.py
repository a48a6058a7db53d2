import numpy as np
import pytest


def random_orthogonal(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish orthogonal matrix via QR of a Gaussian, sign-fixed."""
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def philox_stream(seed) -> np.random.Generator:
    """A new generator for ``seed``'s stream, as the determinism policy defines it:
    Philox keyed by the master seed, counter block ``stream_index``.

    Key and counter are passed as uint64 arrays: numpy would convert a tuple
    holding an int of 2**63 or more through float64 and round it.
    """
    key = np.array([seed.master_seed, 0], dtype=np.uint64)
    counter = np.array([0, 0, seed.stream_index, 0], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key, counter=counter))


def bits(x) -> np.ndarray:
    """The float64 entries of ``x`` as their 64-bit patterns.

    ``np.array_equal`` of these compares bit for bit: it tells -0.0 from
    0.0, which ``np.array_equal`` of the values does not.
    """
    return np.ascontiguousarray(x, dtype=np.float64).view(np.uint64)


def stat_h(x) -> float:
    """h = tr((X^T X)^2) of one matrix: the reference the trial engine must match bit for bit.

    The squared Frobenius norm of the Gram factor, taken on the smaller side.
    """
    x = np.asarray(x, dtype=np.float64)
    side = x if x.shape[1] <= x.shape[0] else x.T
    g = side.T @ side
    return float((g * g).sum())


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)
