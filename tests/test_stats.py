import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import random_orthogonal
from gmprod.engine import _stacked_h


def engine_h(x) -> float:
    """h of one matrix, through the engine's stacked statistic on a one-matrix stack."""
    return float(_stacked_h(np.asarray(x, dtype=np.float64)[np.newaxis])[0])


def _mat(rows, cols, seed):
    return np.random.default_rng(seed).standard_normal((rows, cols))


class TestStatH:
    def test_identity(self):
        assert engine_h(np.eye(2)) == 2.0

    def test_diagonal(self):
        assert engine_h(np.diag([1.0, 2.0])) == 17.0

    def test_scalar_fourth_power(self):
        assert engine_h([[3.0]]) == 81.0

    def test_wide_and_tall_agree(self):
        x = _mat(3, 7, 0)
        assert engine_h(x) == pytest.approx(engine_h(x.T), rel=1e-12)


@given(st.integers(1, 8), st.integers(1, 8), st.integers(0, 2**32 - 1),
       st.floats(-10, 10).filter(lambda c: abs(c) > 1e-3))
def test_quartic_scaling(rows, cols, seed, c):
    x = _mat(rows, cols, seed)
    assert engine_h(c * x) == pytest.approx(c**4 * engine_h(x), rel=1e-10)


@given(st.integers(1, 8), st.integers(1, 8), st.integers(0, 2**32 - 1))
def test_nonnegative_and_dominated_by_trace_square(rows, cols, seed):
    x = _mat(rows, cols, seed)
    h = engine_h(x)
    t = (x * x).sum() ** 2  # tr(X^T X)^2, the squared Frobenius norm squared
    assert h >= 0.0
    assert t >= 0.0
    # tr(M^2) <= tr(M)^2 for PSD M, with float slack
    assert h <= t * (1 + 1e-12)


@given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_rotation_invariance(rows, cols, seed):
    x = _mat(rows, cols, seed)
    rot = random_orthogonal(rows, np.random.default_rng(seed + 1))
    assert engine_h(rot @ x) == pytest.approx(engine_h(x), rel=1e-10)
