import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gmprod.core import ChainSpec, as_matrix, frobenius_sq, gram, matmul, trace


def _mat(rows, cols, seed):
    return np.random.default_rng(seed).standard_normal((rows, cols))


class TestMatmul:
    def test_identity(self):
        out = matmul(np.eye(2), [[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(out, [[1.0, 2.0], [3.0, 4.0]])

    def test_hand_arithmetic(self):
        out = matmul([[1.0, 0.0], [0.0, 2.0]], [[0.0, 1.0], [1.0, 0.0]])
        assert np.array_equal(out, [[0.0, 1.0], [2.0, 0.0]])

    def test_row_times_column(self):
        out = matmul([[1.0, 1.0, 1.0]], [[1.0], [2.0], [3.0]])
        assert out.shape == (1, 1) and out[0, 0] == 6.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            matmul(_mat(2, 3, 0), _mat(2, 3, 1))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            matmul([[np.inf, 0.0]], [[1.0], [1.0]])


class TestGram:
    def test_identity(self):
        assert np.array_equal(gram(np.eye(2)), np.eye(2))

    def test_diagonal_square(self):
        assert np.array_equal(gram([[1.0, 0.0], [0.0, 2.0]]), [[1.0, 0.0], [0.0, 4.0]])

    def test_column_norm(self):
        out = gram([[1.0], [1.0]])
        assert out.shape == (1, 1) and out[0, 0] == 2.0

    def test_exact_symmetry_on_random(self):
        for seed in range(10):
            g = gram(_mat(7, 5, seed))
            assert (g == g.T).all()


class TestTrace:
    def test_identity(self):
        assert trace(np.eye(3)) == 3.0

    def test_hand(self):
        assert trace([[1.0, 5.0], [7.0, 2.0]]) == 3.0

    def test_zero(self):
        assert trace([[0.0]]) == 0.0

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            trace(_mat(2, 3, 0))


class TestFrobeniusSq:
    def test_identity(self):
        assert frobenius_sq(np.eye(2)) == 2.0

    def test_row(self):
        assert frobenius_sq([[3.0, 4.0]]) == 25.0

    def test_zero(self):
        assert frobenius_sq(np.zeros((3, 4))) == 0.0


@given(st.integers(1, 8), st.integers(1, 8), st.integers(0, 2**32 - 1))
def test_gram_matches_transpose_product(rows, cols, seed):
    x = _mat(rows, cols, seed)
    assert np.allclose(gram(x), matmul(x.T, x), rtol=1e-12, atol=1e-12)


@given(st.integers(1, 8), st.integers(1, 8), st.integers(0, 2**32 - 1))
def test_trace_of_gram_is_frobenius_sq(rows, cols, seed):
    x = _mat(rows, cols, seed)
    lhs = trace(gram(x))
    rhs = frobenius_sq(x)
    assert lhs == pytest.approx(rhs, rel=1e-12)


@given(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6), st.integers(1, 6),
       st.integers(0, 2**32 - 1))
def test_matmul_associative(m, k, l, n, seed):
    a, b, c = _mat(m, k, seed), _mat(k, l, seed + 1), _mat(l, n, seed + 2)
    left = matmul(matmul(a, b), c)
    right = matmul(a, matmul(b, c))
    assert np.allclose(left, right, rtol=1e-10, atol=1e-10)


def test_as_matrix_rejects_bad_shapes():
    with pytest.raises(ValueError):
        as_matrix([1.0, 2.0])
    with pytest.raises(ValueError):
        as_matrix(np.zeros((0, 3)))


class TestChainSpec:
    def test_factor_count(self):
        assert ChainSpec(2, 3).r == 1
        assert ChainSpec(2, 3, (5,)).r == 2
        assert ChainSpec(2, 3, (5, 7, 5)).r == 4

    def test_first_inner_dimension(self):
        assert ChainSpec(2, 3, (5, 7, 5)).d1 == 5
        with pytest.raises(ValueError):
            ChainSpec(2, 3).d1

    def test_positivity_enforced(self):
        with pytest.raises(ValueError):
            ChainSpec(0, 3)
        with pytest.raises(ValueError):
            ChainSpec(2, 3, (0,))

    def test_closure_rule(self):
        ChainSpec(2, 2, (4, 4)).validate()
        ChainSpec(2, 2, (4, 9, 4)).validate()
        with pytest.raises(ValueError, match="last inner dimension"):
            ChainSpec(2, 2, (4, 5)).validate()

    def test_single_inner_always_structural(self):
        ChainSpec(2, 2, (7,)).validate()

    def test_strict_mode(self):
        ChainSpec(2, 3, (3,)).validate(strict=True)
        with pytest.raises(ValueError, match="strict"):
            ChainSpec(2, 3, (2,)).validate(strict=True)

    @pytest.mark.parametrize(
        "p, q, inner, expected",
        [
            # any integral type, stored as a Python int
            (np.int64(2), np.uint8(3), (np.int32(5),), (2, 3, (5,))),
            # bool is not a dimension
            (True, 2, (4,), None),
            (2, 2, (np.True_,), None),
            # non-integral inner dimensions are refused, never truncated
            (2, 2, (2.7,), None),
            (2, 2, (4.0,), None),
            (2.0, 2, (4,), None),
            (2, 2, ("4",), None),
        ],
    )
    def test_dimension_types(self, p, q, inner, expected):
        if expected is None:
            with pytest.raises(ValueError, match="positive integer"):
                ChainSpec(p, q, inner)
            return
        spec = ChainSpec(p, q, inner)
        assert (spec.p, spec.q, spec.inner) == expected
        assert all(type(v) is int for v in (spec.p, spec.q, *spec.inner))
