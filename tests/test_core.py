import numpy as np
import pytest

from gmprod.core import ChainSpec, as_matrix
from gmprod.distinguisher import build_test, tv_upper_bound
from gmprod.sampling import sample_product, sample_single


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

    @pytest.mark.parametrize(
        "call",
        [
            lambda spec: sample_product(spec, np.random.default_rng(0)),
            lambda spec: sample_single(spec, np.random.default_rng(0)),
            build_test,
            tv_upper_bound,
        ],
        ids=["sample_product", "sample_single", "build_test", "tv_upper_bound"],
    )
    def test_single_factor_refused_through_d1(self, call):
        # the two-factor rule lives in ChainSpec.d1; every caller that needs
        # an inner dimension reaches it before drawing or computing anything
        with pytest.raises(ValueError, match="two factors"):
            call(ChainSpec(2, 2))

    def test_positivity_enforced(self):
        with pytest.raises(ValueError):
            ChainSpec(0, 3)
        with pytest.raises(ValueError):
            ChainSpec(2, 3, (0,))

    def test_closure_rule(self):
        # checked once, when the chain is built
        assert ChainSpec(2, 2, (4, 4)).inner == (4, 4)
        assert ChainSpec(2, 2, (4, 9, 4)).inner == (4, 9, 4)
        with pytest.raises(ValueError, match="^last inner dimension 5 must equal the first 4$"):
            ChainSpec(2, 2, (4, 5))

    def test_single_inner_always_structural(self):
        assert ChainSpec(2, 2, (7,)).inner == (7,)

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
