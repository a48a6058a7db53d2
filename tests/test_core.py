import copy
import pickle
import warnings

import numpy as np
import pytest

from gmprod.core import ChainSpec, as_matrix
from gmprod.distinguisher import TestPlan, build_test, tv_upper_bound
from gmprod.moments import MomentVector
from gmprod.sampling import SeedSpec, sample_product, sample_single


@pytest.mark.parametrize(
    "x",
    [[[1.0, -2.0], [3.0, 0.5]], [[1e308, 1e308]], [[-1e308, -1e308]]],
    ids=["finite", "sum-overflows", "sum-overflows-negative"],
)
def test_as_matrix_accepts_finite(x):
    # finite entries of the asked shape pass, also where their sum would
    # overflow, and come back unchanged without a floating-point warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        m = as_matrix(x, np.shape(x))
    assert m.dtype == np.float64
    assert np.array_equal(m, np.array(x))


@pytest.mark.parametrize(
    "x, shape, message",
    [
        ([1.0, 2.0], (1, 2), r"expected a 1 x 2 matrix, got shape \(2,\)"),
        (np.zeros((0, 3)), (1, 3), r"expected a 1 x 3 matrix, got shape \(0, 3\)"),
        (np.zeros((2, 3)), (3, 2), r"expected a 3 x 2 matrix, got shape \(2, 3\)"),
        (np.zeros((1, 3, 2)), (3, 2), r"expected a 3 x 2 matrix, got shape \(1, 3, 2\)"),
        ([[np.inf, -np.inf]], (1, 2), "matrix entries must be finite"),  # their sum is nan
        ([[np.nan, 0.0]], (1, 2), "matrix entries must be finite"),
        ([[0.0, -np.inf]], (1, 2), "matrix entries must be finite"),
    ],
    ids=["1-d", "empty", "transposed", "3-d", "inf-minus-inf", "nan", "minus-inf"],
)
def test_as_matrix_refuses(x, shape, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            as_matrix(x, shape)


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


# each record class, the field values of one instance, and that instance's repr
RECORDS = {
    "ChainSpec": (ChainSpec, (2, 2, (4,)), "ChainSpec(p=2, q=2, inner=(4,))"),
    "MomentVector": (MomentVector, (3, 3, 1, 1, 1, 0),
                     "MomentVector(s1=3, s2=3, s3=1, s4=1, s5=1, s6=0)"),
    "SeedSpec": (SeedSpec, (1, 0), "SeedSpec(master_seed=1, stream_index=0)"),
    "TestPlan": (TestPlan, (1.25, 1.9375, 1.59375, 0.1, 0.2, 1.0),
                 "TestPlan(mu_single=1.25, mu_product=1.9375, threshold=1.59375, "
                 "var_single=0.1, var_product=0.2, chebyshev_error_bound=1.0)"),
}
COPIES = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda record: pickle.loads(pickle.dumps(record)),
}


@pytest.mark.parametrize("name", list(RECORDS))
class TestRecordContract:
    def test_fields_cannot_be_set_or_deleted(self, name):
        cls, values, _ = RECORDS[name]
        record = cls(*values)
        for field in cls.__slots__:
            with pytest.raises(AttributeError):
                setattr(record, field, 7)
            with pytest.raises(AttributeError):
                delattr(record, field)
        with pytest.raises(AttributeError):
            record.extra = 7
        assert record == cls(*values)

    def test_equal_fields_give_equal_records_and_hashes(self, name):
        cls, values, _ = RECORDS[name]
        assert cls(*values) == cls(*values)
        assert hash(cls(*values)) == hash(cls(*values))
        assert cls(*values) != cls(values[0] + 1, *values[1:])

    def test_never_equal_to_a_tuple_or_another_record_class(self, name):
        cls, values, _ = RECORDS[name]
        record = cls(*values)
        assert record != values and values != record
        for other_cls, other_values, _ in RECORDS.values():
            if other_cls is not cls:
                assert record != other_cls(*other_values)

    def test_repr_is_pinned(self, name):
        cls, values, text = RECORDS[name]
        assert repr(cls(*values)) == text

    @pytest.mark.parametrize("how", list(COPIES))
    def test_copies_are_rebuilt_through_the_constructor(self, name, how, monkeypatch):
        cls, values, _ = RECORDS[name]
        record = cls(*values)
        built = []
        init = cls.__init__

        def spy(self, *args):
            built.append(args)
            init(self, *args)

        monkeypatch.setattr(cls, "__init__", spy)
        again = COPIES[how](record)
        assert type(again) is cls and again == record
        assert built == [values]


def test_records_of_different_classes_with_the_same_fields_differ():
    assert MomentVector(1, 2, 3, 4, 5, 6) != TestPlan(1, 2, 3, 4, 5, 6)


def test_test_plan_is_not_a_pytest_class():
    assert TestPlan.__test__ is False
