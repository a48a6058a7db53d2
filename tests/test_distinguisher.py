import math

import numpy as np
import pytest

from gmprod.core import ChainSpec
from gmprod.distinguisher import (
    TestPlan,
    build_test,
    chebyshev_error,
    classify,
    draw_h_samples,
    power_from_samples,
    tv_lower_bound_empirical,
    tv_upper_bound,
)
from gmprod.sampling import SeedSpec


def drawn_power(spec, n, seed):
    """The report ``distinguish`` prints for n draws from each ensemble."""
    return power_from_samples(*draw_h_samples(spec, n, seed), build_test(spec))


class TestBuildTest:
    def test_midpoint_threshold(self):
        plan = build_test(ChainSpec(2, 2, (4,)))
        assert plan.mu_single == 1.25
        assert plan.mu_product == 1.9375
        assert plan.threshold == 1.59375

    @pytest.mark.parametrize("d", [1, 2, 4, 16, 100])
    def test_threshold_strictly_between(self, d):
        plan = build_test(ChainSpec(2, 2, (d,)))
        assert plan.mu_single < plan.threshold < plan.mu_product

    def test_degenerate_width_still_separates(self):
        # (p-1)(q-1) = 0: the gap comes only from the (d+2)/d factor
        plan = build_test(ChainSpec(1, 1, (4,)))
        assert plan.mu_product > plan.mu_single

    def test_single_factor_rejected(self):
        with pytest.raises(ValueError):
            build_test(ChainSpec(2, 2))


class TestClassify:
    PLAN = TestPlan(ChainSpec(2, 2, (4,)), 1.25, 1.9375, 1.59375, 0.1, 0.2)

    def test_above(self):
        assert classify(self.PLAN.threshold + 1.0, self.PLAN)

    def test_below(self):
        assert not classify(self.PLAN.threshold - 1.0, self.PLAN)

    def test_tie_goes_to_single(self):
        assert not classify(self.PLAN.threshold, self.PLAN)

    def test_elementwise(self):
        t = self.PLAN.threshold
        labels = classify(np.array([t - 1.0, t, t + 1.0]), self.PLAN)
        assert labels.tolist() == [False, False, True]

    def test_scale_consistency(self):
        # classifying c^4-scaled values against a c^4-scaled plan gives
        # identical labels
        c4 = 3.7**4
        scaled = TestPlan(
            self.PLAN.spec, self.PLAN.mu_single * c4, self.PLAN.mu_product * c4,
            self.PLAN.threshold * c4, self.PLAN.var_single * c4**2,
            self.PLAN.var_product * c4**2,
        )
        h = np.linspace(0.0, 4.0, 33)
        assert np.array_equal(classify(h, self.PLAN), classify(h * c4, scaled))


class TestChebyshevError:
    def test_zero_variance(self):
        plan = TestPlan(ChainSpec(2, 2, (4,)), 1.0, 2.0, 1.5, 0.0, 0.0)
        assert chebyshev_error(plan) == 0.0

    def test_saturates_at_one(self):
        plan = TestPlan(ChainSpec(2, 2, (4,)), 1.0, 2.0, 1.5, 0.25, 0.25)
        assert chebyshev_error(plan) == 1.0

    def test_nonpositive_gap_gives_no_guarantee(self):
        plan = TestPlan(ChainSpec(2, 2, (4,)), 2.0, 2.0, 2.0, 0.01, 0.01)
        assert chebyshev_error(plan) == 1.0

    def test_uses_worse_variance(self):
        plan = TestPlan(ChainSpec(2, 2, (4,)), 0.0, 2.0, 1.0, 0.1, 0.5)
        assert chebyshev_error(plan) == 0.5

    @pytest.mark.parametrize(
        "spec", [ChainSpec(32, 32, (64,)), ChainSpec(8, 8, (32,)), ChainSpec(64, 64, (128,))]
    )
    def test_bound_is_valid_empirically(self, spec):
        # the bound must dominate each observed per-hypothesis error rate
        # up to binomial noise; the first two specs clamp it to 1, the
        # last (0.518) does not
        n = 400
        rep = drawn_power(spec, n, SeedSpec(0))
        noise = 3 * math.sqrt(0.25 / n)
        assert rep.chebyshev_error_bound >= max(rep.false_positive_rate,
                                                rep.false_negative_rate) - noise


class TestEmpiricalPower:
    """Error rates of the threshold test on drawn statistic values."""

    def test_deterministic(self):
        spec = ChainSpec(4, 4, (16,))
        a = drawn_power(spec, 50, SeedSpec(3, 100))
        b = drawn_power(spec, 50, SeedSpec(3, 100))
        assert a == b

    def test_accuracy_identity(self):
        rep = drawn_power(ChainSpec(4, 4, (16,)), 80, SeedSpec(5))
        assert rep.accuracy == pytest.approx(
            1 - (rep.false_positive_rate + rep.false_negative_rate) / 2, abs=1e-15
        )

    def test_rates_from_samples(self):
        # ties go to "single": the product draw at the threshold is a false negative
        plan = TestPlan(ChainSpec(2, 2, (4,)), 1.0, 2.0, 1.5, 0.1, 0.2)
        rep = power_from_samples([1.5, 2.0, 3.0, 4.0], [0.5, 1.0, 1.6, 1.5], plan)
        assert (rep.false_negative_rate, rep.false_positive_rate) == (0.25, 0.25)
        assert rep.accuracy == 0.75 and rep.n_trials == 4
        assert rep.chebyshev_error_bound == chebyshev_error(plan)

    def test_easy_regime_beats_hard_regime(self):
        easy = drawn_power(ChainSpec(32, 32, (64,)), 100, SeedSpec(7))
        hard = drawn_power(ChainSpec(8, 8, (2048,)), 100, SeedSpec(7))
        assert easy.accuracy > hard.accuracy

    def test_product_and_single_batches_are_disjoint_streams(self):
        spec = ChainSpec(2, 2, (4,))
        hp, hs = draw_h_samples(spec, 25, SeedSpec(11, 1000))
        hp2, hs2 = draw_h_samples(spec, 25, SeedSpec(11, 1000))
        assert (hp == hp2).all() and (hs == hs2).all()
        assert hp.shape == hs.shape == (25,)


class TestTvLowerBound:
    def test_identical_samples(self):
        xs = [1.0, 2.0, 2.0, 5.0]
        assert tv_lower_bound_empirical(xs, list(xs)) == 0.0

    def test_disjoint_supports(self):
        assert tv_lower_bound_empirical([0.0, 1.0, 2.0], [5.0, 6.0]) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            tv_lower_bound_empirical([], [1.0])

    def test_gaussian_shift_calibration(self):
        # KS distance between N(0,1) and N(1,1) equals their TV distance
        # 2*Phi(1/2) - 1 = 0.3829...
        rng = np.random.default_rng(606)
        xs = rng.standard_normal(20_000)
        ys = rng.standard_normal(20_000) + 1.0
        target = 2 * 0.5 * (1 + math.erf(0.5 / math.sqrt(2))) - 1
        assert tv_lower_bound_empirical(xs, ys) == pytest.approx(target, abs=0.04)

    def test_bounded_by_one(self):
        rng = np.random.default_rng(607)
        val = tv_lower_bound_empirical(rng.standard_normal(100), rng.standard_normal(50))
        assert 0.0 <= val <= 1.0

    def test_small_in_deep_null_regime(self):
        # every inner dimension >= 100*p*q: the two laws are nearly
        # indistinguishable, so the empirical lower bound stays small
        spec = ChainSpec(2, 2, (400,))
        hp, hs = draw_h_samples(spec, 10_000, SeedSpec(42))
        assert tv_lower_bound_empirical(hp, hs) <= 0.15


class TestTvUpperBound:
    def test_single_layer(self):
        assert tv_upper_bound(ChainSpec(1, 1, (4,))) == 0.5

    def test_two_layers(self):
        assert tv_upper_bound(ChainSpec(1, 1, (100, 100))) == pytest.approx(0.2, rel=1e-12)

    def test_clamped(self):
        assert tv_upper_bound(ChainSpec(8, 8, (16,))) == 1.0
