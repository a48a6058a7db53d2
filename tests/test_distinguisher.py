import math

import numpy as np
import pytest

import gmprod.distinguisher
import gmprod.sampling
from gmprod.core import ChainSpec
from gmprod.distinguisher import (
    TestPlan,
    _chebyshev_error,
    build_test,
    draw_h_samples,
    error_rates,
    tv_lower_bound_empirical,
    tv_upper_bound,
)
from gmprod.sampling import SeedSpec, h_samples, sample_product, sample_single


def drawn_rates(spec, n, seed):
    """The error rates ``distinguish`` prints for n draws from each ensemble."""
    ((_, plan, h_product, h_single),) = draw_h_samples([spec], n, seed)
    return error_rates(h_product, h_single, plan)


def labels(h_values, plan):
    """True where the test labels a value "product": as a single draw it is a false positive."""
    return [error_rates([h], [h], plan)["false_positive_rate"] == 1.0 for h in h_values]


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
    """The labeling rule inside ``error_rates``, on hand-made plans."""

    PLAN = TestPlan(1.25, 1.9375, 1.59375, 0.1, 0.2, 1.0)

    def test_above(self):
        assert labels([self.PLAN.threshold + 1.0], self.PLAN) == [True]

    def test_below(self):
        assert labels([self.PLAN.threshold - 1.0], self.PLAN) == [False]

    def test_tie_goes_to_single(self):
        t = self.PLAN.threshold
        assert labels([t], self.PLAN) == [False]
        assert error_rates([t], [t], self.PLAN) == {
            "accuracy": 0.5, "false_positive_rate": 0.0, "false_negative_rate": 1.0,
        }

    def test_elementwise(self):
        t = self.PLAN.threshold
        values = np.array([t - 1.0, t, t + 1.0])
        assert labels(values, self.PLAN) == [False, False, True]
        rates = error_rates(values, values, self.PLAN)
        assert (rates["false_negative_rate"], rates["false_positive_rate"]) == (2 / 3, 1 / 3)

    @pytest.mark.parametrize("h_product, h_single", [([], [1.0]), ([1.0], []), ([], [])],
                             ids=["no-product", "no-single", "neither"])
    def test_empty_sample_refused(self, h_product, h_single):
        # an empty sample has no rate: refused as the KS statistic refuses it, never NaN
        with pytest.raises(ValueError, match="both samples must be nonempty"):
            error_rates(h_product, h_single, self.PLAN)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("in_product", [True, False], ids=["in-product", "in-single"])
    def test_non_finite_sample_refused(self, bad, in_product):
        # a NaN compares false with the threshold, so it would count as "single"
        good, spoiled = [1.0, 2.0], [bad, 2.0]
        h_product, h_single = (spoiled, good) if in_product else (good, spoiled)
        with pytest.raises(ValueError, match=f"samples must be finite, got {bad}"):
            error_rates(h_product, h_single, self.PLAN)

    def test_scale_consistency(self):
        # scoring c^4-scaled values against a c^4-scaled plan gives
        # identical rates
        c4 = 3.7**4
        p = self.PLAN
        scaled = TestPlan(p.mu_single * c4, p.mu_product * c4, p.threshold * c4,
                          p.var_single * c4**2, p.var_product * c4**2, p.chebyshev_error_bound)
        h = np.linspace(0.0, 4.0, 33)
        assert labels(h, p) == labels(h * c4, scaled)
        assert error_rates(h, h[::-1], p) == error_rates(h * c4, h[::-1] * c4, scaled)


class TestChebyshevError:
    """``build_test``'s bound on real chains; the formula's corners on the private helper."""

    def test_zero_variance(self):
        assert _chebyshev_error(1.0, 0.0, 0.0) == 0.0

    def test_saturates_at_one(self):
        assert _chebyshev_error(1.0, 0.25, 0.25) == 1.0
        assert build_test(ChainSpec(2, 2, (4,))).chebyshev_error_bound == 1.0

    def test_nonpositive_gap_gives_no_guarantee(self):
        assert _chebyshev_error(0.0, 0.01, 0.01) == 1.0
        assert _chebyshev_error(-1.0, 0.0, 0.0) == 1.0
        # the float means of this chain are equal, so its gap is 0.0
        plan = build_test(ChainSpec(1, 1, (10**17,)))
        assert plan.mu_product - plan.mu_single == 0.0
        assert plan.chebyshev_error_bound == 1.0

    def test_uses_worse_variance(self):
        assert _chebyshev_error(2.0, 0.1, 0.5) == _chebyshev_error(2.0, 0.5, 0.1) == 0.5
        # 64/64/128 is unclamped, and its product variance is the larger
        plan = build_test(ChainSpec(64, 64, (128,)))
        assert plan.var_product > plan.var_single
        half_gap = (plan.mu_product - plan.mu_single) / 2.0
        assert plan.chebyshev_error_bound == plan.var_product / half_gap**2 == 0.51773864041967643

    @pytest.mark.parametrize(
        "spec", [ChainSpec(32, 32, (64,)), ChainSpec(8, 8, (32,)), ChainSpec(64, 64, (128,))]
    )
    def test_bound_is_valid_empirically(self, spec):
        # the bound must dominate each observed per-hypothesis error rate
        # up to binomial noise; the first two specs clamp it to 1, the
        # last (0.518) does not
        n = 400
        rates = drawn_rates(spec, n, SeedSpec(0))
        noise = 3 * math.sqrt(0.25 / n)
        assert build_test(spec).chebyshev_error_bound >= max(
            rates["false_positive_rate"], rates["false_negative_rate"]) - noise


class TestEmpiricalPower:
    """Error rates of the threshold test on drawn statistic values."""

    def test_deterministic(self):
        spec = ChainSpec(4, 4, (16,))
        a = drawn_rates(spec, 50, SeedSpec(3, 100))
        b = drawn_rates(spec, 50, SeedSpec(3, 100))
        assert a == b

    def test_accuracy_identity(self):
        rates = drawn_rates(ChainSpec(4, 4, (16,)), 80, SeedSpec(5))
        assert rates["accuracy"] == pytest.approx(
            1 - (rates["false_positive_rate"] + rates["false_negative_rate"]) / 2, abs=1e-15
        )

    def test_rates_from_samples(self):
        # ties go to "single": the product draw at the threshold is a false negative
        plan = TestPlan(1.0, 2.0, 1.5, 0.1, 0.2, 0.4)
        assert error_rates([1.5, 2.0, 3.0, 4.0], [0.5, 1.0, 1.6, 1.5], plan) == {
            "accuracy": 0.75, "false_positive_rate": 0.25, "false_negative_rate": 0.25,
        }

    def test_easy_regime_beats_hard_regime(self):
        easy = drawn_rates(ChainSpec(32, 32, (64,)), 100, SeedSpec(7))
        hard = drawn_rates(ChainSpec(8, 8, (2048,)), 100, SeedSpec(7))
        assert easy["accuracy"] > hard["accuracy"]

    def test_product_and_single_batches_are_disjoint_streams(self):
        # product trial i on stream 1000 + i, single trial i on 1025 + i
        spec, n, seed = ChainSpec(2, 2, (4,)), 25, SeedSpec(11, 1000)
        ((_, _, hp, hs),) = draw_h_samples([spec], n, seed)
        assert np.array_equal(hp, h_samples([(sample_product, spec, n, seed)])[0])
        assert np.array_equal(hs, h_samples([(sample_single, spec, n, seed.stream(n))])[0])
        assert not np.array_equal(hs, h_samples([(sample_single, spec, n, seed)])[0])


# the chains of the benchmark-sized sweep: 16 x 16 over d = 16..4096 in 9 steps
SWEEP_SPECS = [ChainSpec(16, 16, (d,)) for d in (16, 32, 64, 128, 256, 512, 1024, 2048, 4096)]
CHAINS = [ChainSpec(2, 2, (4,)), ChainSpec(3, 2, (5, 5)), ChainSpec(2, 3, (6,))]


def refuse_the_draw(monkeypatch):
    """Make the trial engine fail the test if ``draw_h_samples`` calls it."""

    def h_samples(jobs):
        raise AssertionError("the trials were drawn")

    monkeypatch.setattr(gmprod.distinguisher, "h_samples", h_samples)


class TestDrawHSamples:
    """The one route from chains to drawn values: refusal order, stream layout, engine calls."""

    def test_chain_k_is_drawn_on_streams_2kn_and_2k_plus_1_n(self):
        n, seed = 12, SeedSpec(5, 300)
        drawn = list(draw_h_samples(CHAINS, n, seed))
        assert [spec for spec, *_ in drawn] == CHAINS
        for k, (spec, plan, hp, hs) in enumerate(drawn):
            assert plan == build_test(spec)
            product, single = seed.stream(2 * k * n), seed.stream((2 * k + 1) * n)
            assert np.array_equal(hp, h_samples([(sample_product, spec, n, product)])[0])
            assert np.array_equal(hs, h_samples([(sample_single, spec, n, single)])[0])

    def test_one_chain_is_the_first_chain_of_many(self):
        n, seed = 15, SeedSpec(9)
        ((spec, plan, hp, hs),) = draw_h_samples(CHAINS[:1], n, seed)
        first = next(draw_h_samples(CHAINS, n, seed))
        assert (spec, plan) == first[:2]
        assert np.array_equal(hp, first[2]) and np.array_equal(hs, first[3])

    @pytest.mark.parametrize(
        "refused, message",
        [
            # 2 * 2**25 + 2**25 * 2 = 2**27 normals per trial
            (ChainSpec(2, 2, (2**25,)), "limit is 67108864 values per trial"),
            # within the size limit, but its exact mean overflows a float
            (ChainSpec(2, 2, (4,) * 4000), "too large for a float"),
        ],
        ids=["size", "float-overflow"],
    )
    def test_refused_chain_draws_nothing(self, refused, message, monkeypatch):
        refuse_the_draw(monkeypatch)
        built = []

        def chains():
            for spec in (CHAINS[0], refused, CHAINS[1]):
                built.append(spec)
                yield spec

        with pytest.raises(ValueError, match=message):
            list(draw_h_samples(chains(), 10, SeedSpec(0)))
        assert built == [CHAINS[0], refused]  # the chain after the refused one is never built

    @pytest.mark.parametrize(
        "n, message",
        [(2.0, "the trial count must be an integer, got 2.0"),
         (True, "the trial count must be an integer, got True"),
         (0, "need at least one trial, got 0")],
        ids=["2.0", "True", "0"],
    )
    def test_trial_count_refused_first(self, n, message, monkeypatch):
        # h_samples's own refusal, before any chain is read, planned or drawn
        refuse_the_draw(monkeypatch)

        def chains():
            raise AssertionError("a chain was read")
            yield

        with pytest.raises(ValueError, match=f"^{message}$"):
            list(draw_h_samples(chains(), n, SeedSpec(0)))

    @pytest.mark.parametrize("chunk_entries, calls", [(None, 1), (200, 2), (120, 3), (1, 9)])
    def test_chains_drawn_in_bounded_calls(self, chunk_entries, calls, monkeypatch):
        # 40 values a chain: the benchmark-sized sweep is one engine call, and a
        # smaller stack splits it into calls of max(40, stack) values or fewer,
        # each made only when its first chain is asked for, with the same values
        expected = list(draw_h_samples(SWEEP_SPECS, 20, SeedSpec(7)))
        if chunk_entries is not None:
            monkeypatch.setattr(gmprod.sampling, "_CHUNK_ENTRIES", chunk_entries)
        engine, sizes = gmprod.sampling.h_samples, []

        def recording(jobs):
            sizes.append(sum(n for _, _, n, _ in jobs))
            return engine(jobs)

        monkeypatch.setattr(gmprod.distinguisher, "h_samples", recording)
        per_call = -(-len(SWEEP_SPECS) // calls)
        for k, got in enumerate(draw_h_samples(SWEEP_SPECS, 20, SeedSpec(7))):
            assert len(sizes) == k // per_call + 1
            assert got[:2] == expected[k][:2]
            assert np.array_equal(got[2], expected[k][2]) and np.array_equal(got[3], expected[k][3])
        assert len(sizes) == calls and sum(sizes) == 9 * 40
        assert max(sizes) <= max(40, chunk_entries or gmprod.sampling._CHUNK_ENTRIES)


class TestTvLowerBound:
    def test_identical_samples(self):
        xs = [1.0, 2.0, 2.0, 5.0]
        assert tv_lower_bound_empirical(xs, list(xs)) == 0.0

    def test_disjoint_supports(self):
        assert tv_lower_bound_empirical([0.0, 1.0, 2.0], [5.0, 6.0]) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            tv_lower_bound_empirical([], [1.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("in_xs", [True, False], ids=["in-xs", "in-ys"])
    def test_non_finite_rejected(self, bad, in_xs):
        good, spoiled = [1.0, 2.0], [bad, 1.0]
        xs, ys = (spoiled, good) if in_xs else (good, spoiled)
        with pytest.raises(ValueError, match=f"samples must be finite, got {bad}"):
            tv_lower_bound_empirical(xs, ys)

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
        ((_, _, hp, hs),) = draw_h_samples([spec], 10_000, SeedSpec(42))
        assert tv_lower_bound_empirical(hp, hs) <= 0.15


class TestTvUpperBound:
    def test_single_layer(self):
        assert tv_upper_bound(ChainSpec(1, 1, (4,))) == 0.5

    def test_two_layers(self):
        assert tv_upper_bound(ChainSpec(1, 1, (100, 100))) == pytest.approx(0.2, rel=1e-12)

    def test_clamped(self):
        assert tv_upper_bound(ChainSpec(8, 8, (16,))) == 1.0
