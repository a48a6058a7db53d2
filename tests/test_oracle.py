import tracemalloc
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from gmprod import oracle
from gmprod.core import ChainSpec
from gmprod.moments import mean_h_product_exact, var_h_product_exact
from gmprod.oracle import OracleBudgetError, wick_exact_mean_h, wick_exact_var_h_single
from gmprod.sampling import h_samples
from gmprod.sampling import SeedSpec, sample_single
from references import mc_mean, mc_variance
from wick_reference import (
    mean_h_unnormalized_pair,
    mean_h_unnormalized_single,
    var_h_unnormalized_single,
)


class TestWickMean:
    def test_scalar_gaussian(self):
        assert wick_exact_mean_h(ChainSpec(1, 1)) == 3

    def test_two_by_two_gaussian(self):
        assert wick_exact_mean_h(ChainSpec(2, 2)) == 20

    def test_normalized_pair(self):
        value = wick_exact_mean_h(ChainSpec(2, 2, (2,)))
        assert value == Fraction(21, 2)
        assert value == mean_h_product_exact(ChainSpec(2, 2, (2,)))

    def test_matches_closed_form_small_grid(self):
        for p, q in product((1, 2), repeat=2):
            assert wick_exact_mean_h(ChainSpec(p, q)) == mean_h_product_exact(ChainSpec(p, q))
        for p, q, d in product((1, 2), repeat=3):
            spec = ChainSpec(p, q, (d,))
            assert wick_exact_mean_h(spec) == mean_h_product_exact(spec)

    def test_budget_enforced(self):
        # (p q d_1 ... d_{r-1})^2 monomials, counted the same way at any r
        for spec, count in [
            (ChainSpec(1, 1, (57,)), 57**4),
            (ChainSpec(8, 8, (2, 2, 2, 2, 2)), (64 * 2**10) ** 2),
            (ChainSpec(4, 4, (5, 5)), 10**8),
        ]:
            assert count > oracle.MAX_MONOMIALS
            with pytest.raises(OracleBudgetError) as exc:
                wick_exact_mean_h(spec)
            assert str(exc.value) == (f"mean enumeration needs {count} monomials, over the budget "
                                      f"of {oracle.MAX_MONOMIALS}; too large for exact oracle")


class TestWickVariance:
    def test_scalar(self):
        assert wick_exact_var_h_single(ChainSpec(1, 1)) == 96  # 105 - 9

    def test_matches_formula(self):
        assert wick_exact_var_h_single(ChainSpec(2, 2)) == var_h_product_exact(ChainSpec(2, 2)) == 976
        assert wick_exact_var_h_single(ChainSpec(2, 1)) == var_h_product_exact(ChainSpec(2, 1)) == 320
        assert wick_exact_var_h_single(ChainSpec(1, 2)) == var_h_product_exact(ChainSpec(1, 2))

    def test_budget_enforced(self):
        # (p q)^4 monomials: 63^4 is over the cap, while 7 x 8 fits under it
        assert 56**4 <= oracle.MAX_MONOMIALS < 63**4
        with pytest.raises(OracleBudgetError, match=f"needs {63**4} monomials"):
            wick_exact_var_h_single(ChainSpec(7, 9))


# dimensions the oracle once coerced or used as given: a float, a bool, a
# string and nonpositive integers
BAD_DIMENSIONS = [2.5, True, "3", 0, -1]


class TestSpecOnly:
    """The oracle takes a ChainSpec, so a dimension it would coerce never reaches it."""

    @pytest.mark.parametrize("bad", BAD_DIMENSIONS)
    def test_mean_refuses_bad_inner_dimension(self, bad):
        assert wick_exact_mean_h(ChainSpec(2, 2, (2,))) == Fraction(21, 2)
        with pytest.raises(ValueError, match="inner dimension must be a positive integer"):
            wick_exact_mean_h(ChainSpec(2, 2, (bad,)))

    @pytest.mark.parametrize("bad", BAD_DIMENSIONS)
    def test_variance_refuses_bad_dimension(self, bad):
        assert wick_exact_var_h_single(ChainSpec(1, 2)) == 320
        with pytest.raises(ValueError, match="p must be a positive integer"):
            wick_exact_var_h_single(ChainSpec(bad, 2))

    def test_variance_refuses_a_chain(self):
        # the enumeration is of one Gaussian; it must not answer for a product
        with pytest.raises(ValueError, match="one factor only"):
            wick_exact_var_h_single(ChainSpec(2, 2, (4,)))


class TestPairingSum:
    """The sum over Wick pairings against the one-monomial-at-a-time reference and the closed forms."""

    @pytest.mark.parametrize("inner", [(), (1,), (2,), (3,)])
    def test_mean_equals_reference(self, inner):
        for p, q in product((1, 2, 3), repeat=2):
            if inner:
                (d,) = inner
                expected = Fraction(mean_h_unnormalized_pair(p, d, q), d**4)
            else:
                expected = Fraction(mean_h_unnormalized_single(p, q))
            assert wick_exact_mean_h(ChainSpec(p, q, inner)) == expected

    @pytest.mark.parametrize("p, q, d", [(2, 3, 7), (1, 1, 11)])
    def test_mean_with_a_large_inner_dimension_equals_reference(self, p, q, d):
        # the pairing sum against the p^2 q^2 d^4 loop, with d^4 large against p^2 q^2
        expected = Fraction(mean_h_unnormalized_pair(p, d, q), d**4)
        assert wick_exact_mean_h(ChainSpec(p, q, (d,))) == expected

    @pytest.mark.parametrize("p, q, inner", [
        (4, 4, (6,)),
        (1, 1, (24,)),  # 331,776 inner tuples
        (91, 1, (2,)),  # p^2 = 8281 row pairs
        (1, 91, (2,)),
        (91, 2, ()),
        # the largest shapes the cap admits: 9,837,632 and 9,834,496 monomials
        (7, 8, ()),
        (1, 1, (56,)),
        # the mean at any r: (1 * 1 * 2^10)^2 = 1,048,576 monomials at r = 6
        (2, 3, (2, 2)),
        (1, 1, (2,) * 5),
        (3, 1, (1,) * 40),
    ])
    def test_mean_equals_closed_form(self, p, q, inner):
        spec = ChainSpec(p, q, inner)
        assert wick_exact_mean_h(spec) == mean_h_product_exact(spec)
        if not inner and (p * q) ** 4 <= oracle.MAX_MONOMIALS:
            # a single factor's variance too, where the cap admits it
            assert wick_exact_var_h_single(spec) == var_h_product_exact(spec)

    def test_variance_equals_reference(self):
        for p in range(1, 13):
            for q in range(1, 12 // p + 1):
                assert wick_exact_var_h_single(ChainSpec(p, q)) == Fraction(var_h_unnormalized_single(p, q))

    def test_two_factor_variance_equals_closed_form(self):
        # the public variance refuses a chain; the pairing sum itself covers one:
        # E h^2 - (E h)^2 over the 105^2 pairings of h^2's sixteen factor entries
        for p, q, d in product(range(1, 7), range(1, 7), range(1, 9)):
            spec = ChainSpec(p, q, (d,))
            assert oracle._moment(spec, 2) - oracle._moment(spec, 1) ** 2 == var_h_product_exact(spec)

    @pytest.mark.parametrize("inner", [
        (2, 3, 2), (1, 2, 1), (2, 5, 4, 2), (2, 2), (2, 3, 1, 4, 2), (3,) * 9,
    ])
    def test_deeper_chain_moments_equal_closed_form(self, inner):
        # the public variance refuses r > 1 and the mean a shape over the cap;
        # the pairing sum covers any chain, here r = 3 to 6 and 10, with E h^2
        # over 105^r choices of pairings
        for p, q in product((1, 2, 3), repeat=2):
            spec = ChainSpec(p, q, inner)
            mean = oracle._moment(spec, 1)
            assert mean == mean_h_product_exact(spec)
            assert oracle._moment(spec, 2) - mean**2 == var_h_product_exact(spec)

    @pytest.mark.parametrize("call, args", [
        (wick_exact_var_h_single, (ChainSpec(4, 4),)),  # 65,536 monomials
        (wick_exact_mean_h, (ChainSpec(1, 1, (20,)),)),  # 160,000 monomials, all on the d^4 axes
        (wick_exact_mean_h, (ChainSpec(2, 2, (12,)),)),
        (wick_exact_mean_h, (ChainSpec(128, 1, (2,)),)),  # 2^14 row pairs
        # the largest shapes the cap admits
        (wick_exact_var_h_single, (ChainSpec(7, 8),)),
        (wick_exact_mean_h, (ChainSpec(1, 1, (56,)),)),
        # E h^2 of a ten-factor chain: nine products through the 105 x 105 loop matrix
        (oracle._moment, (ChainSpec(2, 3, (2,) * 9), 2)),
    ])
    def test_memory_does_not_grow_with_the_enumeration(self, call, args):
        clear_caches()  # bound a cold enumeration, not a cache hit
        tracemalloc.start()
        try:
            call(*args)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20


def clear_caches():
    """Forget the pairing data cached per power, so the next call starts cold."""
    oracle._boundary_classes.cache_clear()
    oracle._loops.cache_clear()


class TestPairingTable:
    """The loop matrix over one factor's pairings, and the product through it over a chain."""

    @pytest.mark.parametrize("r, power, choices", [
        (r, power, per_factor**r) for power, per_factor in ((1, 3), (2, 105)) for r in range(1, 11)
    ])
    def test_counts_sum_to_the_number_of_choices(self, r, power, choices):
        # at all-ones dimensions every choice of one pairing per factor contributes 1
        assert oracle._moment(ChainSpec(1, 1, (1,) * (r - 1)), power) == choices

    @pytest.mark.parametrize("power", [1, 2])
    def test_loop_matrix_is_symmetric(self, power):
        # _moment takes row nu of the matrix for its column nu
        loops = oracle._loops(power)
        assert len(loops) == (3, 105)[power - 1]
        assert loops == tuple(zip(*loops))

    def test_values_do_not_depend_on_call_order(self):
        calls = [
            (wick_exact_mean_h, (ChainSpec(3, 2),)),
            (wick_exact_var_h_single, (ChainSpec(2, 3),)),
            (wick_exact_mean_h, (ChainSpec(2, 3, (4,)),)),
            (oracle._moment, (ChainSpec(2, 1, (3,)), 2)),
            (oracle._moment, (ChainSpec(2, 3, (2, 2)), 1)),
        ]

        def run(order):
            return {k: calls[k][0](*calls[k][1]) for k in order}

        cold = {}
        for k, (call, args) in enumerate(calls):
            clear_caches()
            cold[k] = call(*args)
        clear_caches()
        forward = run(range(len(calls)))
        backward = run(reversed(range(len(calls))))
        clear_caches()
        backward_cold = run(reversed(range(len(calls))))
        assert forward == backward == backward_cold == cold
        assert all(type(value) is Fraction for value in cold.values())


class TestMcMean:
    def test_constant_statistic(self):
        ci = mc_mean(np.full(100, 7.5))
        assert ci.estimate == 7.5 and ci.std_error == 0.0 and ci.n == 100

    def test_deterministic(self):
        spec = ChainSpec(2, 2, (4,))
        a = mc_mean(h_samples([(sample_single, spec, 500, SeedSpec(1, 10))])[0])
        b = mc_mean(h_samples([(sample_single, spec, 500, SeedSpec(1, 10))])[0])
        assert a == b

    def test_too_few_trials(self):
        with pytest.raises(ValueError):
            mc_mean([0.0])
        with pytest.raises(ValueError):
            mc_mean(np.zeros((2, 2)))

    def test_single_ensemble_mean(self):
        # target pq(p+q+1)/d^2 = 20/16 = 1.25 at modest n
        spec = ChainSpec(2, 2, (4,))
        ci = mc_mean(h_samples([(sample_single, spec, 20_000, SeedSpec(88))])[0])
        assert abs(ci.estimate - 1.25) <= 4 * ci.std_error


class TestMcVariance:
    def test_constant_statistic(self):
        ci = mc_variance(np.full(50, 3.0))
        assert ci.estimate == 0.0 and ci.std_error == 0.0

    def test_too_few_trials(self):
        with pytest.raises(ValueError):
            mc_variance(np.zeros(9))

    def test_scalar_fourth_power(self):
        # Var(g^4) = 105 - 9 = 96; h of a 1x1 Gaussian is g^4, and d1 = 1
        # leaves the single ensemble unnormalized
        ci = mc_variance(h_samples([(sample_single, ChainSpec(1, 1, (1,)), 50_000, SeedSpec(404))])[0])
        assert abs(ci.estimate - 96.0) <= 4 * ci.std_error

    def test_unnormalized_gaussian(self):
        ci = mc_variance(h_samples([(sample_single, ChainSpec(2, 2, (1,)), 50_000, SeedSpec(505))])[0])
        assert abs(ci.estimate - 976.0) <= 4 * ci.std_error

    def test_jackknife_matches_batch_spread(self):
        # jackknife SE of the variance should agree with the spread of
        # independent-batch variance estimates within a factor of ~2
        spec = ChainSpec(2, 2, (4,))
        n = 4000
        ci = mc_variance(h_samples([(sample_single, spec, n, SeedSpec(9000))])[0])
        batch = [
            mc_variance(h_samples([(sample_single, spec, n, SeedSpec(9000, (k + 1) * n))])[0]).estimate
            for k in range(12)
        ]
        spread = np.std(batch, ddof=1)
        assert 0.4 * spread <= ci.std_error <= 2.5 * spread


def test_mc_error_shrinks_with_n():
    # 1/sqrt(n) convergence, checked in aggregate over seeds rather than
    # asserted per run
    spec = ChainSpec(2, 2, (4,))
    target = 1.25

    def median_abs_err(n):
        errs = [
            abs(mc_mean(h_samples([(sample_single, spec, n, SeedSpec(1000 + k, 10 * n * k))])[0]).estimate
                - target)
            for k in range(7)
        ]
        return sorted(errs)[len(errs) // 2]

    assert median_abs_err(8000) < median_abs_err(500)
