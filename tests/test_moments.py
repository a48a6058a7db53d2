import math
import sys
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gmprod.core import ChainSpec
from gmprod.distinguisher import build_test
from gmprod.sampling import h_samples
from gmprod.moments import (
    WISHART_TRACE_MOMENTS,
    MomentVector,
    as_float,
    closed_form_moments,
    mean_h_product_exact,
    var_h_product_exact,
)
from gmprod.oracle import wick_exact_mean_h
from gmprod.sampling import SeedSpec, sample_product, sample_single
from references import base_gaussian_moments, layer_update, mc_mean, mc_variance
from wick_reference import moment_of_tally


def fold_layers(inner):
    t = base_gaussian_moments()
    for d in inner:
        t = layer_update(t, d)
    return t


class TestBaseMoments:
    def test_values(self):
        assert base_gaussian_moments() == MomentVector(3, 3, 1, 1, 1, 0)

    def test_consequences(self):
        t = base_gaussian_moments()
        assert t.s1 == 3 * t.s4
        assert t.s3 == 2 * t.s6 + t.s5


class TestLayerUpdate:
    def test_one_layer_d2(self):
        assert layer_update(base_gaussian_moments(), 2) == MomentVector(24, 24, 8, 8, 4, 2)

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
        assert closed_form_moments(ChainSpec(1, 1)) == MomentVector(3, 3, 1, 1, 1, 0)

    @pytest.mark.parametrize("d", [1, 2, 3, 10])
    def test_single_layer(self, d):
        m = closed_form_moments(ChainSpec(1, 1, (d,)))
        assert m.s3 == m.s4 == d * (d + 2)
        assert m.s1 == m.s2 == 3 * d * (d + 2)
        assert m.s6 == d
        assert m.s5 == d * d

    def test_matches_recursion_small_grid(self):
        dims = (1, 2, 3)
        for length in range(4):
            for prefix in product(dims, repeat=length):
                # a chain's last inner dimension repeats its first
                inner = prefix if prefix[-1:] == prefix[:1] else prefix + prefix[:1]
                spec = ChainSpec(1, 1, inner)
                assert closed_form_moments(spec) == fold_layers(inner)

    @pytest.mark.parametrize("bad", [2.5, True, "4", 0, -3])
    def test_bad_inner_dimension_refused(self, bad):
        # a float, bool or string was coerced by int(), and a nonpositive
        # dimension gave a negative s6
        assert closed_form_moments(ChainSpec(1, 1, (2,))) == MomentVector(24, 24, 8, 8, 4, 2)
        with pytest.raises(ValueError, match="inner dimension must be a positive integer"):
            closed_form_moments(ChainSpec(1, 1, (bad,)))

    def test_matches_recursion_long_chain(self):
        inner = tuple((7 * k) % 23 + 1 for k in range(300))  # first and last are 1
        assert closed_form_moments(ChainSpec(1, 1, inner)) == fold_layers(inner)


class TestMeanProduct:
    def test_two_factor_example(self):
        spec = ChainSpec(2, 2, (4,))
        assert mean_h_product_exact(spec) == Fraction(31, 16)
        assert build_test(spec).mu_product == 1.9375

    def test_scalar_chain(self):
        assert build_test(ChainSpec(1, 1, (1,))).mu_product == 9.0

    def test_single_factor_is_unnormalized(self):
        assert mean_h_product_exact(ChainSpec(2, 2)) == 20

    def test_three_factor_matches_recursion(self):
        spec = ChainSpec(2, 3, (4, 4))
        m = fold_layers(spec.inner)
        num = 2 * 3 * 6 * m.s3 + 2 * 3 * 1 * 2 * m.s6
        assert mean_h_product_exact(spec) == Fraction(num, 4**2 * 4**2 * 4**2)

    @pytest.mark.parametrize("p, q, d", [(1, 4, 8), (1, 1, 16), (3, 2, 6), (8, 8, 2048), (16, 16, 64)])
    def test_two_factor_gap_to_single(self, p, q, d):
        # the product's excess over the single mean pq(p+q+1)/d^2 is of order
        # 1/d^3 and has two parts; the first does not vanish at p = 1
        single = Fraction(p * q * (p + q + 1), d**2)
        gap = Fraction(2 * p * q * (p + q + 1) + p * q * (p - 1) * (q - 1), d**3)
        assert mean_h_product_exact(ChainSpec(p, q, (d,))) == single + gap


class TestMeanSingle:
    def test_values(self):
        # the single ensemble of the test plan: the one-factor chain over d1^2
        assert build_test(ChainSpec(2, 2, (4,))).mu_single == 1.25
        assert build_test(ChainSpec(1, 1, (1,))).mu_single == 3.0
        assert build_test(ChainSpec(3, 2, (1,))).mu_single == 36.0


class TestVarianceSingle:
    def test_exact_values(self):
        # = E g^8 - (E g^4)^2 = 105 - 9
        assert var_h_product_exact(ChainSpec(1, 1)) == 96
        assert var_h_product_exact(ChainSpec(2, 2)) == 976
        assert var_h_product_exact(ChainSpec(2, 1)) == 320
        # the test plan's single ensemble: the one-factor chain over d1^4
        assert build_test(ChainSpec(2, 2, (4,))).var_single == 976 / 4**4

    def test_symmetry(self):
        assert var_h_product_exact(ChainSpec(3, 5)) == var_h_product_exact(ChainSpec(5, 3))


def _pairings(slots):
    """Every perfect matching of ``slots``, as lists of pairs."""
    if not slots:
        yield []
        return
    first, rest = slots[0], slots[1:]
    for i, other in enumerate(rest):
        for tail in _pairings(rest[:i] + rest[i + 1:]):
            yield [(first, other), *tail]


def _cycle_lengths(fixed, pairing):
    """Cycles of the union of two perfect matchings, each counted in ``pairing`` edges."""
    across, along = {}, {}
    for x, y in fixed:
        across[x], across[y] = y, x
    for x, y in pairing:
        along[x], along[y] = y, x
    seen, lengths = set(), []
    for start in across:
        if start in seen:
            continue
        length, x = 0, start
        while True:
            seen.update((x, across[x]))
            x, length = along[across[x]], length + 1
            if x == start:
                break
        lengths.append(length)
    return lengths


def wick_trace_moments(lam):
    """The row ``c_{lam mu}(n)`` of E p_lam(W), W ~ Wishart(n, Sigma), from the Wick pairings.

    W = sum_a x_a x_a^T with x_a ~ N(0, Sigma) gives 2|lam| vector slots,
    two per factor W (slots 2t and 2t + 1 share the column a_t), and the
    traces join slot 2t + 1 to slot 2 gamma(t) of the next factor in its
    cycle. Each pairing of the slots contributes n^(column cycles) times
    the product of tr(Sigma^m) over the cycles it closes with the traces.
    """
    k = sum(lam)
    gamma, start = [], 0
    for part in lam:
        gamma += [start + (i + 1) % part for i in range(part)]
        start += part
    columns = [(2 * t, 2 * t + 1) for t in range(k)]
    traces = [(2 * t + 1, 2 * gamma[t]) for t in range(k)]
    row = {}
    for pairing in _pairings(list(range(2 * k))):
        mu = tuple(sorted(_cycle_lengths(traces, pairing), reverse=True))
        coeffs = row.setdefault(mu, [0] * (k + 1))
        coeffs[len(_cycle_lengths(columns, pairing))] += 1
    return row


def wick_second_moment_pair(p, d, q):
    """E tr((A^T A)^2)^2 for A = B G, B ~ p x d and G ~ d x q Gaussians, by enumeration.

    Each of the eight A-entries expands into d paths through the inner
    index; a path tuple whose B-moment vanishes is skipped.
    """
    quads = list(product(range(q), range(q), range(p), range(p)))
    total = 0
    for (a, b, i, j), (a2, b2, i2, j2) in product(quads, quads):
        rows = (i, i, j, j, i2, i2, j2, j2)
        cols = (a, b, a, b, a2, b2, a2, b2)
        for ks in product(range(d), repeat=8):
            eb = moment_of_tally(Counter(zip(rows, ks)))
            if eb:
                total += eb * moment_of_tally(Counter(zip(ks, cols)))
    return total


class TestVarianceProductExact:
    @pytest.mark.parametrize("lam", list(WISHART_TRACE_MOMENTS))
    def test_table_matches_wick_pairings(self, lam):
        # (2k-1)!! pairings: 3 for |lam| = 2, 105 for |lam| = 4
        derived = {mu: list(c) for mu, c in wick_trace_moments(lam).items()}
        committed = WISHART_TRACE_MOMENTS[lam]
        assert sorted(derived) == sorted(committed)
        for mu, coeffs in committed.items():
            assert derived[mu] == list(coeffs) + [0] * (len(derived[mu]) - len(coeffs))

    def test_first_row(self):
        # E tr W^2 = (n^2 + n) tr Sigma^2 + n (tr Sigma)^2
        assert WISHART_TRACE_MOMENTS[(2,)] == {(2,): (0, 1, 1), (1, 1): (0, 1)}

    def test_scalar_chain_hand_value(self):
        # h = (b g)^4 for standard normals b, g: E b^8 E g^8 - (E b^4 E g^4)^2
        assert var_h_product_exact(ChainSpec(1, 1, (1,))) == 105**2 - 9**2

    def test_single_factor_matches_closed_forms(self):
        # E tr(W^2) and Var tr(W^2) of a Wishart W, written out as reference values
        for p in range(1, 7):
            for q in range(1, 7):
                spec = ChainSpec(p, q)
                assert mean_h_product_exact(spec) == p * q * (p + q + 1)
                assert var_h_product_exact(spec) == \
                    4 * p * q * (2 * p * p + 5 * p * q + 2 * q * q + 5 * p + 5 * q + 5)

    def test_mean_row_matches_mean_h_product_exact(self):
        # the printed s3 and s6 give the same E h as the table's (2) row;
        # inner dimensions below p included
        for p, q in product((1, 2, 3, 5), repeat=2):
            for inner in [(1,), (2,), (7,), (2, 2), (3, 1, 3), (1, 4, 2, 1), (4, 3, 2, 4)]:
                spec = ChainSpec(p, q, inner)
                s = closed_form_moments(spec)
                numerator = p * q * (p + q + 1) * s.s3 + p * q * (p - 1) * (q - 1) * s.s6
                norm = math.prod(d * d for d in inner) * inner[0] ** 2
                assert Fraction(numerator, norm) == mean_h_product_exact(spec)

    @pytest.mark.parametrize("p, q, d", list(product((1, 2), repeat=3)))
    def test_two_factor_matches_wick_enumeration(self, p, q, d):
        mean = wick_exact_mean_h(ChainSpec(p, q, (d,))) * d**4
        second = wick_second_moment_pair(p, d, q)
        assert var_h_product_exact(ChainSpec(p, q, (d,))) == Fraction(second - mean * mean, d**8)

    DOMINANCE_GRID = [
        ChainSpec(2, 2, (8,)),
        ChainSpec(8, 4, (16,)),
        ChainSpec(8, 8, (8,)),
        ChainSpec(4, 8, (32,)),
        ChainSpec(8, 8, (64,)),
        ChainSpec(4, 4, (8, 8)),
        ChainSpec(8, 8, (8, 8)),
    ]

    def test_mc_variance_matches_exact(self):
        n = 20_000
        for k, spec in enumerate(self.DOMINANCE_GRID):
            exact = float(var_h_product_exact(spec))
            ci = mc_variance(h_samples([(sample_product, spec, n, SeedSpec(991, k * n))])[0])
            assert abs(ci.estimate - exact) <= 4 * ci.std_error, \
                f"{spec}: {ci.estimate:.4f} vs exact {exact:.4f}, SE {ci.std_error:.4f}"


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

    @pytest.mark.slow
    def test_means_match_on_grid(self):
        n = 100_000
        passing = 0
        for k, spec in enumerate(self.GRID):
            seed = SeedSpec(4242, k * 2 * n)
            ci_prod = mc_mean(h_samples([(sample_product, spec, n, seed)])[0])
            ci_single = mc_mean(h_samples([(sample_single, spec, n, seed.stream(n))])[0])
            plan = build_test(spec)
            ok_prod = abs(ci_prod.estimate - plan.mu_product) <= 4 * ci_prod.std_error
            ok_single = abs(ci_single.estimate - plan.mu_single) <= 4 * ci_single.std_error
            if ok_prod and ok_single:
                passing += 1
        assert passing / len(self.GRID) >= 0.95


class TestAsFloat:
    def test_exact_zero_converts(self):
        assert as_float(Fraction(0), "x") == 0.0

    def test_smallest_normal_float_converts(self):
        assert as_float(Fraction(sys.float_info.min), "x") == sys.float_info.min

    @pytest.mark.parametrize(
        "value, exponent",
        [(Fraction(1, 10**400), -400), (Fraction(2, 10**320), -320), (Fraction(-3, 10**310), -310)],
    )
    def test_below_the_smallest_normal_float_refused(self, value, exponent):
        # a subnormal float keeps too few digits, and 0.0 would hide a nonzero value
        with pytest.raises(ValueError, match=rf"^x of this chain is about 10\^{exponent}, too small for a float"):
            as_float(value, "x")

    def test_above_the_largest_float_refused(self):
        with pytest.raises(ValueError, match=r"^x of this chain is about 10\^400, too large for a float"):
            as_float(Fraction(10**400), "x")
