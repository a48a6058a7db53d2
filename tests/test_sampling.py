import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import bits, philox_stream
from test_engine import SPECS
from gmprod.core import ChainSpec
from gmprod.sampling import SeedSpec, sample_product, sample_single, stream_rng


def gaussian_matrix(rows, cols, seed):
    """rows x cols standard normals from ``seed``'s stream, through ``stream_rng``."""
    rng = np.random.Generator(np.random.Philox())
    return stream_rng(seed, rng).standard_normal((rows, cols))


def reference_product(spec, seed):
    """The product sampler's arithmetic, rebuilt from the policy's stream, one fill per factor.

    Factor i is (1/sqrt(d_i)) * g_i, the last one (1/sqrt(d1)) * g_r, each
    g_i drawn in its own shape, multiplied left to right.
    """
    rng = philox_stream(seed)
    dims = (spec.p, *spec.inner, spec.q)
    scales = [1 / np.sqrt(d) for d in (*spec.inner, spec.inner[0])]
    out = scales[0] * rng.standard_normal(dims[:2])
    for i in range(1, spec.r):
        out = out @ (scales[i] * rng.standard_normal(dims[i : i + 2]))
    return out


class TestSeedSpec:
    def test_bounds(self):
        SeedSpec(0, 0)
        SeedSpec(2**64 - 1, 2**64 - 1)
        with pytest.raises(ValueError):
            SeedSpec(-1)
        with pytest.raises(ValueError):
            SeedSpec(0, 2**64)
        # a bool is an int, but would be used as seed 1 or stream 0
        with pytest.raises(ValueError, match="master_seed must be an unsigned 64-bit integer, got True"):
            SeedSpec(True)
        with pytest.raises(ValueError, match="stream_index must be an unsigned 64-bit integer, got False"):
            SeedSpec(1, False)

    def test_stream_offset(self):
        s = SeedSpec(9, 4)
        assert s.stream(3) == SeedSpec(9, 7)


class TestGaussianMatrix:
    def test_deterministic(self):
        a = gaussian_matrix(5, 7, SeedSpec(123, 9))
        b = gaussian_matrix(5, 7, SeedSpec(123, 9))
        assert (a == b).all()

    def test_distinct_streams_differ(self):
        a = gaussian_matrix(5, 7, SeedSpec(123, 0))
        b = gaussian_matrix(5, 7, SeedSpec(123, 1))
        assert not (a == b).all()

    def test_entry_mean(self):
        # CLT: SE of the mean of 10^6 standard normals is 1e-3
        x = gaussian_matrix(1000, 1000, SeedSpec(7))
        assert abs(x.mean()) <= 0.01

    def test_entry_variance(self):
        # Var of the sample variance of n normals ~ 2/n, so SE ~ 1.4e-3
        x = gaussian_matrix(1000, 1000, SeedSpec(7))
        assert abs(x.var(ddof=1) - 1.0) <= 0.02


class TestSampleSingle:
    SPEC = ChainSpec(2, 2, (4,))

    def test_shape(self):
        assert sample_single(self.SPEC, philox_stream(SeedSpec(0))).shape == (2, 2)

    def test_deterministic(self):
        a = sample_single(self.SPEC, philox_stream(SeedSpec(5, 3)))
        b = sample_single(self.SPEC, philox_stream(SeedSpec(5, 3)))
        assert (a == b).all()

    def test_requires_inner_dimension(self):
        with pytest.raises(ValueError):
            sample_single(ChainSpec(2, 2), philox_stream(SeedSpec(0)))

    def test_entry_second_moment(self):
        # E[entry^2] = 1/d1 = 0.25; test the (0,0) entry over 10^5 trials
        # against its own empirical standard error.
        n = 100_000
        seed = SeedSpec(31337)
        rng = np.random.Generator(np.random.Philox())
        sq = np.fromiter(
            (sample_single(self.SPEC, stream_rng(seed.stream(i), rng))[0, 0] ** 2 for i in range(n)),
            dtype=float, count=n,
        )
        se = sq.std(ddof=1) / math.sqrt(n)
        assert abs(sq.mean() - 0.25) <= 3 * se

    @pytest.mark.parametrize("shape", [(2, 2), (8, 8), (16, 16), (130, 130)], ids=str)
    @pytest.mark.parametrize("d", [3, 2048])
    @pytest.mark.parametrize("seed", [SeedSpec(0), SeedSpec(7, 3), SeedSpec(2**64 - 1, 2**40)], ids=str)
    def test_normal_at_negative_zero_is_scaled_standard_normal(self, seed, d, shape):
        # numpy's normal is loc + scale * z with the ziggurat z of standard_normal
        scale = 1 / math.sqrt(d)
        fused = philox_stream(seed).normal(-0.0, scale, shape)
        assert np.array_equal(bits(fused), bits(philox_stream(seed).standard_normal(shape) * scale))

    def test_negative_zero_is_the_additive_identity(self):
        # why the single draw's loc is -0.0: adding 0.0 would turn a -0.0 entry into 0.0
        assert math.copysign(1.0, 0.0 + -0.0) == 1.0
        for zero in (0.0, -0.0):
            assert math.copysign(1.0, -0.0 + zero) == math.copysign(1.0, zero)
        # and comparing values would not see that change
        assert np.array_equal([-0.0], [0.0]) and not np.array_equal(bits([-0.0]), bits([0.0]))

    @pytest.mark.parametrize(
        "spec",
        [ChainSpec(2, 2, (4,)), ChainSpec(8, 8, (2048,)), *(s for s in SPECS if s.p == 16), ChainSpec(130, 130, (2,))],
        ids=str,
    )
    def test_matches_scaled_standard_normal(self, spec):
        seed = SeedSpec(31, 4)
        expected = philox_stream(seed).standard_normal((spec.p, spec.q)) * (1 / math.sqrt(spec.d1))
        assert np.array_equal(bits(sample_single(spec, philox_stream(seed))), bits(expected))


class TestSampleProduct:
    def test_shape(self):
        out = sample_product(ChainSpec(2, 3, (5, 5)), philox_stream(SeedSpec(0)))
        assert out.shape == (2, 3)

    def test_deterministic(self):
        spec = ChainSpec(3, 2, (6,))
        a = sample_product(spec, philox_stream(SeedSpec(11, 2)))
        b = sample_product(spec, philox_stream(SeedSpec(11, 2)))
        assert (a == b).all()

    def test_scalar_case_is_product_of_two_normals(self):
        # p = q = d1 = 1: both normalizers are 1, so the draw is g1 * g2
        # in factor order from the trial's stream.
        seed = SeedSpec(99, 12)
        rng = philox_stream(seed)
        g1 = rng.standard_normal((1, 1))
        g2 = rng.standard_normal((1, 1))
        out = sample_product(ChainSpec(1, 1, (1,)), philox_stream(seed))
        assert out[0, 0] == g1[0, 0] * g2[0, 0]

    def test_factor_order_and_normalizers(self):
        # reconstruct W1 W2 W3 by hand from the same stream
        spec = ChainSpec(2, 3, (4, 4))
        seed = SeedSpec(17, 5)
        rng = philox_stream(seed)
        g1 = rng.standard_normal((2, 4))
        g2 = rng.standard_normal((4, 4))
        g3 = rng.standard_normal((4, 3))
        expected = (g1 / 2.0) @ (g2 / 2.0) @ (g3 / 2.0)  # last normalizer = 1/sqrt(d1)
        out = sample_product(spec, philox_stream(seed))
        assert np.allclose(out, expected, rtol=1e-15, atol=0)

    @pytest.mark.parametrize(
        "spec",
        [
            ChainSpec(1, 1, (1,)),
            ChainSpec(2, 2, (4,)),
            ChainSpec(5, 2, (3,)),
            ChainSpec(3, 5, (7, 2, 7)),
            ChainSpec(8, 8, (2048,)),
            ChainSpec(2, 3, (6, 6)),
            ChainSpec(3, 2, (5, 5, 5)),
            ChainSpec(2, 3, (4, 9, 4)),
        ],
        ids=str,
    )
    def test_bit_exact_reference(self, spec):
        seed = SeedSpec(31, 4)
        got = sample_product(spec, philox_stream(seed))
        assert np.array_equal(bits(got), bits(reference_product(spec, seed)))
        # the single ensemble is (1/sqrt(d1)) * g
        single = (1 / np.sqrt(spec.d1)) * philox_stream(seed).standard_normal((spec.p, spec.q))
        assert np.array_equal(bits(sample_single(spec, philox_stream(seed))), bits(single))

    def test_single_factor_rejected(self):
        with pytest.raises(ValueError):
            sample_product(ChainSpec(2, 2), philox_stream(SeedSpec(0)))

    def test_entry_second_moment_matches_single(self):
        # chain normalization makes E[entry^2] = 1/d1 for the product too
        spec = ChainSpec(2, 2, (4,))
        n = 100_000
        seed = SeedSpec(727)
        rng = np.random.Generator(np.random.Philox())
        sq = np.fromiter(
            (sample_product(spec, stream_rng(seed.stream(i), rng))[0, 0] ** 2 for i in range(n)),
            dtype=float, count=n,
        )
        se = sq.std(ddof=1) / math.sqrt(n)
        assert abs(sq.mean() - 0.25) <= 3 * se


@given(st.integers(1, 5), st.integers(1, 5), st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_product_shape_property(p, q, d, seed):
    spec = ChainSpec(p, q, (d,))
    assert sample_product(spec, philox_stream(SeedSpec(seed))).shape == (p, q)


@st.composite
def closed_chains(draw):
    """A closed chain with p, q <= 4, r = 2..5 and inner dimensions 1..6, equal or not."""
    r = draw(st.integers(2, 5))
    d1 = draw(st.integers(1, 6))
    middle = st.just(d1) if draw(st.booleans()) else st.integers(1, 6)
    inner = (d1,) if r == 2 else (d1, *draw(st.lists(middle, min_size=r - 3, max_size=r - 3)), d1)
    return ChainSpec(draw(st.integers(1, 4)), draw(st.integers(1, 4)), inner)


@given(closed_chains(), st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1))
def test_product_matches_per_factor_reference(spec, master_seed, stream_index):
    # one fill with views (r = 2) and per-factor fills (longer chains)
    # both replay the per-factor draws bit for bit
    seed = SeedSpec(master_seed, stream_index)
    got = sample_product(spec, philox_stream(seed))
    assert np.array_equal(bits(got), bits(reference_product(spec, seed)))


@pytest.mark.parametrize("seed", [SeedSpec(0), SeedSpec(2**64 - 1, 2**40)], ids=str)
@pytest.mark.parametrize(
    "spec",
    [*(spec for spec in SPECS if spec.r == 2), ChainSpec(1, 64, (64,)), ChainSpec(64, 1, (3,))],
    ids=str,
)
def test_two_factor_product_matches_reference_at_workload_sizes(spec, seed):
    # the one-fill product is multiplied by another routine than the
    # reference's ``@``; both must give the same bits at the sizes drawn
    got = sample_product(spec, philox_stream(seed))
    assert np.array_equal(bits(got), bits(reference_product(spec, seed)))


def test_stream_independence_cross_correlation():
    # first entries of paired streams (2k, 2k+1) should be uncorrelated:
    # |empirical corr| <= 3/sqrt(n)
    n = 10_000
    xs = np.fromiter(
        (gaussian_matrix(1, 1, SeedSpec(55, 2 * k))[0, 0] for k in range(n)),
        dtype=float, count=n,
    )
    ys = np.fromiter(
        (gaussian_matrix(1, 1, SeedSpec(55, 2 * k + 1))[0, 0] for k in range(n)),
        dtype=float, count=n,
    )
    corr = np.corrcoef(xs, ys)[0, 1]
    assert abs(corr) <= 3 / math.sqrt(n)
