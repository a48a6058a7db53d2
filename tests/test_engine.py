import numpy as np
import pytest

from conftest import philox_stream
from gmprod import engine
from gmprod.core import ChainSpec
from gmprod.engine import h_samples
from gmprod.sampling import SeedSpec, sample_product, sample_single, stream_rng
from gmprod.stats import stat_h

SAMPLERS = {"product": sample_product, "single": sample_single}
ENSEMBLES = sorted(SAMPLERS)

# Small, large-d, medium and unequal-side specs, three chains, and every
# row of the 16x16 phase sweep over d = 16..4096.
SPECS = [
    ChainSpec(2, 2, (4,)),
    ChainSpec(8, 8, (2048,)),
    ChainSpec(32, 32, (64,)),
    ChainSpec(5, 2, (3,)),
    ChainSpec(4, 4, (4, 4)),
    ChainSpec(8, 8, (8, 8)),
    ChainSpec(3, 5, (7, 2, 7)),
    *(ChainSpec(16, 16, (d,)) for d in (16, 32, 64, 128, 256, 512, 1024, 2048, 4096)),
]


def scalar_h(ensemble, spec, n, seed):
    """The reference the engine must match bit for bit: each trial drawn from a
    new generator for its stream, built without ``stream_rng``."""
    return np.array(
        [stat_h(SAMPLERS[ensemble](spec, philox_stream(seed.stream(i)))) for i in range(n)]
    )


def batch_h(ensemble, spec, n, seed):
    return h_samples(SAMPLERS[ensemble], spec, n, seed)


@pytest.mark.parametrize("ensemble", ENSEMBLES)
@pytest.mark.parametrize("spec", SPECS, ids=str)
def test_matches_scalar_path(spec, ensemble):
    n = 3 if max(spec.inner) >= 1024 else 40
    seed = SeedSpec(20261018, 5)
    assert np.array_equal(batch_h(ensemble, spec, n, seed), scalar_h(ensemble, spec, n, seed))


@pytest.mark.parametrize("ensemble", ENSEMBLES)
@pytest.mark.parametrize("n", [1, 2, 3, 10])
@pytest.mark.parametrize("cap", [12, 4, 2])
def test_chunk_edges(monkeypatch, ensemble, n, cap):
    # (2,2,(4,)) stacks 4 entries per trial. Cap 12 gives chunks of 3
    # trials, so n = 10 ends on a partial chunk; cap 4 is exactly one
    # trial; cap 2 is below one, so each trial runs alone.
    monkeypatch.setattr(engine, "_CHUNK_ENTRIES", cap)
    spec, seed = ChainSpec(2, 2, (4,)), SeedSpec(7, 100)
    assert np.array_equal(batch_h(ensemble, spec, n, seed), scalar_h(ensemble, spec, n, seed))


def test_partial_last_chunk_at_the_real_cap():
    # 4 entries per trial: 8192 trials fill a chunk, 8195 leave three over
    spec, seed = ChainSpec(2, 2, (4,)), SeedSpec(3)
    n = engine._CHUNK_ENTRIES // 4 + 3
    assert np.array_equal(batch_h("product", spec, n, seed), scalar_h("product", spec, n, seed))


def test_trial_order_does_not_matter():
    # any suffix of a batch equals the batch started at that stream
    spec, seed = ChainSpec(3, 2, (4,)), SeedSpec(11, 40)
    full = batch_h("product", spec, 500, seed)
    assert np.array_equal(full[123:], batch_h("product", spec, 377, seed.stream(123)))


def test_one_philox_built_per_call(monkeypatch):
    # the generator comes from np.random.Philox at call time, so a
    # replacement installed after import sees every draw
    made = []

    class RecordingPhilox(np.random.Philox):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(np.random, "Philox", RecordingPhilox)
    spec, seed = ChainSpec(2, 2, (4,)), SeedSpec(5)
    got = batch_h("product", spec, 30, seed)
    assert len(made) == 1
    # the last trial left the generator inside stream 29
    assert made[0].state["state"]["counter"][2] == 29
    monkeypatch.undo()
    assert np.array_equal(got, scalar_h("product", spec, 30, seed))


class TestChecks:
    def test_product_needs_two_factors(self):
        with pytest.raises(ValueError, match="two factors"):
            batch_h("product", ChainSpec(2, 2), 5, SeedSpec(0))

    def test_single_needs_inner_dimension(self):
        with pytest.raises(ValueError):
            batch_h("single", ChainSpec(2, 2), 5, SeedSpec(0))

    def test_product_validates_closure(self):
        with pytest.raises(ValueError, match="last inner dimension"):
            batch_h("product", ChainSpec(2, 2, (4, 5)), 5, SeedSpec(0))

    @pytest.mark.parametrize("n", [0, -1])
    def test_needs_a_trial(self, n):
        with pytest.raises(ValueError):
            batch_h("single", ChainSpec(2, 2, (4,)), n, SeedSpec(0))

    def test_stream_index_overflow(self):
        with pytest.raises(ValueError, match="64-bit"):
            batch_h("single", ChainSpec(2, 2, (4,)), 3, SeedSpec(0, 2**64 - 2))

    def test_nonfinite_trial_rejected(self):
        calls = []

        def sample(spec, rng):
            x = sample_single(spec, rng)
            calls.append(x)
            if len(calls) == 3:
                x[1, 0] = np.inf
            return x

        with pytest.raises(ValueError, match="finite"):
            h_samples(sample, ChainSpec(2, 2, (4,)), 5, SeedSpec(0))


class TestStreamReset:
    def test_reset_replays_a_fresh_stream(self):
        # leave the generator mid-block, with a cached 32-bit half, under another key
        rng = np.random.Generator(np.random.Philox(key=np.array([99, 1], dtype=np.uint64)))
        rng.standard_normal(3)
        rng.integers(0, 2**31, dtype=np.uint32)
        seed = SeedSpec(12, 7)
        assert stream_rng(seed, rng) is rng
        fresh = philox_stream(seed)
        assert repr(rng.bit_generator.state) == repr(fresh.bit_generator.state)
        assert np.array_equal(rng.standard_normal(11), fresh.standard_normal(11))

    def test_samplers_replay_through_a_reused_generator(self):
        spec, seed = ChainSpec(3, 2, (4, 4)), SeedSpec(5, 2)
        rng = np.random.Generator(np.random.Philox())
        for sample in (sample_product, sample_single, sample_product):
            assert np.array_equal(sample(spec, stream_rng(seed, rng)), sample(spec, philox_stream(seed)))

    def test_only_philox_is_reset(self):
        with pytest.raises(TypeError, match="Philox"):
            stream_rng(SeedSpec(0), np.random.default_rng(0))
