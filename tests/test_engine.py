import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import philox_stream, random_orthogonal, stat_h
from gmprod import sampling
from gmprod.core import ChainSpec
from gmprod.sampling import _stacked_h, h_samples
from gmprod.sampling import SeedSpec, sample_product, sample_single, stream_rng

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
    monkeypatch.setattr(sampling, "_CHUNK_ENTRIES", cap)
    spec, seed = ChainSpec(2, 2, (4,)), SeedSpec(7, 100)
    assert np.array_equal(batch_h(ensemble, spec, n, seed), scalar_h(ensemble, spec, n, seed))


def test_partial_last_chunk_at_the_real_cap():
    # 4 entries per trial: 8192 trials fill a chunk, 8195 leave three over
    spec, seed = ChainSpec(2, 2, (4,)), SeedSpec(3)
    n = sampling._CHUNK_ENTRIES // 4 + 3
    assert np.array_equal(batch_h("product", spec, n, seed), scalar_h("product", spec, n, seed))


def test_trial_order_does_not_matter():
    # any suffix of a batch equals the batch started at that stream
    spec, seed = ChainSpec(3, 2, (4,)), SeedSpec(11, 40)
    full = batch_h("product", spec, 500, seed)
    assert np.array_equal(full[123:], batch_h("product", spec, 377, seed.stream(123)))


def test_one_philox_built_per_call(monkeypatch, three_workers):
    # the generators come from np.random.Philox at call time, so a
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
    # on the threaded path, one per worker however many chunks: 37 trials
    # in chunks of 5 give the three workers blocks 0-11, 12-23 and 24-36
    made.clear()
    threaded = THREADED[0]
    three_workers(threaded, 5)
    got_threaded = batch_h("product", threaded, 37, seed)
    assert len(made) == 3
    assert sorted(int(philox.state["state"]["counter"][2]) for philox in made) == [11, 23, 36]
    monkeypatch.undo()
    assert np.array_equal(got, scalar_h("product", spec, 30, seed))
    assert np.array_equal(got_threaded, scalar_h("product", threaded, 37, seed))


# Chains on the threaded path: (4, 4, (512,)) draws 2**12 normals per
# trial, the least that goes parallel; the others draw more, one of them
# through a closed three-factor chain.
THREADED = [ChainSpec(4, 4, (512,)), ChainSpec(3, 5, (64, 48, 64)), ChainSpec(8, 8, (2048,))]


def recording(sample, seen):
    """``sample``, adding each thread that calls it to ``seen``."""

    def recorded(spec, rng):
        seen.add(threading.current_thread())
        return sample(spec, rng)

    return recorded


@pytest.fixture
def three_workers(monkeypatch):
    """Three workers whatever the machine, and thread switches as often as
    the interpreter allows; yields a function that sets the trials per chunk."""
    monkeypatch.setattr(sampling, "_cpu_count", lambda: 3)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield lambda spec, trials: monkeypatch.setattr(sampling, "_CHUNK_ENTRIES", trials * spec.p * spec.q)
    finally:
        sys.setswitchinterval(interval)


class TestThreads:
    @pytest.mark.parametrize("ensemble", ENSEMBLES)
    @pytest.mark.parametrize("spec", THREADED, ids=str)
    def test_matches_scalar_path(self, three_workers, spec, ensemble):
        # n = 37 in chunks of 5: the three workers' blocks of 12, 12 and 13
        # trials run as chunks of 5, 5, 2 / 5, 5, 2 / 5, 5, 3
        three_workers(spec, 5)
        seen = set()
        seed, threads = SeedSpec(20261018, 9), threading.active_count()
        got = h_samples(recording(SAMPLERS[ensemble], seen), spec, 37, seed)
        # the calling thread and two new ones, started once per call
        assert threading.main_thread() in seen and len(seen) == 3
        assert threading.active_count() == threads
        assert np.array_equal(got, scalar_h(ensemble, spec, 37, seed))

    @pytest.mark.parametrize(
        "spec, threaded",
        [(ChainSpec(4, 4, (512,)), True), (ChainSpec(4, 4, (511,)), False), (ChainSpec(2, 2, (4,)), False)],
        ids=str,
    )
    def test_threading_rule(self, three_workers, spec, threaded):
        # parallel from 2**12 normals per trial of the chain, for either ensemble
        three_workers(spec, 6)
        for sample in SAMPLERS.values():
            seen = set()
            h_samples(recording(sample, seen), spec, 6, SeedSpec(1))
            assert threading.main_thread() in seen
            assert len(seen) == (3 if threaded else 1)

    def test_workers_never_exceed_trials(self, three_workers):
        spec = ChainSpec(4, 4, (512,))
        three_workers(spec, 5)
        seen = set()
        h_samples(recording(sample_product, seen), spec, 2, SeedSpec(1))
        assert len(seen) == 2

    def test_chain_filling_a_stack_alone_stays_on_one_thread(self, three_workers):
        # draw-heavy, but each chunk holds one trial, as for every chain with
        # p*q > 2**14: threading such chains measured up to 2.4x slower
        spec, seed = THREADED[0], SeedSpec(4, 3)
        three_workers(spec, 1)
        for ensemble, sample in SAMPLERS.items():
            seen = set()
            got = h_samples(recording(sample, seen), spec, 6, seed)
            assert seen == {threading.main_thread()}
            assert np.array_equal(got, scalar_h(ensemble, spec, 6, seed))

    @pytest.mark.parametrize("failure", ["raise", "inf"])
    @pytest.mark.parametrize("failing", [(4, 7), (1, 4, 7)], ids=str)
    def test_lowest_failing_trial_is_raised(self, three_workers, failing, failure):
        # nine trials on three workers: blocks 0-2 (the calling thread),
        # 3-5 and 6-8; the lowest failing trial fails last
        spec = ChainSpec(4, 4, (512,))
        three_workers(spec, 9)

        def sample(spec, rng):
            trial = int(rng.bit_generator.state["state"]["counter"][2])
            x = sample_product(spec, rng)
            if trial in failing:
                if trial == failing[0]:
                    time.sleep(0.05)
                if failure == "raise":
                    raise ValueError(f"trial {trial} failed")
                x[0, 0] = np.inf
            return x

        threads = threading.active_count()
        match = f"trial {failing[0]} failed" if failure == "raise" else "finite"
        with pytest.raises(ValueError, match=match):
            h_samples(sample, spec, 9, SeedSpec(0))
        assert threading.active_count() == threads

    def test_workers_joined_when_the_calling_thread_fails(self, three_workers):
        # trial 0 fails at once on the calling thread while the other two
        # workers are still drawing
        spec = ChainSpec(4, 4, (512,))
        three_workers(spec, 9)
        finished = []

        def sample(spec, rng):
            trial = int(rng.bit_generator.state["state"]["counter"][2])
            if trial == 0:
                raise ValueError("trial 0 failed")
            time.sleep(0.02)
            finished.append(trial)
            return sample_product(spec, rng)

        threads = threading.active_count()
        with pytest.raises(ValueError, match="trial 0 failed"):
            h_samples(sample, spec, 9, SeedSpec(0))
        assert threading.active_count() == threads
        assert sorted(finished) == [3, 4, 5, 6, 7, 8]


class TestSizeCap:
    @pytest.mark.parametrize(
        "spec",
        [ChainSpec(2, 2, (2**25,)), ChainSpec(2**13, 2**13 + 1, (1,))],
        ids=["chain", "matrix"],
    )
    def test_refused_before_any_draw(self, spec):
        seen = set()
        for sample in SAMPLERS.values():
            with pytest.raises(ValueError, match="limit"):
                h_samples(recording(sample, seen), spec, 3, SeedSpec(0))
        assert not seen

    def test_boundary(self, monkeypatch):
        # (2, 2, (4,)) draws 16 normals: a cap of 16 lets it through, 15 does not
        spec, seed = ChainSpec(2, 2, (4,)), SeedSpec(2)
        monkeypatch.setattr(sampling, "_MAX_TRIAL_NORMALS", 16)
        assert np.array_equal(batch_h("product", spec, 3, seed), scalar_h("product", spec, 3, seed))
        monkeypatch.setattr(sampling, "_MAX_TRIAL_NORMALS", 15)
        with pytest.raises(ValueError, match="limit"):
            batch_h("product", spec, 3, seed)


class TestChecks:
    def test_product_needs_two_factors(self):
        with pytest.raises(ValueError, match="two factors"):
            batch_h("product", ChainSpec(2, 2), 5, SeedSpec(0))

    def test_single_needs_inner_dimension(self):
        with pytest.raises(ValueError):
            batch_h("single", ChainSpec(2, 2), 5, SeedSpec(0))

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

    @pytest.mark.parametrize("offset", [0, 1, 2**32])
    def test_offset_replays_the_later_stream(self, offset):
        seed = SeedSpec(12, 7)
        rng = np.random.Generator(np.random.Philox())
        stream_rng(seed, rng, offset)
        fresh = stream_rng(seed.stream(offset), np.random.Generator(np.random.Philox()))
        assert repr(rng.bit_generator.state) == repr(fresh.bit_generator.state)
        assert np.array_equal(rng.standard_normal(11), fresh.standard_normal(11))

    @pytest.mark.parametrize("seed, offset", [(SeedSpec(0, 2**64 - 1), 1), (SeedSpec(0, 3), -4)])
    def test_offset_outside_64_bits_refused(self, seed, offset):
        with pytest.raises(ValueError, match="stream_index"):
            stream_rng(seed, np.random.Generator(np.random.Philox()), offset)

    def test_only_philox_is_reset(self):
        with pytest.raises(TypeError, match="Philox"):
            stream_rng(SeedSpec(0), np.random.default_rng(0))


def engine_h(x) -> float:
    """h of one matrix, through the engine's stacked statistic on a one-matrix stack."""
    return float(_stacked_h(np.asarray(x, dtype=np.float64)[np.newaxis])[0])


def _mat(rows, cols, seed):
    return np.random.default_rng(seed).standard_normal((rows, cols))


class TestStackedH:
    def test_identity(self):
        assert engine_h(np.eye(2)) == 2.0

    def test_diagonal(self):
        assert engine_h(np.diag([1.0, 2.0])) == 17.0

    def test_scalar_fourth_power(self):
        assert engine_h([[3.0]]) == 81.0

    def test_wide_and_tall_agree(self):
        x = _mat(3, 7, 0)
        assert engine_h(x) == pytest.approx(engine_h(x.T), rel=1e-12)

    @given(st.integers(1, 8), st.integers(1, 8), st.integers(0, 2**32 - 1),
           st.floats(-10, 10).filter(lambda c: abs(c) > 1e-3))
    def test_quartic_scaling(self, rows, cols, seed, c):
        x = _mat(rows, cols, seed)
        assert engine_h(c * x) == pytest.approx(c**4 * engine_h(x), rel=1e-10)

    @given(st.integers(1, 8), st.integers(1, 8), st.integers(0, 2**32 - 1))
    def test_nonnegative_and_dominated_by_trace_square(self, rows, cols, seed):
        x = _mat(rows, cols, seed)
        h = engine_h(x)
        t = (x * x).sum() ** 2  # tr(X^T X)^2, the squared Frobenius norm squared
        assert h >= 0.0
        assert t >= 0.0
        # tr(M^2) <= tr(M)^2 for PSD M, with float slack
        assert h <= t * (1 + 1e-12)

    @given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 2**32 - 1))
    def test_rotation_invariance(self, rows, cols, seed):
        x = _mat(rows, cols, seed)
        rot = random_orthogonal(rows, np.random.default_rng(seed + 1))
        assert engine_h(rot @ x) == pytest.approx(engine_h(x), rel=1e-10)
