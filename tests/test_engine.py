import functools
import sys
import threading
import time
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import bits, philox_stream, random_orthogonal, stat_h
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
    return h_samples([(SAMPLERS[ensemble], spec, n, seed)])[0]


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
    # on the threaded path, one per worker however many pieces: 37 trials
    # in stacks of 5 make eight pieces for the three workers
    made.clear()
    threaded = THREADED[0]
    three_workers(threaded, 5)
    got_threaded = batch_h("product", threaded, 37, seed)
    assert len(made) == 3
    monkeypatch.undo()
    assert np.array_equal(got, scalar_h("product", spec, 30, seed))
    assert np.array_equal(got_threaded, scalar_h("product", threaded, 37, seed))


# Chains on the threaded path: (4, 4, (512,)) draws 2**12 normals per
# trial, the least that goes parallel; the others draw more, one of them
# through a closed three-factor chain.
THREADED = [ChainSpec(4, 4, (512,)), ChainSpec(3, 5, (64, 48, 64)), ChainSpec(8, 8, (2048,))]


def recording(sample, seen, workers=1):
    """``sample``, adding each thread that calls it to ``seen``.

    With ``workers`` > 1, a thread's first call waits until that many
    threads have called, so every one of them is seen drawing, however the
    pieces fall; the wait times out, and the draw fails, if fewer call.
    """
    barrier = threading.Barrier(workers, timeout=10)
    lock = threading.Lock()

    @functools.wraps(sample)  # the engine still sees which sampler this is
    def recorded(spec, rng):
        with lock:
            first = threading.current_thread() not in seen
            seen.add(threading.current_thread())
        if first and workers > 1:
            barrier.wait()
        return sample(spec, rng)

    return recorded


@pytest.fixture
def three_workers(monkeypatch):
    """Three workers whatever the machine, and thread switches as often as
    the interpreter allows; yields a function that sets the trials per stack."""
    monkeypatch.setattr(sampling, "_cpu_count", lambda: 3)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield lambda spec, trials: monkeypatch.setattr(sampling, "_CHUNK_ENTRIES", trials * spec.p * spec.q)
    finally:
        sys.setswitchinterval(interval)


def stream_of(rng) -> int:
    """The stream a generator handed to a sampler was reset to."""
    return int(rng.bit_generator.state["state"]["counter"][2])


class TestThreads:
    @pytest.mark.parametrize("ensemble", ENSEMBLES)
    @pytest.mark.parametrize("spec", THREADED, ids=str)
    def test_matches_scalar_path(self, three_workers, spec, ensemble):
        # n = 37 in stacks of 5 (at most 13 trials, ceil(37 / 3), per
        # piece): seven pieces of 5 and one of 2, pulled by three workers
        three_workers(spec, 5)
        # each single trial draws only p*q < 2**12 normals, so it is not threaded
        workers = 3 if ensemble == "product" else 1
        seen = set()
        seed, threads = SeedSpec(20261018, 9), threading.active_count()
        got = h_samples([(recording(SAMPLERS[ensemble], seen, workers), spec, 37, seed)])[0]
        # the calling thread and, when threaded, two new ones started once per call
        assert threading.main_thread() in seen and len(seen) == workers
        assert threading.active_count() == threads
        assert np.array_equal(got, scalar_h(ensemble, spec, 37, seed))

    @pytest.mark.parametrize(
        "spec, threaded",
        [(ChainSpec(4, 4, (512,)), True), (ChainSpec(4, 4, (511,)), False), (ChainSpec(2, 2, (4,)), False)],
        ids=str,
    )
    def test_threading_rule(self, three_workers, spec, threaded):
        # parallel from 2**12 normals per trial of the job's own sampler: the
        # product draws the chain's, the single ensemble p*q = 16, never enough
        three_workers(spec, 6)
        for ensemble, workers in (("product", 3 if threaded else 1), ("single", 1)):
            seen = set()
            got = h_samples([(recording(SAMPLERS[ensemble], seen, workers), spec, 6, SeedSpec(1))])[0]
            assert threading.main_thread() in seen
            assert len(seen) == workers
            assert np.array_equal(got, scalar_h(ensemble, spec, 6, SeedSpec(1)))

    def test_single_ensemble_threaded_by_its_own_draw(self, three_workers):
        # p*q = 2**12: the single ensemble goes parallel, the chain's 128-normal product does not
        spec = ChainSpec(64, 64, (1,))
        three_workers(spec, 6)
        for ensemble, workers in (("single", 3), ("product", 1)):
            seen = set()
            got = h_samples([(recording(SAMPLERS[ensemble], seen, workers), spec, 6, SeedSpec(2))])[0]
            assert len(seen) == workers
            assert np.array_equal(got, scalar_h(ensemble, spec, 6, SeedSpec(2)))

    def test_workers_never_exceed_trials(self, three_workers):
        spec = ChainSpec(4, 4, (512,))
        three_workers(spec, 5)
        seen = set()
        h_samples([(recording(sample_product, seen, 2), spec, 2, SeedSpec(1))])
        assert len(seen) == 2

    def test_chain_filling_a_stack_alone_stays_on_one_thread(self, three_workers):
        # draw-heavy, but each stack holds one trial, as for every chain with
        # p*q > 2**14: threading such chains measured up to 2.4x slower
        spec, seed = THREADED[0], SeedSpec(4, 3)
        three_workers(spec, 1)
        for ensemble, sample in SAMPLERS.items():
            seen = set()
            got = h_samples([(recording(sample, seen), spec, 6, seed)])[0]
            assert seen == {threading.main_thread()}
            assert np.array_equal(got, scalar_h(ensemble, spec, 6, seed))

    @pytest.mark.parametrize("failure", ["raise", "inf", "shape"])
    @pytest.mark.parametrize("failing", [(4, 7), (1, 4, 7)], ids=str)
    def test_lowest_failing_trial_is_raised(self, three_workers, failing, failure):
        # nine trials on three workers, in pieces 0-2, 3-5 and 6-8; the
        # lowest failing trial fails last; a wrong shape names its own
        spec = ChainSpec(4, 4, (512,))
        three_workers(spec, 9)

        def sample(spec, rng):
            trial = stream_of(rng)
            x = sample_product(spec, rng)
            if trial in failing:
                if trial == failing[0]:
                    time.sleep(0.05)
                if failure == "raise":
                    raise ValueError(f"trial {trial} failed")
                if failure == "shape":
                    return np.ones((1, trial))
                x[0, 0] = np.inf
            return x

        threads = threading.active_count()
        match = {"raise": f"trial {failing[0]} failed", "inf": "finite",
                 "shape": rf"expected a 4 x 4 matrix, got shape \(1, {failing[0]}\)"}[failure]
        with pytest.raises(ValueError, match=match):
            h_samples([(sample, spec, 9, SeedSpec(0))])
        assert threading.active_count() == threads

    def test_workers_joined_when_the_calling_thread_fails(self, three_workers):
        # the calling thread fails at its first trial while the other two
        # workers are still drawing; every trial begun has ended on return
        spec = ChainSpec(4, 4, (512,))
        three_workers(spec, 9)
        begun, ended, drawing = [], [], threading.Event()

        def sample(spec, rng):
            if threading.current_thread() is threading.main_thread():
                # fail only once another worker has begun a trial: failing
                # before they take a piece would leave them nothing to draw
                drawing.wait(10)
                raise ValueError("the calling thread failed")
            begun.append(stream_of(rng))
            drawing.set()
            time.sleep(0.02)
            ended.append(stream_of(rng))
            return sample_product(spec, rng)

        threads = threading.active_count()
        with pytest.raises(ValueError, match="the calling thread failed"):
            h_samples([(sample, spec, 9, SeedSpec(0))])
        assert threading.active_count() == threads
        assert begun and sorted(ended) == sorted(begun)

    @pytest.mark.parametrize(
        "reverse, error, failing, drawn",
        [(False, ValueError, 7, 8), (True, ValueError, 17, 18), (True, KeyboardInterrupt, 17, 3)],
        ids=["in-order", "reversed", "interrupt"],
    )
    def test_pieces_past_the_lowest_failure_are_skipped(self, monkeypatch, reverse, error, failing, drawn):
        # one worker, pieces 0-4, 5-9, 10-14 and 15-19, or the reverse: a
        # piece that starts after the failing trial is skipped, one below it
        # still runs, as it may hold a lower failure; an interrupt skips all
        monkeypatch.setattr(sampling, "_cpu_count", lambda: 1)
        monkeypatch.setattr(sampling, "_CHUNK_ENTRIES", 5 * 16)
        if reverse:
            reverse_pieces(monkeypatch)
        streams = []

        def sample(spec, rng):
            streams.append(stream_of(rng))
            if streams[-1] == failing:
                raise error(f"trial {failing} failed")
            return sample_product(spec, rng)

        with pytest.raises(error):
            h_samples([(sample, ChainSpec(4, 4, (512,)), 20, SeedSpec(0))])
        assert len(streams) == drawn


def reverse_pieces(monkeypatch):
    """Make ``h_samples`` take its pieces in the reverse of their sorted order."""
    sorted_pieces = sampling._pieces

    def reversed_pieces(*args):
        pieces, count, threaded = sorted_pieces(*args)
        return reversed(list(pieces)), count, threaded

    monkeypatch.setattr(sampling, "_pieces", reversed_pieces)


def failing_at(sample, trials, job, seed):
    """``sample`` for job number ``job``, first stream ``seed``, raising at the given
    trials with a message naming the job and the trial."""

    def failing(spec, rng):
        trial = stream_of(rng) - seed.stream_index
        if trial in trials:
            time.sleep(0.01)
            raise ValueError(f"job {job} trial {trial} failed")
        return sample(spec, rng)

    return failing


# Threaded and unthreaded jobs of one call: (4, 4, (512,)) and the closed
# three-factor chain go parallel, their single ensembles and the small
# chain do not.
JOBS = [
    (sample_product, ChainSpec(4, 4, (512,)), 23, SeedSpec(41, 0)),
    (sample_single, ChainSpec(4, 4, (512,)), 23, SeedSpec(41, 23)),
    (sample_product, ChainSpec(2, 2, (4,)), 30, SeedSpec(7, 1000)),
    (sample_product, ChainSpec(3, 5, (64, 48, 64)), 11, SeedSpec(2**64 - 1, 5)),
    (sample_single, ChainSpec(3, 5, (64, 48, 64)), 7, SeedSpec(3, 2)),
]


class TestJobs:
    @pytest.fixture(params=[(1, False), (2, False), (3, False), (1, True), (3, True)],
                    ids=["1", "2", "3", "1-reversed", "3-reversed"])
    def schedule(self, request, monkeypatch):
        """Sets the workers to 1, 2 or 3 and stacks of 5 trials of the 4 x 4
        chains, optionally reversing the piece order; yields the workers."""
        workers, reverse = request.param
        monkeypatch.setattr(sampling, "_cpu_count", lambda: workers)
        monkeypatch.setattr(sampling, "_CHUNK_ENTRIES", 5 * 16)
        if reverse:
            reverse_pieces(monkeypatch)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            yield workers
        finally:
            sys.setswitchinterval(interval)

    def test_schedule_does_not_change_values(self, schedule):
        seen, threads = set(), threading.active_count()
        got = h_samples([(recording(sample, seen), spec, n, seed) for sample, spec, n, seed in JOBS])
        assert len(seen) <= schedule and threading.active_count() == threads
        assert len(got) == len(JOBS)
        ensembles = {sample_product: "product", sample_single: "single"}
        for values, job in zip(got, JOBS):
            assert np.array_equal(values, h_samples([job])[0])
            sample, spec, n, seed = job
            assert np.array_equal(values, scalar_h(ensembles[sample], spec, n, seed))

    @pytest.mark.parametrize(
        "failing, raised",
        [({1: {2}, 0: {20}}, (0, 20)), ({3: {9}, 2: {29}, 4: {0}}, (2, 29)), ({4: {6, 1}}, (4, 1))],
        ids=str,
    )
    def test_lowest_failing_job_and_trial_is_raised(self, schedule, failing, raised):
        jobs = [(failing_at(sample, failing.get(j, ()), j, seed), spec, n, seed)
                for j, (sample, spec, n, seed) in enumerate(JOBS)]
        threads = threading.active_count()
        with pytest.raises(ValueError, match=f"job {raised[0]} trial {raised[1]} failed"):
            h_samples(jobs)
        assert threading.active_count() == threads

    def test_one_philox_per_worker(self, schedule, monkeypatch):
        made = []

        class RecordingPhilox(np.random.Philox):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(self)

        monkeypatch.setattr(np.random, "Philox", RecordingPhilox)
        h_samples(JOBS)
        assert len(made) == schedule


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
                h_samples([(recording(sample, seen), spec, 3, SeedSpec(0))])
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

    @pytest.mark.parametrize("n", [0, -1, 2.0, 1.5, True, False, np.int64(3), "3"], ids=repr)
    def test_needs_a_trial(self, n):
        # only an int that is not a bool is a trial count
        match, seen = "at least one trial" if type(n) is int else "trial count", set()
        for sample in SAMPLERS.values():
            with pytest.raises(ValueError, match=match):
                h_samples([(recording(sample, seen), ChainSpec(2, 2, (4,)), n, SeedSpec(0))])
        assert not seen

    def test_trial_count_checked_in_job_order(self):
        # each job is checked in turn, before any job draws
        seen, spec, large = set(), ChainSpec(2, 2, (4,)), ChainSpec(2, 2, (2**25,))
        sample = recording(sample_product, seen)
        with pytest.raises(ValueError, match="trial count"):
            h_samples([(sample, spec, 3, SeedSpec(0)), (sample, spec, 2.0, SeedSpec(0)),
                       (sample, large, 3, SeedSpec(0))])
        with pytest.raises(ValueError, match="limit"):
            h_samples([(sample, large, 3, SeedSpec(0)), (sample, spec, 2.0, SeedSpec(0))])
        assert not seen

    @pytest.mark.parametrize("wrong", [(1, 1), (1, 2), (2, 3)], ids=str)
    @pytest.mark.parametrize("trials", [None, {3}], ids=["every-trial", "trial-3"])
    def test_wrong_shape_refused(self, wrong, trials):
        # a matrix the chain's p x q cannot hold would otherwise broadcast
        def sample(spec, rng):
            x = sample_product(spec, rng)
            return np.ones(wrong) if trials is None or stream_of(rng) in trials else x

        match = rf"expected a 3 x 2 matrix, got shape \({wrong[0]}, {wrong[1]}\)"
        with pytest.raises(ValueError, match=match):
            h_samples([(sample, ChainSpec(3, 2, (4,)), 5, SeedSpec(0))])

    @pytest.mark.parametrize(
        "shaped, raised, infinite, match",
        [
            (2, 4, None, r"expected a 2 x 2 matrix, got shape \(1, 2\)"),
            (4, 2, None, "trial 2 failed"),
            (2, 2, None, "trial 2 failed"),
            (None, 4, 2, "matrix entries must be finite"),
            (None, 2, 4, "trial 2 failed"),
            (4, None, 2, "matrix entries must be finite"),
            (None, 0, 3, "trial 0 failed"),
        ],
        ids=["shape-first", "raise-first", "same-trial", "finite-first", "raise-before-finite",
             "finite-before-shape", "first-trial-raises"],
    )
    def test_first_failure_in_a_piece_is_raised(self, shaped, raised, infinite, match):
        # six trials of one piece on the calling thread: a wrong shape is
        # refused at its own trial, so it wins over a later raise; a
        # non-finite trial is found when the piece ends or a later trial
        # fails, and wins over every later failure
        def sample(spec, rng):
            trial = stream_of(rng)
            if trial == raised:
                raise ValueError(f"trial {trial} failed")
            if trial == infinite:
                return np.full((2, 2), np.inf)
            return np.ones((1, 2)) if trial == shaped else sample_product(spec, rng)

        with pytest.raises(ValueError, match=match):
            h_samples([(sample, ChainSpec(2, 2, (4,)), 6, SeedSpec(0))])

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
            h_samples([(sample, ChainSpec(2, 2, (4,)), 5, SeedSpec(0))])

    @pytest.mark.parametrize(
        "x",
        [[[np.inf, -np.inf]], [[np.nan, 0.0]], [[0.0, -np.inf]]],
        ids=["inf-minus-inf", "nan", "minus-inf"],  # the first's sum is nan
    )
    def test_non_finite_matrix_refused_without_a_warning(self, x):
        def sample(spec, rng):
            return np.array(x) if stream_of(rng) == 1 else sample_product(spec, rng)

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="matrix entries must be finite"):
                h_samples([(sample, ChainSpec(1, 2, (3,)), 4, SeedSpec(0))])


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
            reused = sample(spec, stream_rng(seed, rng))
            assert np.array_equal(bits(reused), bits(sample(spec, philox_stream(seed))))

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

    def test_threads_reset_their_own_streams(self):
        # each state setter waits until both threads have filled in their
        # stream, so a state dict shared by the threads would hand one of
        # them the other's stream
        barrier = threading.Barrier(2, timeout=10)

        class WaitingPhilox(np.random.Philox):
            @property
            def state(self):
                return np.random.Philox.state.__get__(self)

            @state.setter
            def state(self, value):
                barrier.wait()
                np.random.Philox.state.__set__(self, value)

        seeds = [SeedSpec(12, 7), SeedSpec(2**64 - 1, 2**40)]
        drawn = [None, None]

        def reset(k):
            # a plain Philox first, so the subclass's name must replace its own
            stream_rng(seeds[1 - k], np.random.Generator(np.random.Philox()))
            rng = stream_rng(seeds[k], np.random.Generator(WaitingPhilox()), k)
            drawn[k] = rng.standard_normal(11)

        threads = [threading.Thread(target=reset, args=(k,)) for k in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=20)
            assert not thread.is_alive()
        for k, seed in enumerate(seeds):
            assert np.array_equal(bits(drawn[k]), bits(philox_stream(seed.stream(k)).standard_normal(11)))


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
