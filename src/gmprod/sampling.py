"""Reproducible draws of Gaussian matrices, normalized product chains and their statistic h.

Every trial owns an independent random stream identified by
``(master_seed, stream_index)``: Philox keyed by the master seed, with the
stream index selecting a disjoint counter block, so a stream is a pure
function of the seed pair and trials can run in any order, on any thread,
without changing a value. ``stream_rng(seed, rng, offset)`` is the one
place a ``SeedSpec`` becomes a stream: it resets a Philox generator to the
state a new one for stream ``stream_index + offset`` starts in, so a trial
draws the same normals as a Philox built for its stream, without building
one. The one-trial samplers ``sample_product`` and ``sample_single`` draw
from the generator they are handed. Normal variates come from numpy's
ziggurat, the draw of ``Generator.standard_normal``; outputs are
bit-reproducible for a pinned numpy version. ``sample_single`` draws and
scales in one call, ``Generator.normal(-0.0, scale, shape)``, whose
entries are ``-0.0 + scale * z`` for the same ziggurat z: -0.0 is the
additive identity of every double, so each entry is ``z * scale`` bit for
bit, the sign of a zero included. A two-factor chain draws both factors
with one scaled (p + q) x d1 fill, and multiplies its first p rows by the
rest, reshaped to d1 x q, with ``np.dot``: the ziggurat fills an array in
order, so each factor holds the normals a fill of its own shape would
have drawn, and ``np.dot`` calls the same BLAS routine as ``@`` at less
cost per call, so the product is the one factor-by-factor draws give,
bit for bit. That fill, too, is one ``Generator.normal(-0.0, scale,
shape)`` call.

``h_samples(jobs)`` returns, for each job ``(sample, spec, n, seed)``,
the statistic h = tr((A^T A)^2) of n trials drawn by the one-trial
sampler ``sample``, with trial i on stream ``seed.stream_index + i``.
Each job is cut into pieces of contiguous trials, at most one stack of
``_CHUNK_ENTRIES`` matrix entries each (a larger trial is a piece
alone). Every piece of every job goes to one set of workers, largest
draw first (Graham's LPT rule): a worker owns a Philox generator and
pulls the next piece from one shared iterator, resets the generator with
``stream_rng`` before each trial and checks each trial's matrix with
``as_matrix``, which refuses one that is not p x q (the statistic of a
matrix of another shape would broadcast). It then copies the piece's
matrices into one stack, checks the whole stack for finiteness with one
``np.isfinite`` reduction, which sets no floating-point flag, and
computes the statistic as stacked matrix products over the piece, the
only place the package computes h.

A job whose sampler draws at least ``_PARALLEL_NORMALS`` normals per
trial (p*q for ``sample_single``, the whole chain for any other sampler)
is also cut into pieces of at most ceil(n / cpus) trials, where cpus
counts the CPUs the process may run on; if its stack holds more than one
trial, the call is threaded, with one worker per CPU but no more than
there are pieces. Otherwise every piece
runs on the calling thread. The calling thread is a worker; the others
start once per call and are joined before it returns, also on error.
numpy's normal fill loop, large ufuncs and BLAS release the interpreter
lock, so the draws overlap. A trial's values depend on its stream alone,
so the output is the same bit for bit whatever the workers or the order
of the pieces, and a failing call raises the error of its lowest failing
(job, trial). No trial may draw or store more than
``_MAX_TRIAL_NORMALS`` values. None of these limits is a setting.
"""

from __future__ import annotations

import math
import os
import threading
from collections.abc import Callable, Iterator

import numpy as np

from .core import ChainSpec, _Record, as_matrix

_U64 = 1 << 64
# each thread's Philox state dict, reused by stream_rng (see its docstring)
_thread_state = threading.local()
# 2**15 float64 entries, 256 KiB per stack.
_CHUNK_ENTRIES = 1 << 15
# Below 2**12 normals per trial, a trial spends most of its time in
# interpreter work, which holds the interpreter lock and so cannot
# overlap; a call of such jobs alone runs on the calling thread.
_PARALLEL_NORMALS = 1 << 12
# 2**26 float64 values, 512 MiB: the most one trial may draw or store.
# Every worker holds a trial at a time, so this also bounds their memory.
_MAX_TRIAL_NORMALS = 1 << 26


def _u64_error(name: str, value) -> ValueError:
    return ValueError(f"{name} must be an unsigned 64-bit integer, got {value!r}")


class SeedSpec(_Record):
    """Identifies one random stream: a master seed plus a trial index."""

    __slots__ = ("master_seed", "stream_index")

    def __init__(self, master_seed: int, stream_index: int = 0):
        for name, value in zip(self.__slots__, (master_seed, stream_index)):
            # a bool is an int, but no seed
            if isinstance(value, bool) or not isinstance(value, int) or not 0 <= value < _U64:
                raise _u64_error(name, value)
        super().__init__(master_seed, stream_index)

    def stream(self, offset: int) -> "SeedSpec":
        """Seed for the stream ``offset`` positions after this one."""
        return SeedSpec(self.master_seed, self.stream_index + offset)


def stream_rng(seed: SeedSpec, rng: np.random.Generator, offset: int = 0) -> np.random.Generator:
    """Reset ``rng``, a Generator over a Philox, to stream ``seed.stream_index + offset``.

    The master seed keys Philox; the stream index selects a disjoint
    2**128-long counter block, so distinct indices never overlap. The bit
    generator gets the state a new Philox for this stream starts in
    (counter ``(0, 0, stream_index + offset, 0)``, empty buffer), and
    ``rng`` itself is returned. The reset costs several times less than
    building a Philox. ``stream_rng(seed, rng, k)`` resets to the stream
    of ``seed.stream(k)`` without building that ``SeedSpec``; an index
    outside ``[0, 2**64)`` raises ValueError.

    The state is set from one dict per thread, built on the thread's first
    call; each call replaces its counter, its key and its generator name
    (the setter of a Philox subclass checks its own name). Reusing it,
    rather than building two dicts per call, takes 12-16% off the call
    (1.06 to 0.90 us, timeit, 2000 calls x 60 rounds, interleaved, on a
    2-core Xeon). No dict is shared between threads: the engine's
    workers reset their generators concurrently, and a reset on one
    thread would otherwise rewrite the stream another thread is setting.
    The next reset on the thread rewrites the dict, so a state setter
    must copy what it keeps of it, as Philox's does.
    """
    bit_generator = rng.bit_generator
    if not isinstance(bit_generator, np.random.Philox):
        raise TypeError(f"can only reset a Philox stream, got {type(bit_generator).__name__}")
    index = seed.stream_index + offset
    # the SeedSpec check without its bool test: a sum of ints is never a bool
    if not isinstance(index, int) or not 0 <= index < _U64:
        raise _u64_error("stream_index", index)
    try:
        state = _thread_state.value
    except AttributeError:  # the thread's first reset
        # an empty four-word output block, as a Philox that has drawn nothing has
        state = _thread_state.value = {
            "state": {}, "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
        }
    state["bit_generator"] = type(bit_generator).__name__
    words = state["state"]
    words["counter"] = (0, 0, index, 0)
    words["key"] = (seed.master_seed, 0)
    bit_generator.state = state
    return rng


def sample_single(spec: ChainSpec, rng: np.random.Generator) -> np.ndarray:
    """One draw of the single-matrix ensemble: a p x q Gaussian scaled by 1/sqrt(d1).

    Requires at least one inner dimension so the normalizer is defined.
    One ``Generator.normal`` call draws and scales: numpy computes each
    entry as ``loc + scale * z``, and a ``loc`` of -0.0 leaves every
    ``scale * z`` as it is, where 0.0 would turn a -0.0 into 0.0. The
    entries are those of ``standard_normal`` scaled in place, bit for bit,
    at about two thirds of the cost for a 2 x 2 draw.
    """
    return rng.normal(-0.0, 1.0 / math.sqrt(spec.d1), (spec.p, spec.q))


def sample_product(spec: ChainSpec, rng: np.random.Generator) -> np.ndarray:
    """One draw of the product ensemble W_1 W_2 ... W_r.

    Factor i is a d_{i-1} x d_i Gaussian scaled by 1/sqrt(d_i), except the
    last factor, which is scaled by 1/sqrt(d1) regardless of its column
    count; every ``ChainSpec`` closes up (d_{r-1} == d1) once built.
    Factors are drawn first-to-last from ``rng``, so a generator reset to
    a given stream always replays the identical product.

    A two-factor chain (r = 2, so inner == (d1,)) scales both factors by
    1/sqrt(d1). It draws its normals as one scaled (p + q) x d1 array and
    multiplies its first p rows, the first factor, by its last q rows
    reshaped to d1 x q, the second, with ``np.dot``, the BLAS call of
    ``@`` at less overhead. numpy fills an array in order, so each view
    holds exactly the normals a fill of its own shape would have drawn,
    and the product is the same bit for bit. The array is one
    ``Generator.normal(-0.0, scale, shape)`` call, bit for bit the scaled
    ``standard_normal`` fill (see ``sample_single``). It is faster than
    the two-call fill below 2**10 normals (0.74 of its time at 16) and a
    few percent slower above (1.05 at 32768, timeit). One call serves
    every size: the large fills cost the benchmark's
    ``distinguish-large-d`` and ``sweep-phase`` about 4% of their ops/s,
    inside its 15% bound (``BENCH_36.json``).
    Longer chains draw and scale factor by factor, so they hold one
    factor's normals at a time.
    """
    inner, p, q = spec.inner, spec.p, spec.q
    if len(inner) == 1:
        d1 = inner[0]
        x = rng.normal(-0.0, 1.0 / math.sqrt(d1), (p + q, d1))
        return np.dot(x[:p], x[p:].reshape(d1, q))
    d1, r = spec.d1, spec.r  # d1 refuses a chain with no inner dimension
    dims = (p, *inner, q)
    out = None
    for i in range(r):
        w = rng.standard_normal((dims[i], dims[i + 1]))
        w *= 1.0 / math.sqrt(d1 if i == r - 1 else dims[i + 1])  # in place: no second copy
        out = w if out is None else out @ w
    return out


def _non_finite() -> ValueError:
    return ValueError("matrix entries must be finite")


def _cpu_count() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _stacked_h(x: np.ndarray) -> np.ndarray:
    """h of each matrix of an (m, rows, cols) stack: the squared Frobenius norm of X^T X."""
    # the Gram factor on the smaller side: X X^T and X^T X share nonzero eigenvalues
    xt = np.swapaxes(x, 1, 2)
    g = xt @ x if x.shape[2] <= x.shape[1] else x @ xt
    return (g * g).reshape(x.shape[0], -1).sum(axis=1)


def check_trial_size(spec: ChainSpec) -> int:
    """Normals one draw of the product chain takes, checked against the per-trial limit.

    Raises ValueError when one trial would draw more than
    ``_MAX_TRIAL_NORMALS`` normals or its matrix would hold more than that
    many entries. The check costs a sum over the chain, so a caller can
    refuse a chain with it before any other work.
    """
    dims = (spec.p, *spec.inner, spec.q)
    normals = sum(a * b for a, b in zip(dims, dims[1:]))
    if max(normals, spec.p * spec.q) > _MAX_TRIAL_NORMALS:
        raise ValueError(
            f"one trial would draw {normals} normals into a {spec.p} x {spec.q} matrix; "
            f"the limit is {_MAX_TRIAL_NORMALS} values per trial"
        )
    return normals


def check_trial_count(n) -> None:
    """Raise ValueError unless ``n`` is an int (not a bool) of at least one."""
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError(f"the trial count must be an integer, got {n!r}")
    if n < 1:
        raise ValueError(f"need at least one trial, got {n}")


# one batch of trials for ``h_samples``: (sampler, chain, trials, first trial's stream)
Job = tuple[Callable[[ChainSpec, np.random.Generator], np.ndarray], ChainSpec, int, SeedSpec]


def _unwrapped(sample):
    # a traced or recording wrapper keeps the function it wraps in __wrapped__
    while hasattr(sample, "__wrapped__"):
        sample = sample.__wrapped__
    return sample


def _pieces(jobs: list[Job], chain_normals: list[int],
            cpus: int) -> tuple[Iterator[tuple[int, int, int]], int, bool]:
    """The pieces of ``jobs`` as (job, first trial, trials), most normals first, their count,
    and whether to thread; ``chain_normals`` holds each job's ``check_trial_size``.

    A piece holds at most one stack of trials. A job whose trials draw at
    least ``_PARALLEL_NORMALS`` normals each (p*q for ``sample_single``,
    the whole chain for any other sampler) is also cut into pieces of at
    most ceil(n / cpus) trials, and makes the call threaded if its stack
    holds more than one trial. A job is at most two runs of equal pieces,
    which are sorted, stably, so equal pieces keep their job and trial
    order; the pieces themselves are made as they are taken, so a job of
    many one-trial pieces costs no list of them.
    """
    runs, threaded = [], False  # (normals per piece, job, first trial, trials per piece, pieces)
    for j, ((sample, spec, n, _), normals) in enumerate(zip(jobs, chain_normals)):
        if _unwrapped(sample) is _unwrapped(sample_single):
            normals = spec.p * spec.q
        size = max(1, min(n, _CHUNK_ENTRIES // (spec.p * spec.q)))
        if normals >= _PARALLEL_NORMALS:
            # a trial that fills a stack alone (p*q > 2**14) keeps the call on one
            # thread: threading such chains measured up to 2.4x slower
            threaded = threaded or size > 1
            size = min(size, -(-n // cpus))
        full, rest = divmod(n, size)
        runs.append((normals * size, j, 0, size, full))
        if rest:
            runs.append((normals * rest, j, n - rest, rest, 1))
    runs.sort(key=lambda run: -run[0])
    pieces = ((j, first + k * m, m) for _, j, first, m, count in runs for k in range(count))
    return pieces, sum(run[4] for run in runs), threaded


def h_samples(jobs: list[Job]) -> list[np.ndarray]:
    """h of the trials of each job ``(sample, spec, n, seed)``: n values of ``sample(spec, rng)``.

    Trial i of a job is on stream ``seed.stream_index + i``. Raises
    ValueError, before drawing anything, when ``check_trial_count`` refuses
    a job's n, its last stream index does not fit in 64 bits,
    ``check_trial_size`` refuses its chain or its n values cannot be
    allocated; the jobs are checked in order. A failing trial, one whose
    matrix ``as_matrix`` refuses for its shape, or one whose matrix holds a
    NaN or an infinity, raises the lowest failing (job, trial)'s error; the
    last with ``ValueError("matrix entries must be finite")``. Finiteness
    is checked once per piece, so a non-finite trial is refused when its
    piece has been drawn, not at the trial: only a call that fails draws
    the rest of that piece. When a trial raises or has the wrong shape,
    the trials of its piece drawn before it are checked first, so an
    earlier non-finite trial still wins.
    """
    outs, normals = [], []
    for _, spec, n, seed in jobs:
        check_trial_count(n)
        seed.stream(n - 1)  # the last trial's stream index must fit in 64 bits
        normals.append(check_trial_size(spec))
        try:
            outs.append(np.empty(n))
        except (ValueError, MemoryError):  # numpy's own message names no option
            raise ValueError(f"cannot allocate the values of {n} trials; use fewer trials") from None
    cpus = _cpu_count()
    pending, count, threaded = _pieces(jobs, normals, cpus)
    workers = min(cpus, count) if threaded else 1
    lock = threading.Lock()
    failure: list[tuple[int, int, BaseException]] = []  # the lowest failing (job, trial) yet

    def fail(job: int, trial: int, exc: BaseException) -> None:
        with lock:
            if not failure or (job, trial) < failure[0][:2]:
                failure[:] = [(job, trial, exc)]

    def work() -> None:
        """Draw pieces until none is left that could hold a trial below the lowest failure."""
        try:
            # built per call through np.random.Philox, never cached at import; any
            # key will do, since stream_rng sets each trial's key and counter
            rng = np.random.Generator(np.random.Philox(key=0))
        except BaseException as exc:  # raised on the calling thread below
            fail(-1, -1, exc)
            return
        while True:
            with lock:
                # a piece that starts after the lowest failure cannot hold a lower one
                piece = next((pc for pc in pending if not failure or pc[:2] < failure[0][:2]), None)
            if piece is None:
                return
            j, first, m = piece
            sample, spec, _, seed = jobs[j]
            shape, trial, mats = (spec.p, spec.q), first, []
            # bound here, per piece, so a function patched between calls is the one called
            append, reset, check = mats.append, stream_rng, as_matrix
            try:
                for trial in range(first, first + m):
                    append(check(sample(spec, reset(seed, rng, trial)), shape))
                stack = np.array(mats)
                # one reduction per piece; isfinite, unlike a sum, sets no floating-point flag
                if not np.isfinite(stack).all():
                    raise _non_finite()
                outs[j][first : first + m] = _stacked_h(stack)
            except Exception as exc:
                # a non-finite trial collected before the failing one is the lower failure
                bad = next((i for i, x in enumerate(mats) if not np.isfinite(x).all()), None)
                if bad is None:
                    fail(j, trial, exc)
                else:
                    fail(j, first + bad, _non_finite())
            except BaseException as exc:  # an interrupt: skip every piece not yet started
                fail(-1, -1, exc)

    threads = []
    try:
        for _ in range(workers - 1):
            thread = threading.Thread(target=work)
            thread.start()
            threads.append(thread)
        work()
    finally:
        for thread in threads:
            thread.join()
    if failure:
        raise failure[0][2]
    return outs
