"""Outside-in spans around the public functions of ``gmprod``.

Each traced function is wrapped by identity: every attribute of every
loaded ``gmprod.*`` module that *is* the function gets the wrapper, so
calls through names bound at import (``from .sampling import
sample_product``) are seen too. A function that no longer exists reports
zero calls. Spans live in flat in-memory arrays (name, op, parent, start,
end) and are written once, when the run ends.

While the spans are installed, ``numpy.random.Philox`` is replaced by a
subclass that counts the words drawn from each instance, so the count
survives a generator that is reset for each trial rather than rebuilt.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import weakref
from array import array

import numpy as np

TRACED = (
    "cli.main",
    "cli.canonical_json",
    "core.as_matrix",
    "sampling.stream_rng",
    "sampling.sample_product",
    "sampling.sample_single",
    "stats.stat_h",
    "moments.mean_h_product",
    "moments.variance_bound_product",
    "moments.closed_form_moments",
    "distinguisher.build_test",
    "distinguisher.empirical_power",
    "distinguisher.draw_h_samples",
    "distinguisher.tv_lower_bound_empirical",
    "oracle.wick_exact_mean_h",
    "oracle.wick_exact_var_h_single",
)
PHILOX = np.random.Philox


def philox_position(bit_generator) -> int:
    """Position of a Philox stream in 64-bit words, up to a constant.

    Philox fills a four-word buffer per counter increment, and
    ``buffer_pos`` words of the current block are used, so 4 * counter +
    buffer_pos grows by one per word drawn. The counter is 256 bits wide.
    """
    state = PHILOX.state.__get__(bit_generator)
    counter = sum(int(w) << (64 * i) for i, w in enumerate(state["state"]["counter"]))
    return 4 * counter + int(state["buffer_pos"])


def _counter_value(counter) -> int:
    """The 256-bit counter a Philox starts from, given its ``counter`` argument."""
    if counter is None:
        return 0
    if isinstance(counter, (int, np.integer)):
        return int(counter)
    return sum(int(w) << (64 * i) for i, w in enumerate(np.asarray(counter, dtype=np.uint64).ravel()))


def counting_philox(made: list):
    """A Philox subclass that counts words drawn and appends each instance to ``made``.

    Words drawn before a reset of the state or an ``advance`` (which
    ``jumped`` also uses) are banked before the stream moves, so they are
    not lost. The start position is worked out from the constructor's
    arguments only when it is first needed, which keeps construction, and
    so the traced self time of whatever builds generators, almost as cheap
    as the parent's.
    """

    class CountingPhilox(PHILOX):
        def __init__(self, seed=None, counter=None, key=None):
            super().__init__(seed, counter, key)
            self._start_counter = counter
            self._mark = None
            self._banked = 0
            made.append(self)

        def _drawn(self) -> int:
            if self._mark is None:
                # a new Philox starts with an empty four-word buffer
                self._mark = 4 * _counter_value(self._start_counter) + 4
            return philox_position(self) - self._mark

        def _bank(self) -> None:
            self._banked += self._drawn()

        def take_words(self) -> int:
            """Words drawn since the last call."""
            words = self._banked + self._drawn()
            self._banked, self._mark = 0, philox_position(self)
            return words

        @property
        def state(self):
            return PHILOX.state.__get__(self)

        @state.setter
        def state(self, value):
            self._bank()
            PHILOX.state.__set__(self, value)
            self._mark = philox_position(self)

        def advance(self, delta):
            self._bank()
            result = super().advance(delta)
            self._mark = philox_position(self)
            return result

    return CountingPhilox


class Tracer:
    """Records a span per call of each function in ``TRACED`` while installed."""

    def __init__(self):
        self.names = list(TRACED)
        self.name_ids = array("i")
        self.ops = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.op = -1
        # Philox instances made since the last take_words, and older ones still alive
        self._made: list = []
        self._live = weakref.WeakSet()
        self._philox = counting_philox(self._made)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name_id: int, fn):
        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack = self._stack
            idx = len(self.starts)
            self.name_ids.append(name_id)
            self.ops.append(self.op)
            self.parents.append(stack[-1] if stack else -1)
            self.ends.append(0.0)
            stack.append(idx)
            self.starts.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.ends[idx] = time.perf_counter()
                stack.pop()
            return result

        return span

    def _replace(self, target, replacement, modules) -> None:
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is target:
                    setattr(module, key, replacement)
                    self._patched.append((module, key, target))

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == "gmprod" or n.startswith("gmprod.")]
        for name_id, name in enumerate(self.names):
            module_name, attr = name.split(".")
            try:
                target = getattr(importlib.import_module(f"gmprod.{module_name}"), attr)
            except (ImportError, AttributeError):
                continue
            self._replace(target, self._wrap(name_id, target), modules)
        self._replace(PHILOX, self._philox, [np.random, *modules])

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def take_words(self) -> int:
        """Philox words drawn since the last call, from every Philox made while installed."""
        words = sum(g.take_words() for g in self._made) + sum(g.take_words() for g in self._live)
        self._live.update(self._made)
        self._made.clear()
        return words

    def clear(self) -> None:
        for arr in (self.name_ids, self.ops, self.parents, self.starts, self.ends):
            del arr[:]
        self.take_words()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "names": np.array(self.names),
            "name_id": np.frombuffer(self.name_ids, dtype=np.intc).copy(),
            "op": np.frombuffer(self.ops, dtype=np.intc).copy(),
            "parent": np.frombuffer(self.parents, dtype=np.intc).copy(),
            "start": np.frombuffer(self.starts, dtype=np.float64).copy(),
            "end": np.frombuffer(self.ends, dtype=np.float64).copy(),
        }

    def per_name(self) -> dict[str, tuple[int, float]]:
        """Calls and self seconds of each traced name over all recorded spans.

        Self time is a span's duration minus the durations of its child
        spans; children run inside their parent, one at a time.
        """
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = np.zeros_like(dur)
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        self_s = dur - child
        calls = np.bincount(a["name_id"], minlength=len(self.names))
        self_total = np.bincount(a["name_id"], weights=self_s, minlength=len(self.names))
        return {n: (int(calls[i]), float(self_total[i])) for i, n in enumerate(self.names)}

    def write(self, path) -> None:
        np.savez(path, **self.arrays())
