"""Threshold test on the statistic, plus two uncertified TV estimates.

The test thresholds the Schatten-4 statistic at the midpoint of the two
analytic means, which makes the Chebyshev misclassification bound
symmetric between the hypotheses: ``build_test`` fixes the rule for a
chain and ``error_rates`` scores drawn values against it.
``draw_h_samples`` is the one route from chains to drawn values, for one
chain or a grid of them: it owns the order in which chains are refused,
which streams each ensemble of each chain is drawn on, and how chains are
grouped into calls of the trial engine ``sampling.h_samples``. Neither TV
estimate is certified: ``tv_upper_bound`` carries a constant that theory
does not pin, and the Kolmogorov-Smirnov statistic of the drawn values
estimates a TV lower bound with no correction for sampling noise.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator

import numpy as np

from .core import ChainSpec, _Record
from .moments import as_float, mean_h_product_exact, var_h_product_exact
from .sampling import (SeedSpec, check_trial_count, check_trial_size, h_samples, sample_product,
                       sample_single)

# The TV upper bound's multiplier, fixed at 1 as the sweep column name
# tv_upper_c1 says; every CLI report echoes it under the key "constants".
TV_UPPER_C = 1.0


class TestPlan(_Record):
    """The whole threshold test of one chain, as ``build_test`` computes it."""

    __test__ = False  # not a pytest class, despite the name
    __slots__ = ("mu_single", "mu_product", "threshold", "var_single", "var_product",
                 "chebyshev_error_bound")


def _chebyshev_error(gap: float, var_single: float, var_product: float) -> float:
    """Per-hypothesis misclassification bound for the midpoint threshold.

    Chebyshev at half the mean gap: the larger exact variance over
    (gap/2)^2, clamped to 1. A nonpositive gap carries no guarantee and
    returns 1.
    """
    if gap <= 0:
        return 1.0
    return min(1.0, max(var_single, var_product) / (gap / 2.0) ** 2)


def build_test(spec: ChainSpec) -> TestPlan:
    """Test plan for a chain: exact means and variances, midpoint threshold, Chebyshev bound.

    The single ensemble is the one-factor chain ``ChainSpec(p, q)`` scaled
    by 1/sqrt(d1), so its mean and variance are that chain's over d1^2 and
    d1^4.
    """
    single, d1 = ChainSpec(spec.p, spec.q), spec.d1
    mu_single = as_float(mean_h_product_exact(single) / d1**2, "mu_single")
    mu_product = as_float(mean_h_product_exact(spec), "mu_product")
    var_single = as_float(var_h_product_exact(single) / d1**4, "var_single")
    var_product = as_float(var_h_product_exact(spec), "var_product")
    threshold = (mu_single + mu_product) / 2.0
    bound = _chebyshev_error(mu_product - mu_single, var_single, var_product)
    return TestPlan(mu_single, mu_product, threshold, var_single, var_product, bound)


def draw_h_samples(
    specs: Iterable[ChainSpec], n: int, seed: SeedSpec
) -> Iterator[tuple[ChainSpec, TestPlan, np.ndarray, np.ndarray]]:
    """Yield ``(spec, plan, h_product, h_single)`` for each chain of ``specs``, in order:
    its test plan and n statistic values from each of its ensembles.

    ``check_trial_count`` refuses a bad n before anything else. Every chain
    is then checked before any is drawn, so a refused chain draws nothing:
    in chain order, ``check_trial_size`` and then ``build_test``, the
    cheapest refusal first (the size check is a sum over the chain, the
    exact moments are big-integer work that grows as r**2, and the draw
    grows with n). ``specs`` is read one chain at a time, so a chain after a
    refused one is never built. Chain k's product trial i is on stream
    ``seed.stream_index + 2kn + i`` and its single trial i on
    ``seed.stream_index + (2k + 1)n + i``, so the batches are independent
    and any trial order reproduces the same values. Consecutive chains
    share one ``h_samples`` call of at most max(2n, ``_CHUNK_ENTRIES``)
    values, drawn when the first of them is asked for, which bounds the
    memory of a long list of chains. That call checks that its streams fit
    in 64 bits, so a chain whose streams do not is refused only when its
    call is drawn, after the chains of earlier calls have been yielded.
    Checking every chain's streams up front would refuse n = 2**64 - 1 for
    its single ensemble's streams before ``h_samples`` refuses to allocate
    its product values, the refusal the CLI gives for ``--trials 2**64-1``.
    """
    from .sampling import _CHUNK_ENTRIES  # read per call, as h_samples is: a patched cap reaches it

    check_trial_count(n)
    chains = []
    for spec in specs:
        check_trial_size(spec)
        chains.append((spec, build_test(spec)))
    per_call = max(1, _CHUNK_ENTRIES // (2 * n))
    for start in range(0, len(chains), per_call):
        group = chains[start : start + per_call]
        values = h_samples([  # chain k's ensembles e = 0 (product) and 1 (single)
            (sample, spec, n, seed.stream((2 * k + e) * n))
            for k, (spec, _) in enumerate(group, start)
            for e, sample in enumerate((sample_product, sample_single))
        ])
        for chain, h_product, h_single in zip(group, values[::2], values[1::2]):
            yield *chain, h_product, h_single


def _nonempty(xs, ys) -> tuple[np.ndarray, np.ndarray]:
    """Both samples as flat float arrays; raises ValueError if either is empty or not finite."""
    xs, ys = np.asarray(xs, dtype=float).ravel(), np.asarray(ys, dtype=float).ravel()
    if xs.size == 0 or ys.size == 0:
        raise ValueError("both samples must be nonempty")
    for sample in (xs, ys):
        finite = np.isfinite(sample)
        if not finite.all():
            raise ValueError(f"samples must be finite, got {sample[~finite][0]}")
    return xs, ys


def error_rates(h_product, h_single, plan: TestPlan) -> dict[str, float]:
    """Error rates of the threshold test on drawn statistic values, by report key.

    A value is labeled "product" iff it exceeds the threshold, so exact
    ties go to "single". A false positive is a single-ensemble draw
    labeled "product"; a false negative is a product draw labeled
    "single". Accuracy balances the two hypotheses equally. An empty
    sample has no rate and raises ValueError.
    """
    h_product, h_single = _nonempty(h_product, h_single)
    fnr = float((~(h_product > plan.threshold)).mean())
    fpr = float((h_single > plan.threshold).mean())
    return {
        "accuracy": 1.0 - (fpr + fnr) / 2.0,
        "false_positive_rate": fpr,
        "false_negative_rate": fnr,
    }


def tv_lower_bound_empirical(xs, ys) -> float:
    """Two-sample Kolmogorov-Smirnov statistic: sup_t |F_x(t) - F_y(t)|.

    Thresholding events on the statistic are a subfamily of all events, so
    this estimates a lower bound on the TV distance of the underlying
    matrix laws. Evaluated exactly over all sample points.
    """
    xs, ys = map(np.sort, _nonempty(xs, ys))
    grid = np.concatenate([xs, ys])
    fx = np.searchsorted(xs, grid, side="right") / xs.size
    fy = np.searchsorted(ys, grid, side="right") / ys.size
    return float(np.abs(fx - fy).max())


def tv_upper_bound(spec: ChainSpec) -> float:
    """Chain TV upper bound c * sum_i sqrt(pq/d_i), clamped to 1, with c = ``TV_UPPER_C``.

    Theory does not pin the absolute constant c; it is fixed at 1, and
    reports echo it alongside the value.
    """
    spec.d1  # refuses a one-factor chain, which has no inner dimension to sum over
    total = TV_UPPER_C * sum(math.sqrt(spec.p * spec.q / d) for d in spec.inner)
    return min(1.0, total)
