"""Output checks for one op, against the benchmark's own closed forms.

The checks accept any valid sampler: exact values are compared with exact
rationals, and Monte Carlo accuracies only with a committed reference
(``reference.json``) within binomial error, pooled over all ops of a run
(``AccuracyPool``). Each check returns a list of problems; an empty list
means the op passed.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
from fractions import Fraction

from workloads import options, template

# Relative tolerance for a float printed by the program against an exact value.
REL_TOL = 1e-9

DISTINGUISH_KEYS = frozenset({
    "p", "q", "inner", "trials", "seed", "threshold", "mu_single", "mu_product", "accuracy",
    "false_positive_rate", "false_negative_rate", "chebyshev_error_bound", "constants",
})
ORACLE_KEYS = frozenset({
    "p", "q", "inner", "max_monomials", "wick_mean", "closed_form_mean", "equal_mean",
})
ORACLE_VARIANCE_KEYS = frozenset({"wick_variance", "closed_form_variance", "equal_variance"})
SWEEP_HEADER = ["d", "accuracy", "tv_lower_empirical", "tv_upper_c1", "chebyshev_error", "mean_gap"]


# Closed forms for h = tr((A^T A)^2), written out independently of the program.

def mu_single(p: int, q: int, d: int) -> Fraction:
    """E h for a p x q Gaussian scaled by 1/sqrt(d)."""
    return Fraction(p * q * (p + q + 1), d * d)


def mu_product(p: int, q: int, d: int) -> Fraction:
    """E h for the normalized two-factor chain (G1/sqrt(d)) (G2/sqrt(d))."""
    return Fraction(p * q * (p + q + 1) * d * (d + 2) + p * q * (p - 1) * (q - 1) * d, d**4)


def mean_unnormalized(p: int, q: int) -> Fraction:
    """E h for an unnormalized p x q Gaussian: E tr(W^2) of a Wishart W."""
    return Fraction(p * q * (p + q + 1))


def var_unnormalized(p: int, q: int) -> Fraction:
    """Var h for an unnormalized p x q Gaussian: Var tr(W^2) of a Wishart W."""
    return Fraction(4 * p * q * (2 * p * p + 5 * p * q + 2 * q * q + 5 * p + 5 * q + 5))


class AccuracyPool:
    """Misclassified draws of each accuracy row, summed over the ops of a run.

    An op's accuracy is one minus its error count over 2*trials draws, and
    the threshold is fixed by the op's shape, so errors are independent
    draws. Their variance is at most that of one binomial at the mean error
    rate, so a two-proportion z-test of the pooled count against the
    reference's count is conservative. Pooling about a hundred ops makes
    the test sharp enough to catch a sampler with the wrong distribution,
    which one op alone is not.
    """

    Z = 5.0

    def __init__(self, reference: dict):
        self.reference = reference
        self.counts: dict[tuple[str, int], list[int]] = {}

    def add(self, key: str, row: int, accuracy: float, trials: int) -> None:
        draws = 2 * trials
        count = self.counts.setdefault((key, row), [0, 0])
        count[0] += round((1.0 - accuracy) * draws)
        count[1] += draws

    def problems(self) -> list[str]:
        problems = []
        for (key, row), (errors, draws) in sorted(self.counts.items()):
            ref = self.reference.get(key)
            if ref is None or row >= len(ref["accuracy"]):
                problems.append(f"{key} row {row}: no committed reference accuracy")
                continue
            ref_draws = ref["draws"]
            ref_errors = (1.0 - ref["accuracy"][row]) * ref_draws
            e = (errors + ref_errors + 1) / (draws + ref_draws + 2)
            se = math.sqrt(e * (1.0 - e) * (1.0 / draws + 1.0 / ref_draws))
            gap = abs(errors / draws - ref_errors / ref_draws)
            if gap > self.Z * se:
                problems.append(
                    f"{key} row {row}: pooled accuracy {1.0 - errors / draws:.5f} over {draws} draws "
                    f"is {gap / se:.1f} SEs from reference {ref['accuracy'][row]:.5f}"
                )
        return problems


def _reject_constant(name: str):
    raise ValueError(f"non-finite constant {name}")


def strict_json(text: str) -> dict:
    """Parse JSON that must be an object and must not contain NaN or Infinity."""
    obj = json.loads(text, parse_constant=_reject_constant)
    if not isinstance(obj, dict):
        raise ValueError("top level is not a JSON object")
    return obj


def _close(value, exact: Fraction) -> bool:
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and abs(Fraction(value) - exact) <= REL_TOL * abs(exact)
    )


def _multiple_of(value: float, unit: float) -> bool:
    steps = value / unit
    return abs(steps - round(steps)) < 1e-9


def _parse_frac(text) -> Fraction:
    num, sep, den = str(text).partition("/")
    if not sep:
        raise ValueError(f"not a rational n/d: {text!r}")
    return Fraction(int(num), int(den))


def check_distinguish(opts: dict, text: str, add_accuracy) -> list[str]:
    problems: list[str] = []
    report = strict_json(text)
    missing = DISTINGUISH_KEYS - report.keys()
    if missing:
        return [f"missing keys {sorted(missing)}"]
    p, q, trials, seed = int(opts["p"]), int(opts["q"]), int(opts["trials"]), int(opts["seed"])
    (d,) = (int(x) for x in opts["inner"].split(","))
    echoed = {"p": p, "q": q, "inner": [d], "trials": trials, "seed": seed}
    for key, want in echoed.items():
        if report[key] != want:
            problems.append(f"{key} is {report[key]!r}, expected {want!r}")
    for key, exact in (("mu_single", mu_single(p, q, d)), ("mu_product", mu_product(p, q, d))):
        if not _close(report[key], exact):
            problems.append(f"{key} {report[key]!r} differs from closed form {float(exact)!r}")
    acc = report["accuracy"]
    fpr, fnr = report["false_positive_rate"], report["false_negative_rate"]
    for key, rate in (("false_positive_rate", fpr), ("false_negative_rate", fnr)):
        if not (0.0 <= rate <= 1.0 and _multiple_of(rate, 1.0 / trials)):
            problems.append(f"{key} {rate!r} is not a count over {trials} trials")
    if abs(acc - (1.0 - (fpr + fnr) / 2.0)) > 1e-12:
        problems.append(f"accuracy {acc!r} != 1 - (fpr + fnr)/2 = {1.0 - (fpr + fnr) / 2.0!r}")
    add_accuracy(0, acc, trials)
    return problems


def sweep_grid(d_min: int, d_max: int, steps: int) -> list[int]:
    """Geometric grid of inner dimensions, each rounded to the nearest integer."""
    ratio = d_max / d_min
    return [round(d_min * ratio ** (k / (steps - 1))) for k in range(steps)]


def check_sweep(opts: dict, text: str, add_accuracy) -> list[str]:
    problems: list[str] = []
    rows = list(csv.reader(io.StringIO(text, newline="")))
    if not rows or rows[0] != SWEEP_HEADER:
        return [f"header {rows[0] if rows else None!r} is not {SWEEP_HEADER!r}"]
    p, q, trials = int(opts["p"]), int(opts["q"]), int(opts["trials"])
    grid = sweep_grid(int(opts["d-min"]), int(opts["d-max"]), int(opts["steps"]))
    if len(rows) - 1 != len(grid):
        return [f"{len(rows) - 1} rows, expected {len(grid)}"]
    for k, (row, d) in enumerate(zip(rows[1:], grid)):
        try:
            values = [float(x) for x in row]
        except ValueError:
            problems.append(f"row {k}: not numeric: {row!r}")
            continue
        if len(values) != len(SWEEP_HEADER) or not all(math.isfinite(v) for v in values):
            problems.append(f"row {k}: not {len(SWEEP_HEADER)} finite numbers: {row!r}")
            continue
        got_d, acc, tv_lower, tv_upper, cheb, gap = values
        where = f"row {k} (d={d})"
        if got_d != d:
            problems.append(f"{where}: d is {row[0]}")
        if not _close(gap, mu_product(p, q, d) - mu_single(p, q, d)):
            problems.append(f"{where}: mean_gap {gap!r} differs from closed form")
        if not abs(tv_upper - min(1.0, math.sqrt(p * q / d))) <= REL_TOL:
            problems.append(f"{where}: tv_upper_c1 {tv_upper!r} is not min(1, sqrt(pq/d))")
        if not (0.0 <= tv_lower <= 1.0 and _multiple_of(tv_lower, 1.0 / trials)):
            problems.append(f"{where}: tv_lower_empirical {tv_lower!r} is not a KS statistic at n={trials}")
        if not 0.0 <= cheb <= 1.0:
            problems.append(f"{where}: chebyshev_error {cheb!r} outside [0, 1]")
        if not (0.0 <= acc <= 1.0 and _multiple_of(acc, 0.5 / trials)):
            problems.append(f"{where}: accuracy {acc!r} is not a count over {2 * trials} draws")
        add_accuracy(k, acc, trials)
    return problems


def check_oracle(opts: dict, text: str, add_accuracy) -> list[str]:
    problems: list[str] = []
    report = strict_json(text)
    p, q = int(opts["p"]), int(opts["q"])
    inner = [int(x) for x in opts.get("inner", "").split(",") if x]
    want_keys = ORACLE_KEYS if inner else ORACLE_KEYS | ORACLE_VARIANCE_KEYS
    missing = want_keys - report.keys()
    if missing:
        return [f"missing keys {sorted(missing)}"]
    for key, want in (("p", p), ("q", q), ("inner", inner)):
        if report[key] != want:
            problems.append(f"{key} is {report[key]!r}, expected {want!r}")
    exact = {"mean": mu_product(p, q, inner[0]) if inner else mean_unnormalized(p, q)}
    if not inner:
        exact["variance"] = var_unnormalized(p, q)
    for what, value in exact.items():
        for key in (f"wick_{what}", f"closed_form_{what}"):
            if _parse_frac(report[key]) != value:
                problems.append(f"{key} {report[key]} != {value.numerator}/{value.denominator}")
        if report[f"equal_{what}"] is not True:
            problems.append(f"equal_{what} is {report[f'equal_{what}']!r}")
    return problems


CHECKERS = {"distinguish": check_distinguish, "sweep": check_sweep, "oracle": check_oracle}


def check_op(argv, status, out: str, err: str, pool: AccuracyPool) -> list[str]:
    """Problems with one op's result; the op failed iff the list is not empty.

    The op's accuracies go into ``pool``, which checks them once the run ends.
    """
    problems = []
    if status != 0:
        problems.append(f"exit status {status!r}")
    if err:
        problems.append(f"stderr: {err.strip()[:200]}")
    if problems:
        return problems
    try:
        return CHECKERS[argv[0]](options(argv), out, functools.partial(pool.add, template(argv)))
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unparseable output: {type(exc).__name__}: {exc}"]
