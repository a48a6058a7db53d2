"""Command-line front end with reproducible seeds and machine-readable output.

Subcommands: ``moments`` (formula evaluation), ``distinguish`` (threshold
test power), ``sweep`` (phase data over a geometric grid of inner
dimensions), ``oracle`` (exact Wick-pairing moments vs. closed forms). Each
subcommand builds one report; ``main`` writes it as canonical JSON (sorted
keys) or as CSV (fixed header, LF endings, reals with 17 significant
digits), and ``oracle`` as JSON only. Every setting comes from argv, none
from the environment, and a re-run of the same argv is byte-identical.
Exit status: 0 success, 2 invalid arguments, 3 exact oracle over budget;
every error is one ``gmprod:`` line on stderr.

``distinguish`` and ``sweep`` check the options they read (``--trials``
and ``--seed`` among them, refused by name), build their chains, and
draw through ``distinguisher.draw_h_samples``: ``distinguish`` as one
chain, ``sweep`` as one chain per row. That function owns the order in
which chains are refused, the streams of each ensemble and the grouping
of chains into engine calls; this module knows none of them.

The argument parsers are built once, when this module is imported, and
every ``main`` call in the process parses with them. An argv that starts
with a subcommand's name goes straight to that subcommand's parser, the
one the top-level parser would hand it to; any other argv (empty, help,
an unknown name, an option first) goes to the top-level parser. So each
argv is parsed once, with the bytes a top-level parse gives. Importing
this module loads only the exact-arithmetic modules (``core``, ``moments``,
``oracle``), so ``oracle`` and a usage error run without numpy;
``moments``, ``distinguish`` and ``sweep`` import the test plan and the
samplers, and with them numpy, when they run. CSV is written by joining
fields that hold no comma, quote or line break, with no ``csv`` module.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from .core import ChainSpec
from .moments import closed_form_moments, mean_h_product_exact, var_h_product_exact
from .oracle import MAX_MONOMIALS, OracleBudgetError, wick_exact_mean_h, wick_exact_var_h_single

MOMENTS_CSV_HEADER = [
    "p", "q", "inner", "mean_product", "mean_single", "var_single", "var_product",
    "s1", "s2", "s3", "s4", "s5", "s6",
]
DISTINGUISH_CSV_HEADER = [
    "p", "q", "inner", "trials", "seed", "threshold", "mu_single", "mu_product",
    "accuracy", "false_positive_rate", "false_negative_rate", "chebyshev_error_bound",
]
SWEEP_CSV_HEADER = ["d", "accuracy", "tv_lower_empirical", "tv_upper_c1", "chebyshev_error", "mean_gap"]


def _parse_inner(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    try:
        dims = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"malformed inner dimension list: {text!r}") from None
    return dims


def _csv_field(value) -> str:
    """A CSV field: reals with 17 significant digits, lists (``inner``) joined by ``;``.

    Non-finite floats raise ValueError, as in ``canonical_json``.
    """
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"non-finite value {value} cannot be written")
        return f"{value:.17g}"
    if isinstance(value, list):
        return ";".join(map(str, value))
    return str(value)


def _csv_text(header: list[str], records: list[dict]) -> str:
    """The header line, then one line per record holding its ``header`` fields in order.

    No header name or field holds a comma, quote or line break, so every
    field is written as it is, unquoted, as ``csv.writer`` would write it.
    """
    lines = [header, *([_csv_field(record[k]) for k in header] for record in records)]
    return "".join(",".join(fields) + "\n" for fields in lines)


def canonical_json(obj) -> str:
    """Stable serialization: sorted keys, two-space indent, trailing newline.

    Non-finite floats raise ValueError: they have no strict-JSON form.
    """
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False, allow_nan=False) + "\n"


def _frac_str(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def _check_draw(subcommand: str, args) -> None:
    """Refuse a ``--trials`` below 10, or ``--trials`` or ``--seed`` past what 64-bit streams hold."""
    if args.trials < 10:
        raise ValueError(f"{subcommand} requires at least 10 trials per ensemble")
    if args.trials >= 2**64:  # their stream indices, like their values, are out of reach
        raise ValueError(f"cannot allocate the values of {args.trials} trials; use fewer trials")
    if not 0 <= args.seed < 2**64:
        raise ValueError(f"--seed must be from 0 to 2**64 - 1, got {args.seed}")


def cmd_moments(args):
    from .distinguisher import TV_UPPER_C, build_test

    spec = ChainSpec(args.p, args.q, _parse_inner(args.inner))
    plan = build_test(spec)
    s = closed_form_moments(spec)
    report = {
        "p": spec.p,
        "q": spec.q,
        "inner": list(spec.inner),
        "mean_product": plan.mu_product,
        "mean_single": plan.mu_single,
        "var_single": plan.var_single,
        "var_product": plan.var_product,
        "s1": s.s1, "s2": s.s2, "s3": s.s3, "s4": s.s4, "s5": s.s5, "s6": s.s6,
        "constants": {"c": TV_UPPER_C},
    }
    return report, MOMENTS_CSV_HEADER, [report]


def cmd_distinguish(args):
    from .distinguisher import TV_UPPER_C, draw_h_samples, error_rates
    from .sampling import SeedSpec

    spec = ChainSpec(args.p, args.q, _parse_inner(args.inner))
    _check_draw("distinguish", args)
    ((_, plan, h_product, h_single),) = draw_h_samples([spec], args.trials, SeedSpec(args.seed))
    report = {
        "p": spec.p,
        "q": spec.q,
        "inner": list(spec.inner),
        "trials": args.trials,
        "seed": args.seed,
        "threshold": plan.threshold,
        "mu_single": plan.mu_single,
        "mu_product": plan.mu_product,
        **error_rates(h_product, h_single, plan),
        "chebyshev_error_bound": plan.chebyshev_error_bound,
        "constants": {"c": TV_UPPER_C},
    }
    return report, DISTINGUISH_CSV_HEADER, [report]


def cmd_sweep(args):
    import numpy as np

    from .distinguisher import (
        TV_UPPER_C,
        draw_h_samples,
        error_rates,
        tv_lower_bound_empirical,
        tv_upper_bound,
    )
    from .sampling import _MAX_TRIAL_NORMALS, SeedSpec

    if args.r < 2:
        raise ValueError("sweep requires at least two factors (--r >= 2)")
    if args.d_min < 1:
        raise ValueError(f"d-min must be at least 1, got {args.d_min}")
    if args.d_min > args.d_max:
        raise ValueError(f"d-min {args.d_min} exceeds d-max {args.d_max}")
    if args.steps < 2:
        raise ValueError("sweep needs at least 2 steps")
    _check_draw("sweep", args)
    if args.steps > args.d_max - args.d_min + 1:
        raise ValueError(
            f"{args.steps} steps from {args.d_min} to {args.d_max} must repeat a value: the range "
            f"holds only {args.d_max - args.d_min + 1} distinct values of d; use fewer steps"
        )
    # through float: numpy cannot take the log of an int above 2**64
    ends = []
    for flag, d in (("d-min", args.d_min), ("d-max", args.d_max)):
        try:
            ends.append(float(d))
        except OverflowError:
            raise ValueError(f"{flag} has {len(str(d))} digits, too large for a float") from None
    grid = [int(round(d)) for d in np.geomspace(*ends, args.steps)]
    if len(set(grid)) < len(grid):
        raise ValueError(
            f"{args.steps} steps from {args.d_min} to {args.d_max} give only "
            f"{len(set(grid))} distinct values of d after rounding; use fewer steps"
        )
    # the per-trial size rule, applied before an inner tuple of r - 1 dimensions is built:
    # the r - 2 factors between inner dimensions draw at least d-min^2 normals each
    inner_normals = (args.r - 2) * args.d_min**2
    if inner_normals > _MAX_TRIAL_NORMALS:
        raise ValueError(
            f"--r {args.r} and --d-min {args.d_min} give a chain whose inner factors alone would "
            f"draw at least {inner_normals} normals per trial; the limit is {_MAX_TRIAL_NORMALS} "
            "values per trial"
        )
    specs = (ChainSpec(args.p, args.q, (d,) * (args.r - 1)) for d in grid)
    drawn = draw_h_samples(specs, args.trials, SeedSpec(args.seed))
    rows = [
        {
            "d": d,
            "accuracy": error_rates(h_product, h_single, plan)["accuracy"],
            "tv_lower_empirical": tv_lower_bound_empirical(h_product, h_single),
            "tv_upper_c1": tv_upper_bound(spec),
            "chebyshev_error": plan.chebyshev_error_bound,
            "mean_gap": plan.mu_product - plan.mu_single,
        }
        for d, (spec, plan, h_product, h_single) in zip(grid, drawn)
    ]
    report = {
        "p": args.p, "q": args.q, "r": args.r, "trials": args.trials, "seed": args.seed,
        "constants": {"c": TV_UPPER_C},
        "rows": rows,
    }
    return report, SWEEP_CSV_HEADER, rows


def cmd_oracle(args):
    spec = ChainSpec(args.p, args.q, _parse_inner(args.inner))
    wick_mean = wick_exact_mean_h(spec)
    closed_mean = mean_h_product_exact(spec)
    report = {
        "p": spec.p,
        "q": spec.q,
        "inner": list(spec.inner),
        "max_monomials": MAX_MONOMIALS,
        "wick_mean": _frac_str(wick_mean),
        "closed_form_mean": _frac_str(closed_mean),
        "equal_mean": wick_mean == closed_mean,
    }
    if spec.r == 1:
        wick_var = wick_exact_var_h_single(spec)
        closed_var = var_h_product_exact(spec)
        report.update({
            "wick_variance": _frac_str(wick_var),
            "closed_form_variance": _frac_str(closed_var),
            "equal_variance": wick_var == closed_var,
        })
    return report, None, []  # JSON only: the parser offers oracle no csv format


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one ``gmprod:`` line on stderr, exit status 2."""

    def error(self, message):
        self.exit(2, f"gmprod: {message}\n")


def build_parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The ``gmprod`` argument parser, and the map from each subcommand's name to its parser.

    The map is the one the top-level parser dispatches on. Every default is
    immutable and ``parse_args`` returns a new Namespace without changing
    the parser, so one set of parsers serves every ``main`` call.
    """
    parser = _Parser(
        prog="gmprod",
        description="Gaussian matrix product ensembles: moments, distinguishing tests, oracles.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p: argparse.ArgumentParser, formats: tuple[str, ...], inner: bool = True):
        """Options every subcommand takes; ``formats`` lists its output formats, default first."""
        p.add_argument("--p", type=int, required=True, help="output row count")
        p.add_argument("--q", type=int, required=True, help="output column count")
        if inner:
            p.add_argument("--inner", default="", help="comma-separated inner dimensions, e.g. 64 or 8,8")
        p.add_argument("--seed", type=int, default=0,
                       help="master seed, read by distinguish and sweep (default 0)")
        p.add_argument("--format", choices=formats, default=formats[0], help="output format")
        p.add_argument("--out", default=None, help="write output to this path instead of stdout")

    p_moments = sub.add_parser("moments", help="analytic means, variances, and the moment vector")
    add_common(p_moments, ("json", "csv"))
    p_moments.set_defaults(func=cmd_moments)

    p_dist = sub.add_parser("distinguish", help="empirical power of the threshold test")
    add_common(p_dist, ("json", "csv"))
    p_dist.add_argument("--trials", type=int, default=400, help="trials per ensemble")
    p_dist.set_defaults(func=cmd_distinguish)

    p_sweep = sub.add_parser("sweep", help="phase data over a geometric grid of inner dimensions")
    add_common(p_sweep, ("csv", "json"), inner=False)
    p_sweep.add_argument("--r", type=int, default=2, help="number of factors in the chain")
    p_sweep.add_argument("--d-min", type=int, required=True, help="smallest inner dimension")
    p_sweep.add_argument("--d-max", type=int, required=True, help="largest inner dimension")
    p_sweep.add_argument("--steps", type=int, required=True, help="number of grid points")
    p_sweep.add_argument("--trials", type=int, default=400, help="trials per ensemble per grid point")
    p_sweep.set_defaults(func=cmd_sweep)

    p_oracle = sub.add_parser("oracle", help="exact Wick-pairing moments vs. closed forms")
    add_common(p_oracle, ("json",))
    p_oracle.set_defaults(func=cmd_oracle)

    return parser, sub.choices


_PARSER, _SUBPARSERS = build_parsers()


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # an integer option or an exact integer such as s4 may have more digits than
    # Python (3.10.7 and later) converts by default; lift that cap for the call
    digit_cap = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if digit_cap:
        sys.set_int_max_str_digits(0)
    try:
        # the top-level parser would hand all but the name to the subcommand's
        # parser; asking that parser directly parses the argv once, not twice
        subparser = _SUBPARSERS.get(argv[0]) if argv else None
        args = _PARSER.parse_args(argv) if subparser is None else subparser.parse_args(argv[1:])
        report, csv_header, records = args.func(args)
        text = canonical_json(report) if args.format == "json" else _csv_text(csv_header, records)
    except OracleBudgetError as exc:
        print(f"gmprod: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OverflowError, MemoryError) as exc:
        # OverflowError: a dimension too large to convert to a float;
        # MemoryError: a --steps too large to allocate
        print(f"gmprod: {exc}", file=sys.stderr)
        return 2
    finally:
        if digit_cap:
            sys.set_int_max_str_digits(digit_cap)
    if args.out is not None:
        try:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"gmprod: cannot write {args.out}: {exc.strerror or exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
