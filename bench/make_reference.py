"""Regenerate ``reference.json``: the mean accuracy of each Monte Carlo op over many seeds.

The output checks compare each op's accuracy with this reference within
binomial error, so any sampler with the right distribution passes. Run from
the repository root after a change that is meant to alter the law of the
statistic (never to make a failing check pass):

    python3 bench/make_reference.py
"""

from __future__ import annotations

import csv
import io
import json
import statistics
import sys

from run import BENCH, SRC, call
from workloads import MINIMAL, WORKLOADS, options, template

# Seeds far from the small ones the benchmark is usually run with.
FIRST_SEED = 1_000_000
SEEDS = {"distinguish": 200, "sweep": 400}


def accuracies(cli, argv) -> list[float]:
    status, out, err = call(cli, argv)
    if status != 0 or err:
        raise SystemExit(f"{' '.join(argv)} failed: status {status}, stderr {err!r}")
    if argv[0] == "distinguish":
        return [json.loads(out)["accuracy"]]
    return [float(row["accuracy"]) for row in csv.DictReader(io.StringIO(out))]


def main() -> int:
    sys.path.insert(0, str(SRC))
    import gmprod.cli as cli

    reference = {}
    for workload in (*WORKLOADS.values(), *MINIMAL.values()):
        for argv in workload.cycle:
            if argv[0] not in SEEDS:
                continue
            n = SEEDS[argv[0]]
            rows = [accuracies(cli, [*argv, "--seed", str(FIRST_SEED + i)]) for i in range(n)]
            reference[template(argv)] = {
                "seeds": f"{FIRST_SEED}..{FIRST_SEED + n - 1}",
                "accuracy": [statistics.fmean(col) for col in zip(*rows)],
                # classified draws behind each accuracy: n ops of 2 * trials each
                "draws": 2 * n * int(options(argv)["trials"]),
            }
            print(template(argv), reference[template(argv)]["accuracy"], file=sys.stderr)
    (BENCH / "reference.json").write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
