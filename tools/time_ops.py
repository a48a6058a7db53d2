#!/usr/bin/env python3
"""Time CLI ops of this checkout against another tree, in process, alternating.

    python3 tools/time_ops.py [--rounds R] [--ops N] PARENT_TREE ARGV...

``PARENT_TREE`` is a source tree with a ``src/gmprod``, such as a ``git
archive`` export of the parent commit; the change is the checkout holding
this script. Each tree runs in its own interpreter, which imports
``gmprod`` from the tree's ``src/`` and calls ``gmprod.cli.main`` in
process, with stdout and stderr captured. ``ARGV`` is one CLI argv
without ``--seed``; op k of a round runs ``ARGV --seed k``, for k in
0..N-1. Each side first runs one untimed op, then the trees alternate
over R rounds of N ops each, the change first in even rounds and the
parent first in odd ones. An op that exits with a status other than 0
stops the run with status 2.

The output gives each side's median milliseconds per op over all its
timed ops, the change/parent ratio of those medians, and in how many
rounds the change's N ops took less time in total than the parent's.
It then gives the interquartile range of the parent's per-round median
milliseconds (``statistics.quantiles(n=4, method="inclusive")``), and a
last line with the verdict of the rule for claiming a gain: over at
least 10 rounds, the change won at least nine tenths of them, and the
median of its per-round medians is below the parent's by more than that
interquartile range.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _serve(tree: Path, argv: list[str]) -> None:
    """In a child: for each line ``N`` on stdin, time ops 0..N-1 and print their seconds."""
    sys.path.insert(0, str(tree / "src"))
    from gmprod import cli

    if not Path(cli.__file__).resolve().is_relative_to(tree):  # e.g. an installed gmprod took precedence
        raise SystemExit(f"gmprod.cli was imported from {cli.__file__}, not from {tree}")
    main = cli.main
    for line in sys.stdin:
        times = []
        for k in range(int(line)):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                start = time.perf_counter()
                try:
                    code = main([*argv, "--seed", str(k)])
                except SystemExit as exc:  # argparse errors
                    code = exc.code
                times.append(time.perf_counter() - start)
            if code != 0:
                raise SystemExit(f"op {k} exited with status {code}: {err.getvalue().strip()}")
        print(json.dumps(times), flush=True)


def verdict(parent: list[float], change: list[float], wins: int) -> tuple[float, float, bool]:
    """The parent's interquartile range, the median gap and whether the change gained.

    ``parent`` and ``change`` hold each side's per-round median times, at
    least two each, and ``wins`` counts the rounds the change won. The gap
    is the parent's median of them minus the change's, so positive when
    the change is faster.
    """
    q1, _, q3 = statistics.quantiles(parent, n=4, method="inclusive")
    iqr, gap, rounds = q3 - q1, statistics.median(parent) - statistics.median(change), len(parent)
    return iqr, gap, rounds >= 10 and 10 * wins >= 9 * rounds and gap > iqr


class _Side:
    """One tree's serving interpreter."""

    def __init__(self, tree: Path, argv: list[str]):
        self.process = subprocess.Popen(
            [sys.executable, __file__, "--serve", str(tree), *argv],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self.times: list[float] = []
        self.round_medians: list[float] = []

    def run(self, ops: int) -> list[float]:
        """The seconds of ops 0..ops-1."""
        self.process.stdin.write(f"{ops}\n")
        self.process.stdin.flush()
        line = self.process.stdout.readline()
        if not line:
            raise SystemExit(2)  # the child printed why on stderr
        return json.loads(line)

    def close(self) -> None:
        self.process.stdin.close()
        self.process.wait()


def main(args=None) -> int:
    parser = argparse.ArgumentParser(description="Time CLI ops of this checkout against another tree.")
    parser.add_argument("--rounds", type=int, default=10, help="alternations of the two trees (default 10)")
    parser.add_argument("--ops", type=int, default=100, help="ops per side per round (default 100)")
    parser.add_argument("tree", type=Path, help="the tree to compare with, such as the parent commit's")
    parser.add_argument("argv", nargs=argparse.REMAINDER, help="the CLI argv of one op, without --seed")
    # in a child: serve timed ops of ``argv`` from ``tree``
    parser.add_argument("--serve", action="store_true", help=argparse.SUPPRESS)
    opts = parser.parse_args(args)
    if opts.serve:
        _serve(opts.tree.resolve(), opts.argv)
        return 0
    if not opts.argv or "--seed" in opts.argv:
        parser.error("give the argv of one op, without --seed")
    if opts.rounds < 2 or opts.ops < 1:
        parser.error("--rounds must be at least 2, for quartiles, and --ops at least 1")
    change, parent = (_Side(tree, opts.argv) for tree in (ROOT, opts.tree.resolve()))
    try:
        for side in (change, parent):
            side.run(1)  # warm-up: imports and first-call costs
        wins = 0
        for r in range(opts.rounds):
            order = (change, parent) if r % 2 == 0 else (parent, change)
            totals = {}
            for side in order:
                times = side.run(opts.ops)
                side.times += times
                side.round_medians.append(statistics.median(times) * 1e3)
                totals[side] = sum(times)
            wins += totals[change] < totals[parent]
    finally:
        for side in (change, parent):
            side.close()
    medians = [statistics.median(side.times) * 1e3 for side in (parent, change)]
    print(f"argv: {' '.join(opts.argv)} --seed k, k = 0..{opts.ops - 1}")
    print(f"parent: {medians[0]:.4g} ms per op (median of {opts.rounds} x {opts.ops} ops)")
    print(f"change: {medians[1]:.4g} ms per op (median of {opts.rounds} x {opts.ops} ops)")
    print(f"change/parent: {medians[1] / medians[0]:.3f}")
    print(f"change won {wins} of {opts.rounds} rounds")
    iqr, gap, gained = verdict(parent.round_medians, change.round_medians, wins)
    print(f"parent IQR: {iqr:.4g} ms (quartiles of its {opts.rounds} per-round median ms)")
    print(f"verdict: {'gain' if gained else 'no gain'}: won {wins} of {opts.rounds} rounds "
          f"(at least 10 rounds, 9 in 10 won needed), per-round median gap {gap:.4g} ms "
          f"{'>' if gap > iqr else '<='} parent IQR")
    return 0


if __name__ == "__main__":
    sys.exit(main())
