"""The benchmark's workloads: each is a fixed cycle of argv lists for ``gmprod.cli.main``.

A workload runs as a closed loop with one client: op ``k`` starts only
after op ``k - 1`` has returned. Op ``k`` of a run with base seed ``s``
runs cycle entry ``(s + k) % len(cycle)`` with ``--seed s + k``, so the
seed picks both the random streams and where in the cycle a run starts.
Runs stop only at cycle boundaries, so every run does whole cycles.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    cycle: tuple[tuple[str, ...], ...]
    # calibration kernel doing the same kind of work as the bottleneck
    calibration: str = "interpreter"

    def argv(self, seed: int, k: int) -> list[str]:
        """argv of op ``k`` in a run with base seed ``seed``."""
        return [*self.cycle[(seed + k) % len(self.cycle)], "--seed", str(seed + k)]


def _argv(text: str) -> tuple[str, ...]:
    return tuple(text.split())


def template(argv) -> str:
    """The op's argv without its seed: the key of the accuracy reference."""
    out = list(argv)
    if "--seed" in out:
        i = out.index("--seed")
        del out[i : i + 2]
    return " ".join(out)


def options(argv) -> dict[str, str]:
    """``--name value`` pairs of an argv, keyed by name without dashes."""
    return {argv[i][2:]: argv[i + 1] for i in range(1, len(argv) - 1, 2)}


def draws_per_op(argv) -> int:
    """Matrices drawn by one op: product plus single, over every sweep step."""
    opts = options(argv)
    if argv[0] == "distinguish":
        return 2 * int(opts["trials"])
    if argv[0] == "sweep":
        return 2 * int(opts["trials"]) * int(opts["steps"])
    return 0


def oracle_monomials(argv) -> int:
    """Monomials the exact oracle enumerates for one op, computed from its shape.

    p^2 q^2 d^4 for the two-factor mean; for a single factor the mean
    (p^2 q^2) plus the variance ((p^2 q^2)^2) enumerations.
    """
    if argv[0] != "oracle":
        return 0
    opts = options(argv)
    pq2 = (int(opts["p"]) * int(opts["q"])) ** 2
    inner = [int(d) for d in opts.get("inner", "").split(",") if d]
    if inner:
        return pq2 * inner[0] ** 4
    return pq2 + pq2 * pq2


# Why each workload exists is recorded in BENCHMARK.json and README.md.
# The oracle cycle holds three ops of clearly different
# cost (about 20, 45 and 70 ms), so the median lands in the middle one and
# the tail in the slowest one, whatever the seed.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "distinguish-small",
            (_argv("distinguish --p 2 --q 2 --inner 4 --trials 1000"),),
        ),
        Workload(
            "distinguish-large-d",
            (_argv("distinguish --p 8 --q 8 --inner 2048 --trials 200"),),
            calibration="draws",
        ),
        Workload(
            "sweep-phase",
            (_argv("sweep --p 16 --q 16 --d-min 16 --d-max 4096 --steps 9 --trials 20"),),
            calibration="draws",
        ),
        Workload(
            "oracle-exact",
            (
                _argv("oracle --p 3 --q 3"),
                _argv("oracle --p 2 --q 3 --inner 5"),
                _argv("oracle --p 3 --q 4"),
            ),
        ),
    )
}

# The same workloads at the smallest size that still runs every layer;
# the benchmark's tests use them.
MINIMAL = {
    w.name: w
    for w in (
        Workload("distinguish-small", (_argv("distinguish --p 2 --q 2 --inner 4 --trials 50"),)),
        Workload(
            "distinguish-large-d",
            (_argv("distinguish --p 8 --q 8 --inner 2048 --trials 10"),),
            calibration="draws",
        ),
        Workload(
            "sweep-phase",
            (_argv("sweep --p 16 --q 16 --d-min 16 --d-max 4096 --steps 3 --trials 10"),),
            calibration="draws",
        ),
        Workload(
            "oracle-exact", (_argv("oracle --p 2 --q 2"), _argv("oracle --p 2 --q 2 --inner 2"))
        ),
    )
}
