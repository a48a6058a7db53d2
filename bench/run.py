"""Benchmark of the gmprod CLI: one workload per process, closed loop, one client.

Run from the repository root:

    python3 bench/run.py --workload distinguish-small --seed 1 --seconds 15 --trace 0

The program is imported from ``src/`` of the checkout and driven in process
through ``gmprod.cli.main(argv)``; op ``k`` gets ``--seed seed+k`` and its
output is checked before the next op starts (checking is not timed).
``--trace 0`` reports the end-to-end metrics, with times scaled to a fixed
machine speed by a calibration kernel timed around every op (see
calibration.py); ``--trace 1`` runs every op
twice, untraced and traced, and reports per-layer metrics from spans taken
around the calls into each module. The last line of stdout is the result
object; the line before it carries the environment and run details.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# calibration, envinfo and spans import numpy: they are imported inside
# functions, after this process has timed its own import of gmprod.cli.
import checks
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# Ops whose outputs go into the run's sha256 (and into sampling.random_words):
# a fixed count, so two runs of the same seed hash the same inputs.
HASHED_OPS = 8
# Imports of gmprod.cli timed per run: this process's own plus fresh ones.
SETUP_SAMPLES = 15
TAIL_BEYOND = 10
# Largest share of the calibration kernel's wall time that other threads
# of this process may spend on a CPU while it runs. Past it, work the ops
# leave behind (busy threads, say) slows the kernel, and the scaled times
# would read that slowdown as a gain.
KERNEL_OTHER_CPU = 0.10

# Times the import in a fresh interpreter, then the calibration kernel in the
# same process once it is warm (its first run pays one-off costs).
_IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path[:0] = sys.argv[1:3]\n"
    "t = time.perf_counter()\n"
    "import gmprod.cli\n"
    "t = time.perf_counter() - t\n"
    "import calibration\n"
    "calibration.kernel_seconds('interpreter')\n"
    "print(repr(t), repr(calibration.kernel_seconds('interpreter', 3)))\n"
)


def setup_sample() -> tuple[float, float]:
    """Seconds to import gmprod.cli in a fresh interpreter, and the kernel time there."""
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(SRC), str(BENCH)],
        capture_output=True, text=True, check=True, timeout=60,
    )
    import_s, kernel_s = done.stdout.split()
    return float(import_s), float(kernel_s)


def call(cli, argv):
    """Run ``cli.main(argv)``; return (exit status, stdout text, stderr text)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = cli.main(argv)
        except SystemExit as exc:
            status = exc.code
        except Exception:
            traceback.print_exc()
            status = None
    return status, out.getvalue(), err.getvalue()


def tail(times: list[float]) -> tuple[float, float]:
    """Highest percentile with at least 10 samples beyond it: (value, percentile)."""
    ordered = sorted(times)
    n = len(ordered)
    i = max(n - 1 - TAIL_BEYOND, 0)
    return ordered[i], 100.0 * (i + 1) / n


def measure(cli, workload, seed: int, seconds: float, trace: bool, reference: dict) -> dict:
    """Run whole cycles of ``workload`` for at least ``seconds``; return raw figures."""
    import calibration
    import spans

    tracer = spans.Tracer() if trace else None
    run = {"times": [], "kernel_before": [], "kernel_after": [], "kernel_other_cpu": [], "cpu": [],
           "traced": [], "words": [], "failures": [], "attempted": 0, "failed": 0}
    digest = hashlib.sha256()
    pool = checks.AccuracyPool(reference)

    def kernel() -> float:
        """Kernel seconds; also records the CPU time other threads used meanwhile."""
        c, own = time.process_time(), time.thread_time()
        seconds = calibration.kernel_seconds(workload.calibration)
        run["kernel_other_cpu"].append(time.process_time() - c - (time.thread_time() - own))
        return seconds

    def traced_call(argv):
        with tracer:
            t = time.perf_counter()
            result = call(cli, argv)
            elapsed = time.perf_counter() - t
        return result, elapsed

    def one(k: int, measured: bool):
        argv = workload.argv(seed, k)
        if tracer is not None:
            tracer.op = k
        if tracer is not None and k % 2:
            traced, t_traced = traced_call(argv)
        if tracer is None and measured:
            run["kernel_before"].append(kernel())
        c, t = time.process_time(), time.perf_counter()
        status, out, err = call(cli, argv)
        t, c = time.perf_counter() - t, time.process_time() - c
        if tracer is None and measured:
            run["kernel_after"].append(kernel())
        if tracer is not None and not k % 2:
            traced, t_traced = traced_call(argv)
        problems = checks.check_op(argv, status, out, err, pool)
        if tracer is not None:
            words = tracer.take_words()
            if traced != (status, out, err):
                problems.append("traced output differs from untraced output")
            if words == 0 and workloads.draws_per_op(argv):
                problems.append("sampling.random_words: the op draws matrices, but no Philox "
                                "word was counted; the count no longer sees the program's generator")
        if not measured:
            if problems:
                run["failures"].append({"op": "warm-up", "argv": argv, "problems": problems})
            return
        run["attempted"] += 1
        run["times"].append(t)
        run["cpu"].append(c)
        if tracer is not None:
            run["traced"].append(t_traced)
            if k < HASHED_OPS:
                run["words"].append(words)
        if k < HASHED_OPS:
            digest.update(json.dumps([argv, status, out, err]).encode())
        if problems:
            run["failed"] += 1
            run["failures"].append({"op": k, "argv": argv, "problems": problems})

    period = len(workload.cycle)
    for k in range(period):
        one(k, measured=False)
    if tracer is not None:
        tracer.clear()
    else:
        calibration.kernel_seconds(workload.calibration)  # its first run pays one-off costs
    start = time.perf_counter()
    k = 0
    while k < HASHED_OPS or k % period or time.perf_counter() - start < seconds:
        one(k, measured=True)
        k += 1
    run["elapsed"] = time.perf_counter() - start
    pooled = pool.problems()
    if pooled:
        run["failures"].append({"op": "pooled", "problems": pooled})
    run["sha256"] = digest.hexdigest()
    run["hashed_ops"] = min(k, HASHED_OPS)
    run["tracer"] = tracer
    return run


def end_to_end(workload, run: dict, setup: list[tuple[float, float]]) -> tuple[dict, dict]:
    """End-to-end metrics and the details that go with them.

    Times are scaled to the calibration kernel's reference speed; the raw
    wall-clock figures go into the details.
    """
    import calibration

    n = run["attempted"]
    draws = statistics.fmean(workloads.draws_per_op(argv) for argv in workload.cycle)
    times = calibration.scaled(run["times"], run["kernel_before"], run["kernel_after"])
    kernel_s = run["kernel_before"] + run["kernel_after"]
    other_cpu = sum(run["kernel_other_cpu"]) / sum(kernel_s)
    tail_s, tail_pct = tail(times)
    metrics = {
        "setup_s": (statistics.median(t * calibration.REF_S / c for t, c in setup), "s"),
        "ops_per_s": (n / sum(times), "1/s"),
        "op_s_p50": (statistics.median(times), "s"),
        "op_s_tail": (tail_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    details = {
        "trials_per_s": draws * metrics["ops_per_s"][0] if draws else None,
        "op_s_tail_percentile": tail_pct,
        "op_s_samples": n,
        "calibration": {
            "kernel": workload.calibration,
            "ref_s": calibration.REF_S,
            "before_s_p50": statistics.median(run["kernel_before"]),
            "after_s_p50": statistics.median(run["kernel_after"]),
            "other_threads_cpu_frac": other_cpu,
            "trusted": other_cpu <= KERNEL_OTHER_CPU,
        },
        "wall": {
            "setup_s": statistics.median(t for t, _ in setup),
            "ops_per_s": n / run["elapsed"],
            "trials_per_s": draws * n / run["elapsed"] if draws else None,
            "op_s_p50": statistics.median(run["times"]),
            "op_s_tail": tail(run["times"])[0],
        },
        "setup_samples": setup,
    }
    return metrics, details


def per_layer(workload, run: dict) -> tuple[dict, dict]:
    """Per-layer metrics from the traced ops, each per op, and the self-time shares."""
    tracer = run["tracer"]
    n = run["attempted"]
    metrics = {}
    for name, (calls, self_s) in tracer.per_name().items():
        metrics[f"{name}.calls"] = (calls / n, "count/op")
        metrics[f"{name}.self_s"] = (self_s / n, "s/op")
    metrics["sampling.random_words"] = (sum(run["words"]) / len(run["words"]), "count/op")
    monomials = [workloads.oracle_monomials(argv) for argv in workload.cycle]
    metrics["oracle.monomials"] = (statistics.fmean(monomials), "count/op")
    metrics["process.cpu_s"] = (statistics.fmean(run["cpu"]), "s/op")
    metrics["trace.overhead_frac"] = (sum(run["traced"]) / sum(run["times"]) - 1.0, "ratio")
    total_self = sum(v for k, (v, _) in metrics.items() if k.endswith(".self_s"))
    shares = {
        k[: -len(".self_s")]: round(v / total_self, 4)
        for k, (v, _) in sorted(metrics.items(), key=lambda kv: -kv[1][0])
        if k.endswith(".self_s") and v > 0
    }
    return metrics, {"self_s_share": shares, "oracle.monomials": "computed from each op's shape"}


def main(argv=None) -> int:
    load_1m = os.getloadavg()[0]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "gmprod" / "cli.py").is_file():
        print(f"bench: no program at {SRC / 'gmprod'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    t = time.perf_counter()
    import gmprod.cli as cli
    setup_s = time.perf_counter() - t
    if Path(cli.__file__).resolve().parent != SRC / "gmprod":
        print(f"bench: imported gmprod from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    import calibration
    import envinfo

    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    reference = json.loads((BENCH / "reference.json").read_text())
    setup = []
    if not args.trace:
        calibration.kernel_seconds("interpreter")
        setup = [(setup_s, calibration.kernel_seconds("interpreter", 3))]
        setup += [setup_sample() for _ in range(SETUP_SAMPLES - 1)]
    result, details, tracer = run_workload(
        cli, workload, args.seed, args.seconds, bool(args.trace), reference, setup
    )
    if tracer is not None:
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{workload.name}.npz"
        tracer.write(spans_path)
        details["spans_file"] = str(spans_path.relative_to(ROOT))
    if not details.get("calibration", {}).get("trusted", True):
        print(f"bench: other threads used {details['calibration']['other_threads_cpu_frac']:.0%} of a CPU "
              "while the calibration kernel ran; the scaled times are not to be trusted", file=sys.stderr)
    env = envinfo.environment(ROOT, load_1m)
    if not env["threads_within_nproc"]:
        print(f"bench: {env['process_threads']} threads on {env['nproc']} CPUs", file=sys.stderr)
    details["environment"] = env
    print(json.dumps({"detail": details}))
    print(json.dumps(result))
    return 0


def run_workload(cli, workload, seed, seconds, trace, reference, setup):
    """Measure one workload; return the result object, its details and the tracer."""
    run = measure(cli, workload, seed, seconds, trace, reference)
    if trace:
        metrics, details = per_layer(workload, run)
    else:
        metrics, details = end_to_end(workload, run, setup)
    details.update({
        "workload": workload.name,
        "cycle": [" ".join(c) for c in workload.cycle],
        "seed": seed,
        "trace": trace,
        "failed_ops_frac": run["failed"] / run["attempted"],
        "outputs_sha256": run["sha256"],
        "outputs_hashed_ops": run["hashed_ops"],
        "failures": run["failures"][:5],
    })
    result = {
        "correct": not run["failures"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, details, run["tracer"]


if __name__ == "__main__":
    sys.exit(main())
