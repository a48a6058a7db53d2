"""Tests of the benchmark itself: metrics reported, failures detected, counts repeatable.

Run from the repository root with ``python -m pytest bench/tests``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

import gmprod.cli as cli  # noqa: E402
import gmprod.distinguisher  # noqa: E402
import gmprod.sampling  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
REFERENCE = json.loads((BENCH / "reference.json").read_text())


def _run_minimal(name: str, trace: bool, seed: int = 3):
    return run.run_workload(
        cli, workloads.MINIMAL[name], seed, 0.05, trace, REFERENCE, setup=[(0.1, 0.005)]
    )


def _units(result) -> dict[str, str]:
    return {name: m["unit"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("name", sorted(workloads.MINIMAL))
def test_minimal_workload_reports_every_metric(name):
    assert name in {w["name"] for w in SPEC["workloads"]}
    result, details, _ = _run_minimal(name, trace=False)
    assert result["correct"] and result["failed"] == 0, details["failures"]
    assert details["failed_ops_frac"] == 0
    assert _units(result) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())

    result, details, _ = _run_minimal(name, trace=True)
    assert result["correct"] and result["failed"] == 0, details["failures"]
    assert _units(result) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert result["metrics"]["cli.main.calls"]["value"] == 1


def test_spans_reach_names_bound_at_import_and_are_removed():
    original = gmprod.sampling.sample_product
    result, _, tracer = _run_minimal("distinguish-small", trace=True)
    # distinguisher calls sample_product through its own import-time binding
    assert result["metrics"]["sampling.sample_product.calls"]["value"] == 50
    assert result["metrics"]["sampling.stream_rng.calls"]["value"] == 100
    assert result["metrics"]["core.as_matrix.calls"]["value"] == 100
    assert gmprod.distinguisher.sample_product is original
    assert gmprod.sampling.sample_product is original
    a = tracer.arrays()
    assert (a["end"] >= a["start"]).all() and (a["parent"] < len(a["start"])).all()


def _output(workload: str, seed: int = 5):
    argv = [*workloads.MINIMAL[workload].cycle[0], "--seed", str(seed)]
    status, out, err = run.call(cli, argv)
    assert checks.check_op(argv, status, out, err, checks.AccuracyPool(REFERENCE)) == []
    return argv, out


def test_checker_counts_a_perturbed_mu_product_as_failed():
    argv, out = _output("distinguish-small")
    report = json.loads(out)
    report["mu_product"] *= 1 + 100 * checks.REL_TOL
    problems = checks.check_op(argv, 0, json.dumps(report), "", checks.AccuracyPool(REFERENCE))
    assert any("mu_product" in p for p in problems)


def test_checker_counts_non_strict_json_as_failed():
    argv, out = _output("distinguish-small")
    report = json.loads(out)
    report["chebyshev_error_bound"] = float("inf")
    text = json.dumps(report)
    assert "Infinity" in text
    assert checks.check_op(argv, 0, text, "", checks.AccuracyPool(REFERENCE))


def test_checker_counts_exit_status_and_stderr_as_failed():
    argv, out = _output("distinguish-small")
    assert checks.check_op(argv, 2, out, "", checks.AccuracyPool(REFERENCE))
    assert checks.check_op(argv, 0, out, "warning\n", checks.AccuracyPool(REFERENCE))


@pytest.mark.parametrize("shift", [0.0, -0.1])
def test_pooled_accuracy_catches_a_shifted_sweep_row(shift):
    # 100 ops of a sweep whose first row (d = 16, accuracy near 0.79) is
    # moved by `shift`: one op alone could not tell, the pooled count can.
    argv, out = _output("sweep-phase")
    trials = int(workloads.options(argv)["trials"])
    ref = REFERENCE[workloads.template(argv)]["accuracy"]
    header, *rows = out.splitlines()
    pool = checks.AccuracyPool(REFERENCE)
    for _ in range(100):
        fields = [row.split(",") for row in rows]
        for k, row in enumerate(fields):
            row[1] = repr(round((ref[k] + (shift if k == 0 else 0.0)) * 2 * trials) / (2 * trials))
        text = "\n".join([header, *(",".join(row) for row in fields)]) + "\n"
        assert checks.check_op(argv, 0, text, "", pool) == []
    problems = pool.problems()
    if shift:
        assert len(problems) == 1 and "row 0" in problems[0]
    else:
        assert problems == []


def test_random_words_repeat_exactly():
    first, _, _ = _run_minimal("distinguish-small", trace=True, seed=11)
    second, _, _ = _run_minimal("distinguish-small", trace=True, seed=11)
    words = first["metrics"]["sampling.random_words"]["value"]
    # The ziggurat takes one word per normal, and a few more on rejection:
    # 50 trials of (2x4 + 4x2) normals plus 50 of 2x2.
    normals = 50 * 16 + 50 * 4
    assert normals <= words <= 1.05 * normals
    assert words == second["metrics"]["sampling.random_words"]["value"]


def _words(counter: int, normals: int) -> int:
    """Words a fresh Philox at ``counter`` spends on ``normals`` normals."""
    bit_generator = np.random.Philox(key=np.zeros(2, np.uint64), counter=counter)
    start = spans.philox_position(bit_generator)
    np.random.Generator(bit_generator).standard_normal(normals)
    return spans.philox_position(bit_generator) - start


def test_random_words_survive_a_generator_reset_per_trial():
    # One Philox for all trials, its counter reset to (0, 0, trial, 0) for
    # each: every trial's words count, not only the last one's.
    sizes = [300, 41, 1000, 7]
    tracer = spans.Tracer()
    with tracer:
        bit_generator = np.random.Philox(key=np.zeros(2, np.uint64))
        rng = np.random.Generator(bit_generator)
        for trial, n in enumerate(sizes):
            state = bit_generator.state
            state["state"]["counter"] = np.array([0, 0, trial, 0], dtype=np.uint64)
            state["buffer_pos"] = 4
            bit_generator.state = state
            rng.standard_normal(n)
    assert np.random.Philox is spans.PHILOX
    assert tracer.take_words() == sum(_words(trial << 128, n) for trial, n in enumerate(sizes))
    assert tracer.take_words() == 0


@pytest.mark.parametrize("trace", ["0", "1"])
def test_command_prints_result_last(trace):
    command = [sys.executable, str(BENCH / "run.py"), "--workload", "oracle-exact",
               "--seed", "2", "--seconds", "0.2", "--trace", trace]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    command = [sys.executable, "bench/run.py", "--workload", "oracle-exact",
               "--seed", "2", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(command, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""
