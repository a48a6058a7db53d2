import importlib.util
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "time_ops.py"
_spec = importlib.util.spec_from_file_location("time_ops", TOOL)
time_ops = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(time_ops)


def run(*args):
    return subprocess.run([sys.executable, str(TOOL), *args], capture_output=True, text=True)


def test_timing_a_tree_against_itself_prints_every_field():
    done = run("--rounds", "3", "--ops", "2", str(ROOT), "oracle", "--p", "2", "--q", "2")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == "argv: oracle --p 2 --q 2 --seed k, k = 0..1"
    for side, line in zip(("parent", "change"), lines[1:3]):
        assert re.fullmatch(rf"{side}: [0-9.e+-]+ ms per op \(median of 3 x 2 ops\)", line), line
    assert re.fullmatch(r"change/parent: [0-9]+\.[0-9]{3}", lines[3])
    assert re.fullmatch(r"change won [0-3] of 3 rounds", lines[4])
    assert re.fullmatch(r"parent IQR: [0-9.e+-]+ ms \(quartiles of its 3 per-round median ms\)", lines[5])
    # three rounds are too few to claim a gain, whatever they read
    assert re.fullmatch(
        r"verdict: no gain: won [0-3] of 3 rounds \(at least 10 rounds, 9 in 10 won needed\), "
        r"per-round median gap [0-9.e+-]+ ms (>|<=) parent IQR",
        lines[6],
    )
    assert len(lines) == 7


@pytest.mark.parametrize(
    "parent, change, wins, gained",
    [
        ([10.0] * 5 + [11.0] * 5, [9.0] * 10, 10, True),  # IQR 1.0, gap 1.5
        ([10.0] * 5 + [11.0] * 5, [9.0] * 10, 9, True),
        ([10.0] * 5 + [11.0] * 5, [9.0] * 10, 8, False),  # too few rounds won
        ([10.0] * 5 + [11.0] * 5, [9.5] * 10, 10, False),  # gap 1.0 is not above the IQR
        ([10.0] * 5 + [11.0] * 5, [11.0] * 10, 10, False),  # slower
        ([10.0] * 4 + [10.5] + [11.0] * 4, [1.0] * 9, 9, False),  # fewer than 10 rounds
        ([10.0] * 10 + [11.0] * 10, [9.0] * 20, 18, True),  # nine tenths of 20
        ([10.0] * 10 + [11.0] * 10, [9.0] * 20, 17, False),
    ],
)
def test_verdict_follows_the_rule_for_a_gain(parent, change, wins, gained):
    iqr, gap, got = time_ops.verdict(parent, change, wins)
    assert iqr == 1.0 and gap == 10.5 - change[0]
    assert got is gained


def test_a_failing_op_stops_the_run():
    done = run("--rounds", "2", "--ops", "1", str(ROOT), "oracle", "--p", "0", "--q", "2")
    assert done.returncode == 2
    assert "op 0 exited with status 2: gmprod: p must be a positive integer, got 0" in done.stderr


def test_a_seed_in_the_argv_is_refused():
    done = run(str(ROOT), "oracle", "--p", "2", "--q", "2", "--seed", "3")
    assert done.returncode == 2 and "without --seed" in done.stderr


def test_one_round_is_refused():
    done = run("--rounds", "1", str(ROOT), "oracle", "--p", "2", "--q", "2")
    assert done.returncode == 2 and "--rounds must be at least 2" in done.stderr
