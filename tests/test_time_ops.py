import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "time_ops.py"


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
    assert len(lines) == 5


def test_a_failing_op_stops_the_run():
    done = run("--rounds", "1", "--ops", "1", str(ROOT), "oracle", "--p", "0", "--q", "2")
    assert done.returncode == 2
    assert "op 0 exited with status 2: gmprod: p must be a positive integer, got 0" in done.stderr


def test_a_seed_in_the_argv_is_refused():
    done = run(str(ROOT), "oracle", "--p", "2", "--q", "2", "--seed", "3")
    assert done.returncode == 2 and "without --seed" in done.stderr
