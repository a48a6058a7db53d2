import base64
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("compare_outputs", ROOT / "tools" / "compare_outputs.py")
compare_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_outputs)


def test_argvs_cover_pinned_and_benchmark_argvs_at_every_seed_and_format():
    argvs = [" ".join(argv) for argv in compare_outputs.argvs()]
    assert len(argvs) == len(set(argvs))
    for seed in compare_outputs.SEEDS:
        assert f"distinguish --p 2 --q 2 --inner 4 --trials 1000 --seed {seed} --format csv" in argvs
        assert f"sweep --p 3 --q 5 --r 3 --d-min 2 --d-max 300 --steps 4 --trials 10 --seed {seed} --format json" in argvs
        assert f"oracle --p 2 --q 2 --inner 2 --seed {seed} --format json" in argvs  # from MINIMAL
        assert f"oracle --p 3 --q 4 --seed {seed} --format csv" not in argvs  # oracle writes JSON only


def test_a_tree_matches_itself_and_a_difference_is_named():
    argv_list = [["oracle", "--p", "2", "--q", "2", "--seed", "0", "--format", "json"],
                 ["distinguish", "--p", "2", "--q", "2", "--inner", "4", "--trials", "20", "--seed", "7",
                  "--format", "csv"],
                 ["oracle", "--p", "0", "--q", "2", "--seed", "0", "--format", "json"]]
    ours = compare_outputs.run_tree(ROOT, argv_list)
    assert compare_outputs.run_tree(ROOT, argv_list) == ours
    (status, stdout, stderr), to_file, written = ours[1]
    assert status == 0 and stdout.startswith("p,q,inner,trials,") and stderr == ""
    assert to_file == [0, "", ""] and base64.b64decode(written).decode() == stdout
    assert ours[2][0][0] == 2 and ours[2][2] is None  # a refusal writes no file
    theirs = [ours[0], [ours[1][0], ours[1][1], None], ours[2]]
    assert compare_outputs.differing(argv_list, ours, theirs) == [argv_list[1]]
