import contextlib
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
from itertools import product
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gmprod
from gmprod import cli
from gmprod.cli import _csv_text, canonical_json, main
from gmprod.oracle import MAX_MONOMIALS

MOMENTS_HEADER = [
    "p", "q", "inner", "mean_product", "mean_single", "var_single", "var_product",
    "s1", "s2", "s3", "s4", "s5", "s6",
]
DISTINGUISH_HEADER = [
    "p", "q", "inner", "trials", "seed", "threshold", "mu_single", "mu_product",
    "accuracy", "false_positive_rate", "false_negative_rate", "chebyshev_error_bound",
]
SWEEP_HEADER = ["d", "accuracy", "tv_lower_empirical", "tv_upper_c1", "chebyshev_error", "mean_gap"]

# The full stdout of commands, pinned literally: a change in how a value is
# derived must not move a printed digit. The sampled entries are one op of
# each sampling benchmark workload, the 8 x 8 one on the threaded path,
# and a distinguish run without --seed, which must draw with seed 0.
PINNED_OUTPUT = {
    "moments --p 3 --q 2 --inner 6,6": """\
{
  "constants": {
    "c": 1.0
  },
  "inner": [
    6,
    6
  ],
  "mean_product": 1.8981481481481481,
  "mean_single": 1.0,
  "p": 3,
  "q": 2,
  "s1": 6912,
  "s2": 6912,
  "s3": 2304,
  "s4": 2304,
  "s5": 1368,
  "s6": 468,
  "var_product": 48.51561309251638,
  "var_single": 1.5925925925925926
}
""",
    "moments --p 3 --q 2 --inner 6,6 --format csv": """\
p,q,inner,mean_product,mean_single,var_single,var_product,s1,s2,s3,s4,s5,s6
3,2,6;6,1.8981481481481481,1,1.5925925925925926,48.515613092516382,6912,6912,2304,2304,1368,468
""",
    "moments --p 8 --q 8 --inner 2048": """\
{
  "constants": {
    "c": 1.0
  },
  "inner": [
    2048
  ],
  "mean_product": 0.0002600178122520447,
  "mean_single": 0.0002593994140625,
  "p": 8,
  "q": 8,
  "s1": 12595200,
  "s2": 12595200,
  "s3": 4198400,
  "s4": 4198400,
  "s5": 4194304,
  "s6": 2048,
  "var_product": 9.794526273731552e-09,
  "var_single": 9.618815965950489e-09
}
""",
    "oracle --p 2 --q 3": """\
{
  "closed_form_mean": "36/1",
  "closed_form_variance": "2064/1",
  "equal_mean": true,
  "equal_variance": true,
  "inner": [],
  "max_monomials": 10000000,
  "p": 2,
  "q": 3,
  "wick_mean": "36/1",
  "wick_variance": "2064/1"
}
""",
    "oracle --p 2 --q 3 --inner 5": """\
{
  "closed_form_mean": "264/125",
  "equal_mean": true,
  "inner": [
    5
  ],
  "max_monomials": 10000000,
  "p": 2,
  "q": 3,
  "wick_mean": "264/125"
}
""",
    "oracle --p 2 --q 3 --inner 2,2": """\
{
  "closed_form_mean": "159/4",
  "equal_mean": true,
  "inner": [
    2,
    2
  ],
  "max_monomials": 10000000,
  "p": 2,
  "q": 3,
  "wick_mean": "159/4"
}
""",
    "oracle --p 3 --q 3": """\
{
  "closed_form_mean": "63/1",
  "closed_form_variance": "4176/1",
  "equal_mean": true,
  "equal_variance": true,
  "inner": [],
  "max_monomials": 10000000,
  "p": 3,
  "q": 3,
  "wick_mean": "63/1",
  "wick_variance": "4176/1"
}
""",
    "oracle --p 3 --q 4": """\
{
  "closed_form_mean": "96/1",
  "closed_form_variance": "7200/1",
  "equal_mean": true,
  "equal_variance": true,
  "inner": [],
  "max_monomials": 10000000,
  "p": 3,
  "q": 4,
  "wick_mean": "96/1",
  "wick_variance": "7200/1"
}
""",
    "distinguish --p 2 --q 2 --inner 4 --trials 1000 --seed 7": """\
{
  "accuracy": 0.495,
  "chebyshev_error_bound": 1.0,
  "constants": {
    "c": 1.0
  },
  "false_negative_rate": 0.777,
  "false_positive_rate": 0.233,
  "inner": [
    4
  ],
  "mu_product": 1.9375,
  "mu_single": 1.25,
  "p": 2,
  "q": 2,
  "seed": 7,
  "threshold": 1.59375,
  "trials": 1000
}
""",
    "distinguish --p 8 --q 8 --inner 2048 --trials 200 --seed 7": """\
{
  "accuracy": 0.5,
  "chebyshev_error_bound": 1.0,
  "constants": {
    "c": 1.0
  },
  "false_negative_rate": 0.52,
  "false_positive_rate": 0.48,
  "inner": [
    2048
  ],
  "mu_product": 0.0002600178122520447,
  "mu_single": 0.0002593994140625,
  "p": 8,
  "q": 8,
  "seed": 7,
  "threshold": 0.00025970861315727234,
  "trials": 200
}
""",
    "sweep --p 16 --q 16 --d-min 16 --d-max 4096 --steps 9 --trials 20 --seed 7": """\
d,accuracy,tv_lower_empirical,tv_upper_c1,chebyshev_error,mean_gap
16,0.625,0.40000000000000002,1,1,18.1875
32,0.55000000000000004,0.20000000000000001,1,1,2.2734375
64,0.55000000000000004,0.5,1,1,0.2841796875
128,0.57499999999999996,0.20000000000000007,1,1,0.0355224609375
256,0.57499999999999996,0.40000000000000002,1,1,0.0044403076171875
512,0.30000000000000004,0.5,0.70710678118654757,1,0.0005550384521484375
1024,0.40000000000000002,0.25,0.5,1,6.9379806518554688e-05
2048,0.47499999999999998,0.15000000000000002,0.35355339059327379,1,8.6724758148193359e-06
4096,0.59999999999999998,0.30000000000000004,0.25,1,1.084059476852417e-06
""",
    "distinguish --p 2 --q 2 --inner 4 --trials 20": """\
{
  "accuracy": 0.5,
  "chebyshev_error_bound": 1.0,
  "constants": {
    "c": 1.0
  },
  "false_negative_rate": 0.8,
  "false_positive_rate": 0.2,
  "inner": [
    4
  ],
  "mu_product": 1.9375,
  "mu_single": 1.25,
  "p": 2,
  "q": 2,
  "seed": 0,
  "threshold": 1.59375,
  "trials": 20
}
""",
    "distinguish --p 64 --q 64 --inner 128 --trials 10 --seed 1 --format csv": """\
p,q,inner,trials,seed,threshold,mu_single,mu_product,accuracy,false_positive_rate,false_negative_rate,chebyshev_error_bound
64,64,128,10,1,36.3779296875,32.25,40.505859375,1,0,0,0.51773864041967643
""",
    "sweep --p 3 --q 5 --r 3 --d-min 2 --d-max 300 --steps 4 --trials 10 --seed 2 --format json": """\
{
  "constants": {
    "c": 1.0
  },
  "p": 3,
  "q": 5,
  "r": 3,
  "rows": [
    {
      "accuracy": 0.7,
      "chebyshev_error": 1.0,
      "d": 2,
      "mean_gap": 138.75,
      "tv_lower_empirical": 0.5,
      "tv_upper_c1": 1.0
    },
    {
      "accuracy": 0.55,
      "chebyshev_error": 1.0,
      "d": 11,
      "mean_gap": 0.6311044327573252,
      "tv_lower_empirical": 0.20000000000000007,
      "tv_upper_c1": 1.0
    },
    {
      "accuracy": 0.44999999999999996,
      "chebyshev_error": 1.0,
      "d": 56,
      "mean_gap": 0.00450861945543523,
      "tv_lower_empirical": 0.4,
      "tv_upper_c1": 1.0
    },
    {
      "accuracy": 0.4,
      "chebyshev_error": 1.0,
      "d": 300,
      "mean_gap": 2.8970370370370348e-05,
      "tv_lower_empirical": 0.20000000000000007,
      "tv_upper_c1": 0.4472135954999579
    }
  ],
  "seed": 2,
  "trials": 10
}
""",
}


# argvs the parser refuses (exit 2), with the case each one covers
USAGE_ERRORS = {
    "missing-option": ["distinguish", "--q", "2", "--inner", "4"],
    "not-an-int": ["moments", "--p", "x", "--q", "2", "--inner", "4"],
    "unknown-subcommand": ["bogus"],
}


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def assert_refused(code, out, err, status=2):
    """The failure contract: the exit status, empty stdout, one ``gmprod:`` line on stderr."""
    assert code == status and out == ""
    assert err.startswith("gmprod:") and err.count("\n") == 1


@contextlib.contextmanager
def no_int_digit_cap():
    """Lift this interpreter's cap on int-to-str digits, if it has one, for the block."""
    cap = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if cap:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if cap:
            sys.set_int_max_str_digits(cap)


class TestMoments:
    def test_json_values(self, capsys):
        code, out, _ = run_cli(["moments", "--p", "2", "--q", "2", "--inner", "4"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["mean_product"] == 1.9375
        assert report["mean_single"] == 1.25
        assert report["s3"] == 24 and report["s6"] == 4

    def test_scalar_chain(self, capsys):
        code, out, _ = run_cli(["moments", "--p", "1", "--q", "1", "--inner", "1"], capsys)
        assert code == 0
        assert json.loads(out)["mean_product"] == 9.0

    def test_json_round_trip_is_canonical(self, capsys):
        code, out, _ = run_cli(["moments", "--p", "3", "--q", "2", "--inner", "5"], capsys)
        assert code == 0
        assert canonical_json(json.loads(out)) == out

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            ["moments", "--p", "2", "--q", "2", "--inner", "4", "--format", "csv"], capsys
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("p,q,inner,mean_product")
        row = next(csv.DictReader(lines))
        assert row["mean_product"] == "1.9375"
        assert row["inner"] == "4"

    def test_exact_integers_with_more_digits_than_the_str_cap(self, capsys):
        # 800 factors of 1000: s4 has more digits than Python's default cap of
        # 4300 for int-to-str conversion, which must neither refuse the argv
        # nor stay lifted after main returns
        argv = ["moments", "--p", "2", "--q", "2", "--inner", ",".join(["1000"] * 799)]
        cap = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        code, out, err = run_cli(argv, capsys)
        assert (code, err) == (0, "")
        assert getattr(sys, "get_int_max_str_digits", lambda: 0)() == cap
        with no_int_digit_cap():
            s4 = gmprod.closed_form_moments(gmprod.ChainSpec(2, 2, (1000,) * 799)).s4
            assert len(str(s4)) > 4300 and json.loads(out)["s4"] == s4
        assert in_fresh_interpreter(argv, PYTHONINTMAXSTRDIGITS="640") == (0, out, "")

    def test_malformed_inner(self, capsys):
        code, _, err = run_cli(["moments", "--p", "2", "--q", "2", "--inner", "4,x"], capsys)
        assert code == 2
        assert "inner" in err

    def test_empty_inner_rejected(self, capsys):
        code, _, err = run_cli(["moments", "--p", "2", "--q", "2"], capsys)
        assert code == 2

    @pytest.mark.parametrize("inner", ["0", "4,-3"])
    def test_nonpositive_inner_rejected(self, inner, capsys):
        code, out, err = run_cli(["moments", "--p", "2", "--q", "2", "--inner", inner], capsys)
        assert_refused(code, out, err)
        assert "inner" in err

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_nonfinite_output_rejected(self, fmt, capsys):
        # the means fit a float, but var_product (about 10**351) does not
        big = str(10**50)
        code, out, err = run_cli(
            ["moments", "--p", big, "--q", big, "--inner", "1", "--format", fmt], capsys
        )
        assert_refused(code, out, err)

    def test_canonical_json_refuses_nonfinite(self):
        with pytest.raises(ValueError):
            canonical_json({"x": float("inf")})

    def test_csv_text_refuses_nonfinite(self):
        with pytest.raises(ValueError, match="non-finite"):
            _csv_text(["x", "inner"], [{"x": float("inf"), "inner": [4]}])

    def test_unwritable_out_path(self, tmp_path, capsys):
        # an empty path is a path that cannot be opened, not a request for stdout
        target = tmp_path / "missing" / "x.json"
        for out_path in (str(target), ""):
            code, out, err = run_cli(
                ["moments", "--p", "2", "--q", "2", "--inner", "4", "--out", out_path], capsys
            )
            assert code == 2 and out == ""
            assert err.startswith("gmprod: cannot write") and err.count("\n") == 1
        assert not target.exists()


class TestDistinguish:
    def test_report_fields(self, capsys):
        code, out, _ = run_cli(
            ["distinguish", "--p", "8", "--q", "8", "--inner", "16",
             "--trials", "50", "--seed", "3"], capsys
        )
        assert code == 0
        report = json.loads(out)
        assert report["seed"] == 3 and report["trials"] == 50
        assert 0.0 <= report["accuracy"] <= 1.0
        assert report["threshold"] == (report["mu_single"] + report["mu_product"]) / 2
        expected_acc = 1 - (report["false_positive_rate"] + report["false_negative_rate"]) / 2
        assert report["accuracy"] == pytest.approx(expected_acc, abs=1e-15)

    def test_too_few_trials(self, capsys):
        code, _, err = run_cli(
            ["distinguish", "--p", "2", "--q", "2", "--inner", "4", "--trials", "5"], capsys
        )
        assert code == 2

    def test_byte_identical_rerun(self, tmp_path, capsys):
        args = ["distinguish", "--p", "4", "--q", "4", "--inner", "8",
                "--trials", "40", "--seed", "11"]
        path_a, path_b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(args + ["--out", str(path_a)]) == 0
        assert main(args + ["--out", str(path_b)]) == 0
        assert path_a.read_bytes() == path_b.read_bytes()


class TestSweep:
    def test_two_steps_exact_endpoints(self, capsys):
        code, out, _ = run_cli(
            ["sweep", "--p", "2", "--q", "2", "--d-min", "4", "--d-max", "64",
             "--steps", "2", "--trials", "20", "--seed", "1"], capsys
        )
        assert code == 0
        rows = list(csv.DictReader(out.splitlines()))
        assert [r["d"] for r in rows] == ["4", "64"]

    def test_header_contract(self, capsys):
        code, out, _ = run_cli(
            ["sweep", "--p", "2", "--q", "2", "--d-min", "4", "--d-max", "16",
             "--steps", "3", "--trials", "20", "--seed", "1"], capsys
        )
        assert code == 0
        header = out.splitlines()[0]
        assert header == "d,accuracy,tv_lower_empirical,tv_upper_c1,chebyshev_error,mean_gap"

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            ["sweep", "--p", "2", "--q", "2", "--d-min", "4", "--d-max", "16",
             "--steps", "2", "--trials", "20", "--seed", "1", "--format", "json"], capsys
        )
        assert code == 0
        report = json.loads(out)
        assert len(report["rows"]) == 2

    def test_duplicate_grid_rejected(self, capsys):
        # geomspace(4, 6, 6) rounds to 4, 4, 5, 5, 6, 6
        code, out, err = run_cli(
            ["sweep", "--p", "2", "--q", "2", "--d-min", "4", "--d-max", "6",
             "--steps", "6", "--trials", "20"], capsys
        )
        assert code == 2 and out == ""
        assert "distinct" in err

    def test_too_many_steps_refused_before_the_grid(self, capsys, monkeypatch):
        # 2 * 10**6 steps over the two values 1..2 must repeat one; the
        # refusal comes without building the grid
        def geomspace(*args, **kwargs):
            raise AssertionError("the grid was built")

        monkeypatch.setattr(np, "geomspace", geomspace)
        code, out, err = run_cli(
            ["sweep", "--p", "1", "--q", "1", "--d-min", "1", "--d-max", "2",
             "--steps", "2000000"], capsys
        )
        assert_refused(code, out, err)
        assert "distinct values of d" in err

    def test_bad_range(self, capsys):
        code, _, err = run_cli(
            ["sweep", "--p", "2", "--q", "2", "--d-min", "64", "--d-max", "4",
             "--steps", "2", "--trials", "20"], capsys
        )
        assert code == 2
        # a nonpositive d-min is refused before the grid is built
        code, out, err = run_cli(
            ["sweep", "--p", "2", "--q", "2", "--d-min", "-4", "--d-max", "4",
             "--steps", "2", "--trials", "20"], capsys
        )
        assert code == 2 and out == ""
        assert err.startswith("gmprod: d-min") and err.count("\n") == 1


class TestOracle:
    def test_pair_report(self, capsys):
        code, out, _ = run_cli(["oracle", "--p", "2", "--q", "2", "--inner", "2"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["wick_mean"] == "21/2"
        assert report["closed_form_mean"] == "21/2"
        assert report["equal_mean"] is True
        assert "wick_variance" not in report

    def test_single_gaussian_report_includes_variance(self, capsys):
        code, out, _ = run_cli(["oracle", "--p", "1", "--q", "1", "--inner", ""], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["wick_mean"] == "3/1"
        assert report["wick_variance"] == "96/1"
        assert report["equal_variance"] is True

    @pytest.mark.parametrize("inner", ["2,2", "2,3,2", "3,1,1,3", "2,3,1,4,2", ",".join(["3"] * 9)])
    def test_mean_at_any_chain_length(self, inner, capsys):
        # the exact mean wherever (p q d_1 ... d_{r-1})^2 is within the cap, else status 3
        dims = tuple(map(int, inner.split(",")))
        for p, q in product((1, 2, 3), repeat=2):
            code, out, err = run_cli(["oracle", "--p", str(p), "--q", str(q), "--inner", inner], capsys)
            if (p * q * math.prod(dims) ** 2) ** 2 > MAX_MONOMIALS:
                assert_refused(code, out, err, status=3)
                continue
            mean = gmprod.mean_h_product_exact(gmprod.ChainSpec(p, q, dims))
            assert (code, err) == (0, "")
            report = json.loads(out)
            assert report["wick_mean"] == f"{mean.numerator}/{mean.denominator}"
            assert report["equal_mean"] is True and "wick_variance" not in report

    def test_budget_exit_code(self, capsys):
        # the fixed cap of 10^7 monomials of the full expansion, for each enumeration
        for argv, err in [
            ("--p 7 --q 9", "gmprod: variance enumeration needs 15752961 monomials, over the "
                            "budget of 10000000; too large for exact oracle\n"),
            ("--p 1 --q 1 --inner 57", "gmprod: mean enumeration needs 10556001 monomials, over "
                                       "the budget of 10000000; too large for exact oracle\n"),
            ("--p 4 --q 4 --inner 5,5", "gmprod: mean enumeration needs 100000000 monomials, over "
                                        "the budget of 10000000; too large for exact oracle\n"),
        ]:
            assert run_cli(["oracle", *argv.split()], capsys) == (3, "", err)

    def test_max_monomials_option_removed(self, capsys):
        # the cap is fixed; the report still echoes it as max_monomials
        with pytest.raises(SystemExit) as exc:
            main(["oracle", "--p", "2", "--q", "2", "--max-monomials", "10"])
        out = capsys.readouterr()
        assert_refused(exc.value.code, out.out, out.err)
        assert "--max-monomials" in out.err

    def test_mean_with_more_digits_than_the_str_cap(self, capsys):
        # 20,000 factors: the mean's numerator and denominator pass Python's
        # default cap of 4300 digits for int-to-str conversion
        argv = ["oracle", "--p", "1", "--q", "1", "--inner", ",".join(["1"] * 19_999)]
        code, out, err = run_cli(argv, capsys)
        assert (code, err) == (0, "")
        report = json.loads(out)  # the rationals are strings, so no int is parsed
        assert len(report["wick_mean"]) > 4300 and report["equal_mean"] is True

    def test_csv_format_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["oracle", "--p", "2", "--q", "2", "--format", "csv"])
        out = capsys.readouterr()
        assert exc.value.code == 2 and out.out == ""
        assert out.err.startswith("gmprod:") and out.err.count("\n") == 1


class TestSeedHandling:
    @pytest.mark.parametrize(
        "argv",
        [
            "moments --p 3 --q 2 --inner 6,6",
            "distinguish --p 2 --q 2 --inner 4 --trials 20",
            "sweep --p 2 --q 2 --d-min 4 --d-max 16 --steps 2 --trials 10",
            "oracle --p 2 --q 3",
        ],
        ids=["moments", "distinguish", "sweep", "oracle"],
    )
    def test_env_seed_changes_nothing(self, argv, capsys, monkeypatch):
        # argv is the whole configuration: the seed defaults to 0, never to
        # an environment variable
        monkeypatch.delenv("GMPROD_SEED", raising=False)
        expected = run_cli(argv.split(), capsys)
        assert expected[0] == 0
        for value in ("77", "not-a-number"):
            monkeypatch.setenv("GMPROD_SEED", value)
            assert run_cli(argv.split(), capsys) == expected

    def test_argparse_errors_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["distinguish", "--q", "2", "--inner", "4"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", list(USAGE_ERRORS.values()), ids=list(USAGE_ERRORS))
    def test_argparse_errors_print_one_line(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out = capsys.readouterr()
        assert exc.value.code == 2 and out.out == ""
        assert out.err.startswith("gmprod:") and out.err.count("\n") == 1


@pytest.mark.parametrize("argv", list(PINNED_OUTPUT), ids=list(PINNED_OUTPUT))
def test_pinned_output(argv, capsys):
    assert run_cli(argv.split(), capsys) == (0, PINNED_OUTPUT[argv], "")


def in_process(argv):
    """Exit status, stdout and stderr of ``main(argv)`` in this process, usage errors included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def in_fresh_interpreter(argv, **env):
    """Exit status, stdout and stderr of ``main(argv)`` in a new Python process, ``env`` added."""
    done = subprocess.run(
        [sys.executable, "-c", "import sys; from gmprod.cli import main; sys.exit(main(sys.argv[1:]))",
         *argv],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, **env, "PYTHONPATH": str(Path(gmprod.__file__).parents[1])},
    )
    return done.returncode, done.stdout, done.stderr


# Imports the package and the CLI, with numpy blocked when argv[1] is
# "blocked", then runs main on each argv of the JSON list argv[2] and prints
# what each call gave: [status, stdout, stderr], or "ImportError".
_NUMPY_PROBE = """
import contextlib, io, json, sys
if sys.argv[1] == "blocked":
    sys.modules["numpy"] = None  # every import of numpy now raises ImportError
import gmprod
from gmprod.cli import main
results = []
for argv in json.loads(sys.argv[2]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except ImportError:
            code = "ImportError"
    results.append([code, out.getvalue(), err.getvalue()])
print(json.dumps({"results": results, "all_in_dir": set(gmprod.__all__) <= set(dir(gmprod))}))
"""


def numpy_probe(mode, argvs):
    done = subprocess.run(
        [sys.executable, "-c", _NUMPY_PROBE, mode, json.dumps(argvs)],
        capture_output=True, text=True, timeout=120, check=True,
        env={**os.environ, "PYTHONPATH": str(Path(gmprod.__file__).parents[1])},
    )
    return json.loads(done.stdout)


def test_oracle_and_usage_errors_run_without_numpy():
    # the package, the CLI, the oracle and the parser's refusals are exact
    # arithmetic and argparse; only a subcommand that draws needs numpy
    argvs = [["oracle", "--p", "3", "--q", "4"], *USAGE_ERRORS.values()]
    distinguish = ["distinguish", "--p", "2", "--q", "2", "--inner", "4", "--trials", "10"]
    free = numpy_probe("free", argvs)
    blocked = numpy_probe("blocked", [*argvs, distinguish])
    assert [code for code, _, _ in free["results"]] == [0, 2, 2, 2]
    assert blocked["results"] == [*free["results"], ["ImportError", "", ""]]
    assert blocked["all_in_dir"] and free["all_in_dir"]


# Prints, at each stage, which of the modules in HEAVY the gmprod imports
# so far have loaded: after importing the CLI, after main runs each argv of
# the JSON list argv[1], and after importing the numpy modules.
_FOOTPRINT_PROBE = """
import contextlib, io, json, sys
HEAVY = ("numpy", "dataclasses", "inspect", "csv")
before = set(sys.modules)
stages = []
def stage(name):
    stages.append([name, [m for m in HEAVY if m in sys.modules and m not in before]])
from gmprod.cli import main
stage("import gmprod.cli")
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    stage(f"{argv[0]}: exit {code}")
import gmprod.moments, gmprod.sampling, gmprod.distinguisher
stage("numpy modules")
print(json.dumps(stages))
"""


def test_cli_import_footprint():
    # the records are slots classes, not dataclasses (whose import loads inspect),
    # and CSV is written by joining fields, so csv is never imported
    argvs = [["oracle", "--p", "3", "--q", "4"], USAGE_ERRORS["not-an-int"]]
    done = subprocess.run(
        [sys.executable, "-c", _FOOTPRINT_PROBE, json.dumps(argvs)],
        capture_output=True, text=True, timeout=120, check=True,
        env={**os.environ, "PYTHONPATH": str(Path(gmprod.__file__).parents[1])},
    )
    stages = json.loads(done.stdout)
    assert stages[:3] == [["import gmprod.cli", []], ["oracle: exit 0", []], ["moments: exit 2", []]]
    assert stages[3][0] == "numpy modules" and "numpy" in stages[3][1]
    assert "dataclasses" not in stages[3][1]


# what a report field can hold: an int (past 4300 digits, under a lifted cap),
# a finite float, or an inner-dimension list, the empty one included
CSV_VALUE = st.one_of(
    st.integers(),
    st.integers(10**4300, 10**4400),
    st.floats(allow_nan=False, allow_infinity=False),
    st.lists(st.integers(1, 10**30), max_size=4),
)


@settings(max_examples=100, deadline=None)
@given(
    header=st.sampled_from([MOMENTS_HEADER, DISTINGUISH_HEADER, SWEEP_HEADER]),
    values=st.lists(st.lists(CSV_VALUE, min_size=13, max_size=13), max_size=4),
)
def check_csv_text_matches_csv_writer(header, values):
    records = [dict(zip(header, row)) for row in values]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([cli._csv_field(record[k]) for k in header] for record in records)
    assert _csv_text(header, records) == buf.getvalue()


def test_csv_text_matches_csv_writer():
    # joining the fields gives the bytes csv.writer gives, with no quoting; the
    # cap is lifted around the whole search, so hypothesis can print a big int
    with no_int_digit_cap():
        check_csv_text_matches_csv_writer()


def test_one_parser_serves_every_call():
    # The parsers are built once per process: refusals, then every pinned
    # argv, then the refusals again, each with the bytes a first call gives.
    # The calls, parsed by the top-level parser or by a subcommand's own, leave
    # the top-level parser and the subcommand map, and each parser in it, as they were.
    parser, subparsers = cli._PARSER, dict(cli._SUBPARSERS)
    assert all(p.prog == f"gmprod {name}" for name, p in subparsers.items())
    refused = {tuple(argv): in_fresh_interpreter(argv) for argv in USAGE_ERRORS.values()}
    assert all(code == 2 for code, _, _ in refused.values())
    for argv, expected in refused.items():
        assert in_process(list(argv)) == expected
    for argv, text in PINNED_OUTPUT.items():
        assert in_process(argv.split()) == (0, text, "")
    for argv, expected in refused.items():
        assert in_process(list(argv)) == expected
    assert cli._PARSER is parser and cli._SUBPARSERS.keys() == subparsers.keys()
    assert all(cli._SUBPARSERS[name] is p for name, p in subparsers.items())


def through_the_top_level_parser(argv):
    """``in_process(argv)`` with ``main`` finding no subcommand in its map, so that
    ``_PARSER.parse_args`` parses every argv: the reference the direct route must match."""
    with mock.patch.object(cli, "_SUBPARSERS", {}):
        return in_process(argv)


DIFFERENTIAL_ARGV = [
    *USAGE_ERRORS.values(),
    *(argv.split() for argv in PINNED_OUTPUT),
    [],
    ["-h"],
    ["--help"],
    ["oracle", "-h"],
    ["sweep", "--help"],
    ["oracle", "--p", "3", "--q", "4", "--he"],  # an abbreviation of --help
    ["oracle", "--p=3", "--q", "4"],
    ["distinguish", "--p", "2", "--q", "2", "--inner", "4", "--tri", "10"],
    ["sweep", "--p", "2", "--q", "2", "--d", "4", "--d-max", "16", "--steps", "2"],  # ambiguous
    ["--p", "3", "oracle", "--q", "4"],  # an option before the subcommand
    ["-h", "oracle"],
    ["orac", "--p", "3", "--q", "4"],  # subcommand names are not abbreviated
    ["oracle", "--p", "3", "--q", "4", "extra"],
    ["oracle", "extra", "--p", "3", "--q", "4"],
    ["oracle", "--p", "3", "--q", "4", "--", "--p", "5"],
    ["oracle", "--", "--p", "3", "--q", "4"],
    ["--", "oracle", "--p", "3", "--q", "4"],
    ["oracle", "--p", "3", "--p", "2", "--q", "4", "--q", "3"],
    ["oracle", "--p", "-3", "--q", "4"],
    ["oracle", "oracle", "--p", "3", "--q", "4"],
    ["moments", "--p", "2", "--q", "2", "--inner", "4", "--format", "csv", "--format", "json"],
]


@pytest.mark.parametrize(
    "argv", DIFFERENTIAL_ARGV, ids=[" ".join(argv) or "empty" for argv in DIFFERENTIAL_ARGV]
)
def test_subcommand_parser_gives_the_bytes_of_the_top_level_parser(argv):
    assert in_process(argv) == through_the_top_level_parser(argv)


# argv tokens for the generated differential: names, options whole, abbreviated
# and with "=", help, "--", and values small enough that a parse that succeeds runs fast
ARGV_TOKEN = st.sampled_from([
    "moments", "distinguish", "sweep", "oracle", "orac", "swe", "bogus",
    "-h", "--help", "--he", "--",
    "--p", "--p=2", "--q", "--q=3", "--inner", "--inner=4", "--inner=2,2", "--in",
    "--trials", "--tri", "--trials=10", "--seed", "--seed=7", "--format", "--format=csv",
    "--r", "--d-min", "--d-m", "--d-max=3", "--steps", "--steps=2", "--d", "-p",
    "1", "2", "3", "10", "-1", "x", "json", "csv",
])
SUBCOMMAND_ARGV = st.builds(
    lambda name, rest: [name, *rest],
    st.sampled_from(sorted(cli._SUBPARSERS)),
    st.lists(ARGV_TOKEN, max_size=12),
)


@settings(max_examples=200, deadline=None)
@given(argv=st.one_of(SUBCOMMAND_ARGV, st.lists(ARGV_TOKEN, max_size=12)))
def test_generated_argv_gives_the_bytes_of_the_top_level_parser(argv):
    assert in_process(argv) == through_the_top_level_parser(argv)


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["oracle", "--p", "7" * 5000, "--q", "1"], (3, "gmprod: mean enumeration needs ")),
        (["moments", "--p", "7" * 5000, "--q", "1", "--inner", "4"], (2, "gmprod: mu_single ")),
    ],
    ids=["oracle", "moments"],
)
def test_integer_options_do_not_depend_on_the_digit_cap(argv, expected):
    # the cap on int-str conversion is lifted for the whole call, so an
    # option with more digits than the default cap of 4300 parses either way
    capped = in_fresh_interpreter(argv, PYTHONINTMAXSTRDIGITS="4300")
    assert in_fresh_interpreter(argv, PYTHONINTMAXSTRDIGITS="0") == capped
    code, out, err = capped
    assert_refused(code, out, err, status=expected[0])
    assert err.startswith(expected[1])


def test_digit_cap_restored_after_a_usage_error():
    cap = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    with pytest.raises(SystemExit):
        main(USAGE_ERRORS["not-an-int"])
    assert getattr(sys, "get_int_max_str_digits", lambda: 0)() == cap


@pytest.mark.parametrize(
    "subcommand, header",
    [("moments", cli.MOMENTS_CSV_HEADER), ("distinguish", cli.DISTINGUISH_CSV_HEADER),
     ("sweep", cli.SWEEP_CSV_HEADER)],
)
def test_readme_lists_the_frozen_csv_columns(subcommand, header):
    # the one comma-joined column list in the subcommand's README section
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split(f"### `gmprod {subcommand}`\n", 1)[1].split("\n#", 1)[0]
    assert re.findall(r"`(\w+(?:,\w+)+)`", section) == [",".join(header)]


def test_option_sets_are_pinned():
    # a setting is added or dropped on purpose, with this list
    options = {
        name: {s for action in p._actions for s in action.option_strings if s.startswith("--")}
        for name, p in cli._SUBPARSERS.items()
    }
    common = {"--help", "--p", "--q", "--seed", "--format", "--out"}
    assert options == {
        "moments": common | {"--inner"},
        "distinguish": common | {"--inner", "--trials"},
        "sweep": common | {"--r", "--d-min", "--d-max", "--steps", "--trials"},
        "oracle": common | {"--inner"},
    }


@pytest.mark.parametrize(
    "argv",
    [
        ["moments", "--p", "2", "--q", "2", "--inner", "4"],
        ["distinguish", "--p", "2", "--q", "2", "--inner", "4", "--trials", "10"],
        ["sweep", "--p", "2", "--q", "2", "--d-min", "4", "--d-max", "16",
         "--steps", "2", "--trials", "10"],
        ["oracle", "--p", "2", "--q", "2"],
    ],
    ids=["moments", "distinguish", "sweep", "oracle"],
)
def test_constants_option_removed(argv, capsys):
    # neither option exists: c is fixed at 1, and every report still
    # echoes it as {"c": 1.0}
    for removed in (["--constants", "c=2"], ["--strict-dims"]):
        with pytest.raises(SystemExit) as exc:
            main(argv + removed)
        out = capsys.readouterr()
        assert_refused(exc.value.code, out.out, out.err)
        assert removed[0] in out.err


@pytest.mark.parametrize(
    "argv, named",
    [
        (["moments", "--p", str(10**400), "--q", "2", "--inner", "4"], "mu_single"),
        (["sweep", "--p", "2", "--q", "2", "--d-min", "4", "--d-max", str(10**80),
          "--steps", "3", "--trials", "10"], "limit"),
        # the grid is built in floats, and 10**400 is past the largest one
        (["sweep", "--p", "2", "--q", "2", "--d-min", "4", "--d-max", str(10**400),
          "--steps", "3", "--trials", "10"], "d-max has 401 digits"),
        (["sweep", "--p", "2", "--q", "2", "--d-min", str(10**400), "--d-max", str(10**401),
          "--steps", "3", "--trials", "10"], "d-min has 401 digits"),
    ],
    ids=["p", "sweep-d-max", "sweep-d-max-float", "sweep-d-min-float"],
)
def test_dimension_too_large_for_a_float_rejected(argv, named, capsys):
    code, out, err = run_cli(argv, capsys)
    assert_refused(code, out, err)
    assert named in err


@pytest.mark.parametrize(
    "d, exponent",
    [
        # both means would print as 0.0, although they differ
        (10**400, -799),
        # both means would print as the subnormal 2e-319, although they differ
        (10**160, -319),
    ],
    ids=["inner-1e400", "inner-1e160"],
)
def test_exact_value_too_small_for_a_float_named(d, exponent, capsys):
    code, out, err = run_cli(["moments", "--p", "2", "--q", "2", "--inner", str(d)], capsys)
    assert_refused(code, out, err)
    assert err == (f"gmprod: mu_single of this chain is about 10^{exponent}, too small for a float; "
                   "use smaller inner dimensions\n")


@pytest.mark.parametrize(
    "argv, field",
    [
        (["sweep", "--p", "2", "--q", "2", "--r", "4001", "--d-min", "4", "--d-max", "16",
          "--steps", "2", "--trials", "10"], "mu_product"),
        (["moments", "--p", "16", "--q", "16", "--inner", ",".join(["16"] * 4000)], "var_product"),
    ],
    ids=["sweep-mean", "moments-variance"],
)
def test_exact_value_too_large_for_a_float_named(argv, field, capsys):
    code, out, err = run_cli(argv, capsys)
    assert_refused(code, out, err)
    assert err.startswith(f"gmprod: {field} of this chain is about 10^")
    assert "too large for a float" in err


@pytest.mark.parametrize(
    "argv",
    [
        # row d = 2e10 of this grid once asked numpy for 298 GiB
        ["sweep", "--p", "2", "--q", "2", "--d-min", "4", "--d-max", str(10**20),
         "--steps", "3", "--trials", "10"],
        # 2 * 2**25 + 2**25 * 2 = 2**27 normals per trial
        ["distinguish", "--p", "2", "--q", "2", "--inner", str(2**25), "--trials", "10"],
    ],
    ids=["sweep", "distinguish"],
)
def test_trial_above_the_size_limit_rejected(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert_refused(code, out, err)
    assert "limit" in err


def refuse_the_draw(monkeypatch):
    """Make the trial engine fail the test if anything calls it."""

    def h_samples(jobs):
        raise AssertionError("the trials were drawn")

    # distinguisher calls the engine through its own import-time binding
    for module in (gmprod.sampling, gmprod.distinguisher):
        monkeypatch.setattr(module, "h_samples", h_samples)


def test_refused_sweep_row_draws_nothing(capsys, monkeypatch):
    # row d = 2e10 is refused; rows d = 4 and d = 1e20 are checked before any is drawn
    refuse_the_draw(monkeypatch)
    argv = ["sweep", "--p", "2", "--q", "2", "--d-min", "4", "--d-max", str(10**20),
            "--steps", "3", "--trials", "10"]
    code, out, err = run_cli(argv, capsys)
    assert_refused(code, out, err)
    assert err == ("gmprod: one trial would draw 80000000000 normals into a 2 x 2 matrix; "
                   "the limit is 67108864 values per trial\n")


SWEEP_GOLDEN = "sweep --p 16 --q 16 --d-min 16 --d-max 4096 --steps 9 --trials 20 --seed 7"


@pytest.mark.parametrize("chunk_entries, calls", [(None, 1), (200, 2), (120, 3), (1, 9)])
def test_sweep_rows_drawn_in_bounded_calls(chunk_entries, calls, capsys, monkeypatch):
    # 40 values a row: the benchmark-sized sweep is one engine call, and a
    # smaller stack splits it into calls of max(40, stack) values or fewer,
    # printing the same bytes
    if chunk_entries is not None:
        monkeypatch.setattr(gmprod.sampling, "_CHUNK_ENTRIES", chunk_entries)
    engine, sizes = gmprod.sampling.h_samples, []

    def h_samples(jobs):
        sizes.append(sum(n for _, _, n, _ in jobs))
        return engine(jobs)

    # draw_h_samples calls the engine through distinguisher's import-time binding
    monkeypatch.setattr(gmprod.distinguisher, "h_samples", h_samples)
    assert run_cli(SWEEP_GOLDEN.split(), capsys) == (0, PINNED_OUTPUT[SWEEP_GOLDEN], "")
    assert len(sizes) == calls and sum(sizes) == 9 * 40
    assert max(sizes) <= max(40, chunk_entries or gmprod.sampling._CHUNK_ENTRIES)


@pytest.mark.parametrize(
    "argv",
    [
        "sweep --p 2 --q 2 --d-min 1000000 --d-max 2000000 --steps 2 --r 8000 --trials 10",
        f"distinguish --p 2 --q 2 --inner {','.join(['1000000'] * 7999)} --trials 10",
    ],
    ids=["sweep", "distinguish"],
)
def test_trial_above_the_size_limit_refused_before_the_exact_moments(argv, capsys, monkeypatch):
    # the exact moments of an 8000-factor chain take seconds of big-integer
    # work; the draw's size check refuses the chain first, at no cost
    def build_test(spec):
        raise AssertionError("the exact moments were computed before the size check")

    monkeypatch.setattr(gmprod.distinguisher, "build_test", build_test)
    code, out, err = run_cli(argv.split(), capsys)
    assert_refused(code, out, err)
    assert "limit" in err


@pytest.mark.parametrize(
    "argv, field",
    [
        (f"distinguish --p 2 --q 2 --inner {','.join(['4'] * 4000)} --trials 100", "mu_product"),
        ("sweep --p 2 --q 2 --r 4001 --d-min 4 --d-max 16 --steps 2 --trials 10", "mu_product"),
    ],
    ids=["distinguish", "sweep"],
)
def test_exact_value_too_large_for_a_float_refused_before_the_draw(argv, field, capsys, monkeypatch):
    # the draw of a 4000-factor chain takes seconds and grows with --trials;
    # the test plan refuses the chain first
    refuse_the_draw(monkeypatch)
    code, out, err = run_cli(argv.split(), capsys)
    assert_refused(code, out, err)
    assert err.startswith(f"gmprod: {field} of this chain is about 10^")
    assert "too large for a float" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["moments", "--p", "2", "--q", "2"],
        ["distinguish", "--p", "2", "--q", "2", "--trials", "10"],
    ],
    ids=["moments", "distinguish"],
)
def test_chain_without_inner_dimension_refused(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert_refused(code, out, err)
    assert "two factors" in err


@pytest.mark.parametrize(
    "argv",
    [
        # 10**15 float64 values is 7 PiB, past the x86-64 address space, so
        # numpy's allocation fails at once and touches no memory; sweep-steps
        # is refused before its grid is built, sweep-grid when it is
        ["distinguish", "--p", "2", "--q", "2", "--inner", "4", "--trials", str(10**15)],
        ["sweep", "--p", "1", "--q", "1", "--d-min", "1", "--d-max", "2", "--steps", str(10**15)],
        ["sweep", "--p", "1", "--q", "1", "--d-min", "1", "--d-max", str(10**16), "--steps", str(10**15)],
        # past numpy's shape limits, which it reports in its own words
        ["distinguish", "--p", "2", "--q", "2", "--inner", "4", "--trials", str(2**63), "--seed", "1"],
        ["sweep", "--p", "2", "--q", "2", "--d-min", "4", "--d-max", "8", "--steps", "2",
         "--trials", str(2**62)],
        # an inner tuple of 10**11 dimensions once raised a bare MemoryError
        ["sweep", "--p", "2", "--q", "2", "--d-min", "2", "--d-max", "3", "--steps", "2",
         "--r", str(10**11)],
    ],
    ids=["distinguish-trials", "sweep-steps", "sweep-grid", "distinguish-trials-2^63",
         "sweep-trials-2^62", "sweep-r"],
)
def test_allocation_too_large_refused(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert_refused(code, out, err)
    if "--trials" in argv:
        trials = argv[argv.index("--trials") + 1]
        assert f"{trials} trials" in err
    if "--r" in argv:
        r = argv[argv.index("--r") + 1]
        assert err.startswith(f"gmprod: --r {r} and --d-min 2 give a chain") and "limit" in err


@pytest.mark.parametrize("trials", [2**64 - 1, 2**64])
@pytest.mark.parametrize(
    "argv",
    [
        ["distinguish", "--p", "2", "--q", "2", "--inner", "4"],
        ["sweep", "--p", "2", "--q", "2", "--d-min", "4", "--d-max", "8", "--steps", "2"],
    ],
    ids=["distinguish", "sweep"],
)
def test_trials_past_64_bit_streams_refused_by_name(argv, trials, capsys, monkeypatch):
    # 2**64 trials or more have streams past the 64-bit index; they are refused
    # before any SeedSpec is built, so no message about a stream index names
    # what the user never typed. 2**64 - 1 trials fail their allocation instead.
    if trials >= 2**64:
        def seed_spec(*args):
            raise AssertionError("a SeedSpec was built")

        monkeypatch.setattr(gmprod.sampling, "SeedSpec", seed_spec)
    code, out, err = run_cli([*argv, "--trials", str(trials)], capsys)
    assert_refused(code, out, err)
    assert err == f"gmprod: cannot allocate the values of {trials} trials; use fewer trials\n"


@pytest.mark.parametrize("seed", [-1, 2**64 - 1, 2**64])
@pytest.mark.parametrize(
    "argv",
    [
        ["distinguish", "--p", "2", "--q", "2", "--inner", "4"],
        ["sweep", "--p", "2", "--q", "2", "--d-min", "4", "--d-max", "8", "--steps", "2"],
    ],
    ids=["distinguish", "sweep"],
)
def test_seed_outside_64_bits_refused_by_name(argv, seed, capsys, monkeypatch):
    # a --seed outside [0, 2**64) is refused right after --trials, by the option's
    # name, before any stream, size check or exact moment is computed for it
    in_range = 0 <= seed < 2**64
    if not in_range:
        def refuse(*args):
            raise AssertionError("the seed was used before it was checked")

        monkeypatch.setattr(gmprod.sampling, "SeedSpec", refuse)
        monkeypatch.setattr(gmprod.distinguisher, "check_trial_size", refuse)
        monkeypatch.setattr(gmprod.distinguisher, "build_test", refuse)
    code, out, err = run_cli([*argv, "--trials", "10", "--seed", str(seed), "--format", "json"], capsys)
    if in_range:
        assert (code, err) == (0, "") and json.loads(out)["seed"] == seed
    else:
        assert_refused(code, out, err)
        assert err == f"gmprod: --seed must be from 0 to 2**64 - 1, got {seed}\n"


def run_generated(argv):
    """stdout of ``main(argv)`` if it succeeded, else None once the failure contract holds.

    The exit status is 0, 2 or 3; a failure leaves stdout empty and one
    ``gmprod:`` line on stderr, and a success leaves stderr empty.
    """
    code, out, err = in_process(argv)
    assert code in {0, 2, 3}
    if code != 0:
        assert_refused(code, out, err, status=code)
        return None
    assert err == ""
    return out


def assert_finite_csv(header, rows):
    """Every field but ``inner`` of every row is a finite number."""
    for row in rows:
        assert len(row) == len(header)
        assert all(_finite_number(field) for name, field in zip(header, row) if name != "inner")


def _refuse_constant(name):
    raise ValueError(f"not strict JSON: {name}")


def _finite_number(field: str) -> bool:
    try:
        int(field)
        return True
    except ValueError:
        return math.isfinite(float(field))


DIMENSION = st.one_of(st.integers(-2, 70), st.integers(1, 10**400))


@settings(max_examples=200, deadline=None)
@given(
    p=DIMENSION,
    q=DIMENSION,
    inner=st.lists(DIMENSION, min_size=1, max_size=4),
    closed=st.booleans(),
    fmt=st.sampled_from(["json", "csv"]),
)
def test_moments_contract_holds_for_generated_argv(p, q, inner, closed, fmt):
    # moments draws no samples, so no generated size turns into an allocation
    if closed:
        inner[-1] = inner[0]
    argv = ["moments", "--p", str(p), "--q", str(q), "--inner", ",".join(map(str, inner)),
            "--format", fmt]
    out = run_generated(argv)
    if out is None:
        return
    if fmt == "json":
        report = json.loads(out, parse_constant=_refuse_constant)
        assert sorted(report) == sorted([*MOMENTS_HEADER, "constants"])
        assert report["constants"] == {"c": 1.0}
    else:
        header, row = csv.reader(io.StringIO(out))
        assert header == MOMENTS_HEADER
        assert_finite_csv(header, [row])
        assert all(int(d) >= 1 for d in row[header.index("inner")].split(";"))


# Draws are only generated small or far above h_samples' limit of 2**26
# values per trial, which refuses them before drawing anything. 300 puts
# an 8 x 8 chain on the threaded path. The other options stay within
# their checks (the tests above cover those), so that many examples run.
SAMPLED_DIMENSION = st.one_of(st.integers(1, 8), st.just(300), st.integers(2**26 + 1, 10**30))
# most seeds are in range; the wider range also yields seeds that must be refused
SEED = st.one_of(st.integers(0, 2**64 - 1), st.integers(-(2**70), 2**70))
TRIALS = st.integers(10, 30)


@settings(max_examples=100, deadline=None)
@given(
    p=SAMPLED_DIMENSION,
    q=SAMPLED_DIMENSION,
    inner=st.lists(SAMPLED_DIMENSION, min_size=1, max_size=3),
    closed=st.booleans(),
    trials=TRIALS,
    seed=SEED,
    fmt=st.sampled_from(["json", "csv"]),
)
def test_distinguish_contract_holds_for_generated_argv(p, q, inner, closed, trials, seed, fmt):
    if closed and inner:
        inner[-1] = inner[0]
    argv = ["distinguish", "--p", str(p), "--q", str(q), "--inner", ",".join(map(str, inner)),
            "--trials", str(trials), "--seed", str(seed), "--format", fmt]
    if not 0 <= seed < 2**64:
        assert_refused(*in_process(argv))  # exit status 2 and one gmprod: line
        return
    out = run_generated(argv)
    if out is None:
        return
    if fmt == "json":
        report = json.loads(out, parse_constant=_refuse_constant)
        assert sorted(report) == sorted([*DISTINGUISH_HEADER, "constants"])
    else:
        header, row = csv.reader(io.StringIO(out))
        assert header == DISTINGUISH_HEADER
        assert_finite_csv(header, [row])


@settings(max_examples=100, deadline=None)
@given(
    p=SAMPLED_DIMENSION,
    q=SAMPLED_DIMENSION,
    r=st.integers(2, 4),
    d_min=st.integers(1, 16),
    # from d-min <= 16 to d-max >= 10**30 in at most four steps, every
    # point after the first is above 10**9
    d_max=st.one_of(st.integers(1, 64), st.integers(10**30, 10**60)),
    steps=st.integers(2, 4),
    trials=TRIALS,
    seed=SEED,
    fmt=st.sampled_from(["csv", "json"]),
)
def test_sweep_contract_holds_for_generated_argv(p, q, r, d_min, d_max, steps, trials, seed, fmt):
    argv = ["sweep", "--p", str(p), "--q", str(q), "--r", str(r), "--d-min", str(d_min),
            "--d-max", str(d_max), "--steps", str(steps), "--trials", str(trials),
            "--seed", str(seed), "--format", fmt]
    if not 0 <= seed < 2**64:
        assert_refused(*in_process(argv))  # exit status 2 and one gmprod: line
        return
    out = run_generated(argv)
    if out is None:
        return
    if fmt == "json":
        report = json.loads(out, parse_constant=_refuse_constant)
        assert sorted(report) == ["constants", "p", "q", "r", "rows", "seed", "trials"]
        assert len(report["rows"]) == steps
        assert all(sorted(row) == sorted(SWEEP_HEADER) for row in report["rows"])
    else:
        header, *rows = csv.reader(io.StringIO(out))
        assert header == SWEEP_HEADER and len(rows) == steps
        assert_finite_csv(header, rows)


ORACLE_KEYS = ["closed_form_mean", "equal_mean", "inner", "max_monomials", "p", "q", "wick_mean"]
ORACLE_VARIANCE_KEYS = ["closed_form_variance", "equal_variance", "wick_variance"]


# p, q and up to four inner dimensions from 1..3, most within the cap, so
# that many examples run the oracle, r >= 3 included. An optional oversize
# value at p, q or the first inner dimension is over the cap, so the oracle
# refuses it before enumerating. Every chain is closed and asks for JSON,
# the oracle's only format (test_csv_format_rejected pins the csv refusal),
# so the size cap is the only refusal generated.
@settings(max_examples=100, deadline=None)
@given(
    dims=st.lists(st.integers(1, 3), min_size=2, max_size=6),
    oversize=st.one_of(st.none(), st.tuples(st.integers(0, 2), st.integers(10**4, 10**30))),
)
def test_oracle_contract_holds_for_generated_argv(dims, oversize):
    if oversize is not None:
        at, value = oversize
        dims[min(at, len(dims) - 1)] = value
    p, q, *inner = dims
    if inner:
        inner[-1] = inner[0]
    argv = ["oracle", "--p", str(p), "--q", str(q), "--inner", ",".join(map(str, inner))]
    out = run_generated(argv)
    if out is None:
        return
    report = json.loads(out, parse_constant=_refuse_constant)
    expected = ORACLE_KEYS + (ORACLE_VARIANCE_KEYS if not inner else [])
    assert sorted(report) == sorted(expected)
    assert report["equal_mean"] is True and report.get("equal_variance", True) is True
