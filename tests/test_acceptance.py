"""End-to-end acceptance checks, one test per criterion.

Each test prints a PASS/FAIL line (run ``pytest -s`` to see them all) and
pins its tolerances inline. Heavy Monte Carlo runs use frozen seeds, so
every outcome here is reproducible bit for bit.
"""

import csv
import math
from itertools import product

import numpy as np
import pytest

from gmprod.cli import main
from gmprod.core import ChainSpec
from gmprod.distinguisher import draw_h_samples, error_rates, tv_lower_bound_empirical
from gmprod.sampling import h_samples
from gmprod.moments import closed_form_moments, mean_h_product_exact, var_h_product_exact
from gmprod.oracle import wick_exact_mean_h, wick_exact_var_h_single
from gmprod.sampling import SeedSpec, sample_product, sample_single
from references import base_gaussian_moments, layer_update, mc_mean, mc_variance


def check(criterion: str, ok: bool, detail: str = ""):
    line = f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_01_closed_form_equals_recursion():
    dims = (1, 2, 3, 5, 10, 50)
    checked = 0
    for length in range(6):
        for prefix in product(dims, repeat=length):
            # a chain's last inner dimension repeats its first
            inner = prefix if prefix[-1:] == prefix[:1] else prefix + prefix[:1]
            t = base_gaussian_moments()
            for d in inner:
                t = layer_update(t, d)
            if closed_form_moments(ChainSpec(1, 1, inner)) != t:
                check("1 recursion/closed-form identity", False, f"mismatch at {inner}")
            checked += 1
    check("1 recursion/closed-form identity", True, f"{checked} chains, exact integers")


def test_02_wick_oracle_matches_exact_mean():
    cases = 0
    for p, q in product((1, 2, 3, 4), repeat=2):
        assert wick_exact_mean_h(ChainSpec(p, q)) == mean_h_product_exact(ChainSpec(p, q))
        cases += 1
    for p, q, d in product((1, 2, 3, 4), repeat=3):
        spec = ChainSpec(p, q, (d,))
        wick, closed = wick_exact_mean_h(spec), mean_h_product_exact(spec)
        if wick != closed:
            check("2 Wick-oracle mean agreement", False, f"(p={p}, q={q}, d={d})")
        cases += 1
    check("2 Wick-oracle mean agreement", True, f"{cases} grid points, exact rationals")


def test_03_single_gaussian_variance_identities():
    for p in range(1, 21):
        for q in range(1, 21):
            closed = 4 * p * q * (2 * p * p + 5 * p * q + 2 * q * q + 5 * p + 5 * q + 5)
            if var_h_product_exact(ChainSpec(p, q)) != closed:
                check("3 variance closed-form identity", False, f"(p={p}, q={q})")
    scalar = wick_exact_var_h_single(ChainSpec(1, 1))
    ok = scalar == 96 == 105 - 9
    for p, q in product((1, 2), repeat=2):
        ok = ok and wick_exact_var_h_single(ChainSpec(p, q)) == var_h_product_exact(ChainSpec(p, q))
    check("3 variance identities + Wick enumeration", ok, "p,q <= 20 exact; Wick at p,q <= 2")


@pytest.mark.slow
def test_04_monte_carlo_mean_reproduction():
    spec = ChainSpec(2, 2, (4,))
    n = 1_000_000
    ci1 = mc_mean(h_samples([(sample_single, spec, n, SeedSpec(2026))])[0])
    dev1 = abs(ci1.estimate - 1.25) / ci1.std_error
    ci2 = mc_mean(h_samples([(sample_product, spec, n, SeedSpec(2027))])[0])
    dev2 = abs(ci2.estimate - 1.9375) / ci2.std_error
    check(
        "4 Monte Carlo mean reproduction",
        dev1 <= 3.0 and dev2 <= 3.0,
        f"single {ci1.estimate:.5f} ({dev1:.2f} SE from 1.25), "
        f"product {ci2.estimate:.5f} ({dev2:.2f} SE from 1.9375), n=1e6",
    )


@pytest.mark.slow
def test_05_monte_carlo_variance_reproduction():
    # d1 = 1 leaves the single ensemble unnormalized: a bare 2x2 Gaussian
    ci = mc_variance(h_samples([(sample_single, ChainSpec(2, 2, (1,)), 1_000_000, SeedSpec(2028))])[0])
    dev = abs(ci.estimate - 976.0) / ci.std_error
    check(
        "5 Monte Carlo variance reproduction",
        dev <= 3.0,
        f"estimate {ci.estimate:.2f} ({dev:.2f} jackknife SE from 976), n=1e6",
    )


def test_06_distinguishable_regime():
    ((_, plan, hp, hs),) = draw_h_samples([ChainSpec(32, 32, (64,))], 400, SeedSpec(0))
    rates = error_rates(hp, hs, plan)
    check(
        "6 distinguishable regime",
        rates["accuracy"] >= 0.70,
        f"accuracy {rates['accuracy']:.4f} at p=q=32, inner=[64], 400 trials",
    )


def test_07_indistinguishable_regime():
    spec = ChainSpec(8, 8, (2048,))
    ((_, plan, hp, hs),) = draw_h_samples([spec], 400, SeedSpec(0))
    rates = error_rates(hp, hs, plan)
    ((_, _, hp, hs),) = draw_h_samples([spec], 10_000, SeedSpec(1))
    tv = tv_lower_bound_empirical(hp, hs)
    check(
        "7 indistinguishable regime",
        rates["accuracy"] <= 0.60 and tv <= 0.15,
        f"accuracy {rates['accuracy']:.4f}, TV lower bound {tv:.4f} at n=1e4",
    )


def test_08_phase_monotonicity(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main([
        "sweep", "--p", "16", "--q", "16", "--d-min", "16", "--d-max", "4096",
        "--steps", "9", "--trials", "400", "--seed", "0", "--out", str(out),
    ])
    assert code == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    acc = [float(r["accuracy"]) for r in rows]
    worst = max(b - a for a, b in zip(acc, acc[1:]))
    check(
        "8 phase monotonicity",
        len(rows) == 9 and worst <= 0.03,
        f"max adjacent increase {worst:.4f} over {[f'{a:.3f}' for a in acc]}",
    )


def test_09_tv_estimator_calibration():
    rng = np.random.default_rng(1234)
    xs = rng.standard_normal(100_000)
    ys = rng.standard_normal(100_000) + 1.0
    got = tv_lower_bound_empirical(xs, ys)
    target = 2 * 0.5 * (1 + math.erf(0.5 / math.sqrt(2))) - 1  # 2*Phi(1/2) - 1
    check(
        "9 TV estimator calibration",
        abs(got - 0.3829) <= 0.03,
        f"KS {got:.4f} vs closed form {target:.4f}",
    )


def test_10_cli_determinism(tmp_path):
    invocations = [
        ["moments", "--p", "2", "--q", "2", "--inner", "4"],
        ["moments", "--p", "3", "--q", "2", "--inner", "6,6", "--format", "csv"],
        ["distinguish", "--p", "4", "--q", "4", "--inner", "8", "--trials", "50", "--seed", "9"],
        ["sweep", "--p", "2", "--q", "2", "--d-min", "4", "--d-max", "16",
         "--steps", "3", "--trials", "50", "--seed", "9"],
        ["oracle", "--p", "2", "--q", "2", "--inner", "2"],
    ]
    for idx, args in enumerate(invocations):
        a, b = tmp_path / f"{idx}_a", tmp_path / f"{idx}_b"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        if a.read_bytes() != b.read_bytes():
            check("10 CLI determinism", False, f"{args[0]} differs between runs")
    check("10 CLI determinism", True, f"{len(invocations)} subcommand invocations byte-identical")
