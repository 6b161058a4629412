"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one `ACCEPTANCE <k> ...: PASS|FAIL` line (run pytest with
-s to see them on success) and then asserts. Tolerances are pinned here,
not configurable.
"""

import json
import math
import time

import numpy as np

from altseq import (
    FiniteOptimalPolicy,
    FixedThresholdPolicy,
    SimulationConfig,
    closed_form_diagnostics,
    longest_alternating,
    longest_alternating_oracle,
    optimal_expected,
    optimal_expected_curve,
    run_fixed_horizon,
    run_geometric_horizon,
    run_offline,
    solve_finite,
    solve_flipped,
    solve_two_state,
    value_closed,
    value_flat_form,
    value_threshold_form,
    xi0_closed,
)
from altseq.cli import main as cli_main
from altseq.policies import ConcatenatedPolicy
from conftest import seeded_rng
from test_policies import concat_regenerations

SQRT2 = math.sqrt(2.0)


def check(label, ok, detail):
    print(f"ACCEPTANCE {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{label}: {detail}"


def test_criterion_01_geometric_closed_form_agreement():
    start = time.perf_counter()
    worst_value, worst_xi = 0.0, 0.0
    for rho in (0.7, 0.8, 0.9, 0.95):
        grid = solve_flipped(rho, grid_size=2001, tol=1e-10)
        worst_value = max(worst_value, abs(grid.values[0] - value_closed(rho)))
        worst_xi = max(worst_xi, abs(grid.xi_estimate - xi0_closed(rho)))
    elapsed = time.perf_counter() - start
    ok = worst_value < 5e-3 and worst_xi < 2 / 2001 and elapsed < 5.0
    check(
        "1 geometric closed-form",
        ok,
        f"max value err {worst_value:.2e} < 5e-3, max xi err {worst_xi:.2e} "
        f"< {2/2001:.2e}, {elapsed:.2f}s < 5s",
    )


def test_criterion_02_reflection_identity():
    start = time.perf_counter()
    sol = solve_two_state(0.9, grid_size=1001, tol=1e-10)
    gap = float(np.max(np.abs(sol.v_after_min - sol.v_after_max[::-1])))
    elapsed = time.perf_counter() - start
    ok = gap < 1e-8 and elapsed < 5.0
    check("2 reflection identity", ok, f"max gap {gap:.2e} < 1e-8, {elapsed:.2f}s < 5s")


def test_criterion_03_four_condition_residuals():
    start = time.perf_counter()
    rng = seeded_rng(314159)
    worst = 0.0
    for _ in range(20):
        rho = 0.6 + 0.39 * float(rng.random())
        xi = 0.5 * float(rng.random())
        diag = closed_form_diagnostics(rho, xi)
        worst = max(worst, float(np.max(np.abs(diag.residuals))))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-12 and elapsed < 1.0
    check("3 four-condition residuals", ok, f"max residual {worst:.2e} < 1e-12")


def test_criterion_04_two_stage_exactness():
    start = time.perf_counter()
    sol = solve_finite(2, grid_size=2001)
    gap = float(np.max(np.abs(sol.value_row(1) - 1.5 * (1 - sol.ys**2))))
    elapsed = time.perf_counter() - start
    ok = gap < 1e-9 and elapsed < 1.0
    check("4 finite n=2 exactness", ok, f"max gap {gap:.2e} < 1e-9")


def test_criterion_05_linear_rate_sandwich():
    start = time.perf_counter()
    curve = optimal_expected_curve(200, grid_size=2001)
    for n in (1, 2, 3, 17, 50):
        assert curve[n - 1] == optimal_expected(n, grid_size=2001)
    lower_slack = max(
        ((2 - SQRT2) * n - curve[n - 1]) / n for n in range(1, 201)
    )
    upper_excess = max(
        curve[n - 1] - ((2 - SQRT2) * n + 11 - 4 * SQRT2) for n in range(1, 201)
    )
    elapsed = time.perf_counter() - start
    ok = lower_slack <= 5e-3 and upper_excess <= 0.0 and elapsed < 120.0
    check(
        "5 linear-rate sandwich n=1..200",
        ok,
        f"max relative lower slack {lower_slack:.2e} <= 5e-3, "
        f"max upper excess {upper_excess:.2e} <= 0, {elapsed:.1f}s < 120s",
    )


def test_criterion_06_structural_bounds(sol_n3, sol_n10, sol_n50):
    start = time.perf_counter()
    min_threshold = math.inf
    worst_low, worst_high = math.inf, -math.inf
    for sol in (sol_n3, sol_n10, sol_n50):
        n, ys = sol.n, sol.ys
        mask = ys < 1 / 6
        for i in range(1, n - 1):
            min_threshold = min(min_threshold, float(sol.threshold_row(i).min()))
        for i in range(1, n):
            row = sol.value_row(i)
            worst_low = min(
                worst_low, float((row[mask] - np.interp(5 / 6, ys, row)).min())
            )
        for i in range(1, n + 1):
            row = sol.value_row(i)
            worst_high = max(
                worst_high, float((row[mask] - np.interp(1 / 6, ys, row)).max())
            )
    elapsed = time.perf_counter() - start
    ok = (
        min_threshold >= 1 / 6
        and worst_low > 1.0
        and worst_high < 1.0
        and elapsed < 30.0
    )
    check(
        "6 structural bounds n in {3,10,50}",
        ok,
        f"min threshold {min_threshold:.6f} >= 1/6, "
        f"min gap-to-5/6 {worst_low:.4f} > 1, max gap-to-1/6 {worst_high:.4f} < 1",
    )


def test_criterion_07_monte_carlo_vs_dp():
    start = time.perf_counter()
    sol = solve_finite(100, grid_size=2001)
    cfg = SimulationConfig(
        reps=100_000,
        seed=42,
        policy=FiniteOptimalPolicy(sol),
        n=100,
    )
    res = run_fixed_horizon(cfg)
    dp = float(sol.value_table[0, 0])
    gap = abs(res.mean - dp)
    elapsed = time.perf_counter() - start
    ok = gap < 3 * res.std_error and elapsed < 120.0
    check(
        "7 Monte Carlo vs DP oracle",
        ok,
        f"|{res.mean:.4f} - {dp:.4f}| = {gap:.4f} < 3*se = {3*res.std_error:.4f}, "
        f"{elapsed:.1f}s < 120s",
    )


def test_criterion_08_offline_moments():
    start = time.perf_counter()
    res = run_offline(100, reps=100_000, seed=42)
    mean_gap = abs(res.mean - 66.8333)
    var_rel = abs(res.variance - 17.7056) / 17.7056
    elapsed = time.perf_counter() - start
    ok = mean_gap < 0.045 and var_rel < 0.05 and elapsed < 60.0
    check(
        "8 offline moments",
        ok,
        f"mean gap {mean_gap:.4f} < 0.045, variance rel err {var_rel:.4f} < 0.05, "
        f"{elapsed:.1f}s < 60s",
    )


def test_criterion_09_rate_trichotomy():
    start = time.perf_counter()
    n, reps, seed = 10_000, 200, 42
    rates = {}
    for label, xi in (("greedy", 0.0), ("timid", 0.5), ("star", 1 - 1 / SQRT2)):
        cfg = SimulationConfig(
            reps=reps,
            seed=seed,
            policy=FixedThresholdPolicy(xi),
            n=n,
        )
        rates[label] = run_fixed_horizon(cfg).mean / n
    rates["offline"] = run_offline(n, reps=reps, seed=seed).mean / n
    elapsed = time.perf_counter() - start
    ok = (
        abs(rates["greedy"] - 0.5) < 0.01
        and abs(rates["timid"] - 0.5) < 0.01
        and abs(rates["star"] - 0.585786) < 0.01
        and abs(rates["offline"] - 2 / 3) < 0.01
        and elapsed < 120.0
    )
    check(
        "9 rate trichotomy",
        ok,
        f"greedy {rates['greedy']:.4f}~0.5, timid {rates['timid']:.4f}~0.5, "
        f"threshold* {rates['star']:.4f}~0.5858, offline {rates['offline']:.4f}~0.6667, "
        f"{elapsed:.1f}s < 120s",
    )


def test_criterion_10_oracle_equivalence():
    start = time.perf_counter()
    rng = seeded_rng(271828)
    mismatches = 0
    for length in range(1, 13):
        for _ in range(1000):
            xs = rng.random(length).tolist()
            if longest_alternating(xs) != longest_alternating_oracle(xs):
                mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 5.0
    check(
        "10 oracle equivalence",
        ok,
        f"{mismatches} mismatches in 12000 samples, {elapsed:.1f}s < 5s",
    )


def test_criterion_11_suboptimality_witness(sol_n50):
    start = time.perf_counter()
    rho = 0.98
    cfg = SimulationConfig(
        reps=100_000,
        seed=42,
        policy=ConcatenatedPolicy(sol_n50),
        rho=rho,
    )
    res = run_geometric_horizon(cfg)
    upper = value_closed(rho)
    taus, _ = concat_regenerations(
        ConcatenatedPolicy(sol_n50), seeded_rng(161803), 10_000
    )
    mean_tau = float(taus.mean())
    elapsed = time.perf_counter() - start
    ok = (
        res.mean <= upper + 3 * res.std_error
        and mean_tau < 6.0
        and elapsed < 180.0
    )
    check(
        "11 suboptimality witness",
        ok,
        f"mean {res.mean:.4f} <= {upper:.4f} + 3*se = {upper + 3*res.std_error:.4f}, "
        f"E[tau] {mean_tau:.3f} < 6, {elapsed:.1f}s < 180s",
    )


def test_criterion_12_flat_regime_report(capsys):
    grid = solve_flipped(0.5, grid_size=2001, tol=1e-10)
    numeric_ok = abs(grid.values[0] - 1.5) < 5e-3
    code = cli_main(["geometric", "--rho", "0.5", "--json"])
    payload = json.loads(capsys.readouterr().out)
    cands = payload.get("value_candidates", {})
    # JSON output is rounded to 9 significant digits, hence the 1e-7 slack.
    report_ok = (
        code == 0
        and abs(cands.get("flat_form", 0) - value_flat_form(0.5)) < 1e-7
        and abs(cands.get("threshold_form", 0) - value_threshold_form(0.5)) < 1e-7
        and abs(cands.get("flat_form", 0) - 1.5) < 1e-7
        and abs(cands.get("threshold_form", 0) - 1.5147) < 1e-3
    )
    ok = numeric_ok and report_ok
    check(
        "12 flat-regime report",
        ok,
        f"v(0) = {grid.values[0]:.6f} within 5e-3 of 1.5; CLI reports both "
        f"candidates {cands.get('flat_form')} and {cands.get('threshold_form')}",
    )
