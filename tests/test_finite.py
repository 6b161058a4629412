"""Backward induction: exact small cases, structural bounds, cross-checks."""

import math
import sys
import threading

import numpy as np
import pytest

from altseq import (
    ConcatenatedPolicy,
    FiniteOptimalPolicy,
    FiniteSolution,
    SimulationConfig,
    optimal_expected,
    optimal_expected_curve,
    run_fixed_horizon,
    run_geometric_horizon,
    solve_finite,
    solve_finite_two_state,
    threshold_at,
)
from altseq import _bellman
from altseq.finite import _sweep

SQRT2 = math.sqrt(2.0)


def full_solution(n: int, grid_size: int = _bellman.DEFAULT_GRID) -> FiniteSolution:
    """A solution holding every stage's threshold row: the sweep, never stopped."""
    ys = _bellman.uniform_grid(grid_size)
    rows = [f for _, f, _ in _sweep(n, ys)]  # f_k, k observations left
    return FiniteSolution(n=n, ys=ys, threshold_table=np.array(rows[::-1]))


def test_horizon_validation():
    with pytest.raises(ValueError):
        solve_finite(0)
    with pytest.raises(ValueError):
        optimal_expected(-3)


def test_table_budget_is_checked_before_allocating(monkeypatch):
    from altseq import _bellman

    def allocate(*args, **kwargs):
        raise AssertionError("allocated or swept before the budget check")

    monkeypatch.setattr(_bellman, "mapped_zeros", allocate)
    monkeypatch.setattr(_bellman, "apply_two_state", allocate)
    with pytest.raises(ValueError, match="too large"):
        solve_finite(300_000)
    with pytest.raises(ValueError, match="too large"):
        solve_finite(1000, grid_size=20_000)
    with pytest.raises(ValueError, match="too large"):
        solve_finite_two_state(1000, grid_size=20_001)


def test_single_observation_is_exact():
    sol = solve_finite(1, grid_size=101)
    assert np.max(np.abs(sol.value_row(1) - (1 - sol.ys))) < 1e-12
    assert optimal_expected(1, grid_size=101) == pytest.approx(1.0, abs=1e-12)


def test_two_observations_match_quadratic():
    sol = solve_finite(2, grid_size=2001)
    expected = 1.5 * (1 - sol.ys**2)
    assert np.max(np.abs(sol.value_row(1) - expected)) < 1e-9
    assert optimal_expected(2, grid_size=2001) == pytest.approx(1.5, abs=1e-9)


def test_three_observations_match_hand_derivation():
    """Independent oracle exercising the partial-cell crossover branch.

    With w1(u) = 1-u and w2(y) = 1.5*(1-y^2), the stage-1 value for three
    observations is y*w2(y) + int_0^{1-y} max{w2(y), 1 + w2(u)} du. The
    integrand crossover solves 1 + 1.5(1-u^2) = 1.5(1-y^2), i.e.
    u* = sqrt(2/3 + y^2), which lies inside [0, 1-y] exactly when y < 1/6.
    """
    sol = solve_finite(3, grid_size=2001)
    ys = sol.ys
    upper = 1 - ys
    ustar = np.sqrt(2 / 3 + ys**2)
    w2 = 1.5 * (1 - ys**2)
    full = 2.5 * upper - 0.5 * upper**3
    split = 2.5 * ustar - 0.5 * ustar**3 + (upper - ustar) * w2
    exact = ys * w2 + np.where(ys >= 1 / 6, full, split)
    assert np.max(np.abs(sol.value_row(1) - exact)) < 1e-6


def test_terminal_row_is_zero():
    sol = solve_finite(4, grid_size=101)
    assert np.all(sol.value_row(5) == 0.0)


def test_value_rows_non_increasing():
    sol = solve_finite(12, grid_size=501)
    for i in range(1, 13):
        assert np.all(np.diff(sol.value_row(i)) <= 1e-14)


def test_stage_accessors_validate():
    sol = solve_finite(3, grid_size=51)
    with pytest.raises(ValueError):
        sol.value_row(0)
    with pytest.raises(ValueError):
        sol.value_row(5)
    with pytest.raises(ValueError):
        sol.threshold_row(4)


def test_curve_matches_individual_solves_bitwise():
    curve = optimal_expected_curve(20, grid_size=301)
    for n in (1, 2, 3, 7, 20):
        assert curve[n - 1] == optimal_expected(n, grid_size=301)


def test_sandwich_bounds_small_horizons():
    curve = optimal_expected_curve(60, grid_size=1001)
    for n in range(1, 61):
        v = curve[n - 1]
        assert (2 - SQRT2) * n - 5e-3 * n <= v
        assert v <= (2 - SQRT2) * n + 11 - 4 * SQRT2


def test_value_monotone_in_horizon():
    curve = optimal_expected_curve(80, grid_size=501)
    assert np.all(np.diff(curve) >= -1e-12)


def test_grid_convergence():
    """Doubling the grid shrinks the change in optimal_expected(50)."""
    grids = [251, 501, 1001]
    gaps = [
        abs(optimal_expected(50, m) - optimal_expected(50, 2 * m - 1))
        for m in grids
    ]
    assert gaps[0] > gaps[1] > gaps[2]


def test_threshold_at_last_stage_returns_state(sol_n10):
    for y in (0.0, 0.3, 0.77, 1.0):
        assert threshold_at(sol_n10, 10, y) == pytest.approx(y, abs=1e-12)


def test_threshold_at_high_state_returns_state(sol_n10):
    for i in range(1, 11):
        assert threshold_at(sol_n10, i, 0.9) == pytest.approx(0.9, abs=1e-12)


def test_threshold_at_early_stage_floor(sol_n10):
    for i in range(1, 9):  # i <= n - 2
        assert threshold_at(sol_n10, i, 0.0) >= 1 / 6


def test_threshold_at_validates(sol_n3):
    with pytest.raises(ValueError):
        threshold_at(sol_n3, 0, 0.5)
    with pytest.raises(ValueError):
        threshold_at(sol_n3, 4, 0.5)
    with pytest.raises(ValueError):
        threshold_at(sol_n3, 1, 1.5)


def test_threshold_table_matches_threshold_at(sol_n10):
    """Stored curves are the pointwise scan values at the grid points."""
    ys = sol_n10.ys
    for i in (1, 5, 9, 10):
        row = sol_n10.threshold_row(i)
        for k in range(0, ys.size, 397):
            assert row[k] == pytest.approx(
                threshold_at(sol_n10, i, float(ys[k])), abs=1e-12
            )


def test_solved_tables_are_read_only(sol_n3):
    # the fixtures are shared by every test file; rewriting a value in place
    # leaves them as they were wherever the write is not refused
    for array in (sol_n3.ys, sol_n3.value_table, sol_n3.threshold_table):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = array[0]


def test_threshold_rows_dominate_state(sol_n10):
    for i in range(1, 11):
        assert np.all(sol_n10.threshold_row(i) >= sol_n10.ys - 1e-15)


def test_initial_segment_bounds(sol_n3, sol_n10, sol_n50):
    for sol in (sol_n3, sol_n10, sol_n50):
        n, ys = sol.n, sol.ys
        mask = ys < 1 / 6
        for i in range(1, n - 1):
            assert sol.threshold_row(i).min() >= 1 / 6
        for i in range(1, n):
            row = sol.value_row(i)
            assert np.all(row[mask] - np.interp(5 / 6, ys, row) > 1)
        for i in range(1, n + 1):
            row = sol.value_row(i)
            assert np.all(row[mask] - np.interp(1 / 6, ys, row) < 1)


def test_restricted_supermodularity(sol_n10):
    """Value gaps v_i(u) - v_i(1-y) widen as the remaining horizon grows."""
    ys = sol_n10.ys
    for y in np.linspace(0.0, 0.5, 11):
        us = np.linspace(y, 1 - y, 9)
        for i in range(1, sol_n10.n + 1):
            older = sol_n10.value_row(i)
            newer = sol_n10.value_row(i + 1)
            gap_old = np.interp(us, ys, older) - np.interp(1 - y, ys, older)
            gap_new = np.interp(us, ys, newer) - np.interp(1 - y, ys, newer)
            assert np.all(gap_new <= gap_old + 1e-8)


def test_two_state_cross_check():
    """The reflection-free solver agrees with the flipped one for n <= 10."""
    for n in (1, 2, 5, 10):
        sol = solve_finite(n, grid_size=501)
        ys, after_min, after_max = solve_finite_two_state(n, grid_size=501)
        for i in range(1, n + 1):
            flipped = sol.value_row(i)
            assert np.max(np.abs(after_min[i - 1] - flipped)) < 1e-9
            assert np.max(np.abs(after_max[i - 1] - flipped[::-1])) < 1e-9


def test_solution_is_frozen(sol_n3):
    with pytest.raises(AttributeError):
        sol_n3.n = 7


def test_n100_value_in_linear_rate_bracket():
    value = optimal_expected(100, grid_size=2001)
    assert (2 - SQRT2) * 100 <= value <= (2 - SQRT2) * 100 + 11 - 4 * SQRT2


def test_the_sweep_does_not_stop_where_the_greedy_rows_agree():
    # f_1 = f_2 = y exactly: with one or two observations left the rule is
    # greedy, so a sweep that stopped at the first agreeing pair would keep
    # the greedy row for every earlier stage
    sol = solve_finite(60)
    full = full_solution(60)
    assert np.array_equal(full.threshold_row(60), full.threshold_row(59))
    assert sol.threshold_table.shape == (60, sol.ys.size)
    assert np.array_equal(sol.threshold_table, full.threshold_table)


@pytest.mark.parametrize("grid_size", [11, 101, 2001])
def test_truncated_rows_stay_within_the_stop_tolerance_of_the_full_sweep(grid_size):
    # every stage past the last row kept shares that row; measured, no later
    # row up to k = 3000 drifts from it by more than 4e-12
    n = 2000
    sol = solve_finite(n, grid_size)
    kept = len(sol.threshold_table)
    assert 70 <= kept <= 100
    for k, (_, f, _) in enumerate(_sweep(n, sol.ys), start=1):
        row = sol.threshold_row(n - k + 1)
        if k <= kept:
            assert np.array_equal(row, f), k
        else:
            assert np.max(np.abs(row - f)) <= 1e-11, k
    # a horizon between the rows kept and n maps its stages the same way
    short = solve_finite(kept + 5, grid_size)
    for i in (1, 5, 6, 7, kept + 5):
        same_k = n - kept - 5 + i
        assert np.array_equal(short.threshold_row(i), sol.threshold_row(same_k))


@pytest.fixture(scope="module")
def truncated_and_full():
    """(truncated, full) solutions at n = 1000 and at n = 150, both past the stop."""
    pairs = {n: (solve_finite(n), full_solution(n)) for n in (1000, 150)}
    assert all(len(sol.threshold_table) < n for n, (sol, _) in pairs.items())
    return pairs


@pytest.mark.parametrize("seed", [0, 1, 2, 42, 2**64 - 1])
def test_truncated_policies_count_as_the_full_tables_do(truncated_and_full, seed):
    runs = [
        run_fixed_horizon(
            SimulationConfig(
                reps=100, seed=seed, policy=FiniteOptimalPolicy(sol), n=1000
            )
        )
        for sol in truncated_and_full[1000]
    ]
    assert np.array_equal(runs[0].per_rep_counts, runs[1].per_rep_counts)
    runs = [
        run_geometric_horizon(
            SimulationConfig(
                reps=200, seed=seed, policy=ConcatenatedPolicy(sol), rho=0.995
            )
        )
        for sol in truncated_and_full[150]
    ]
    assert np.array_equal(runs[0].per_rep_counts, runs[1].per_rep_counts)


def test_the_value_table_is_built_on_first_read_from_the_full_sweep():
    n = 300
    sol = solve_finite(n, grid_size=101)
    assert "value_table" not in vars(sol)
    table = sol.value_table
    assert sol.value_table is table
    assert table.shape == (n + 1, 101)
    # n = 300 is past 2K = 144, where optimal_expected extrapolates; the
    # curve stays the full sweep
    assert table[0, 0] == optimal_expected_curve(n, grid_size=101)[-1]
    assert abs(table[0, 0] - optimal_expected(n, grid_size=101)) <= 1e-9
    assert np.all(table[n] == 0.0)


def test_threads_reading_a_new_value_table_see_one_result():
    # the table is built on first read; threads that race to read it may each
    # build one, and must all get the same read-only values
    sol = solve_finite(40, grid_size=101)
    tables = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=lambda: tables.append(sol.value_table))
            for _ in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(tables) == 8
    for table in tables:
        assert np.array_equal(table, tables[0])
        assert not table.flags.writeable


def test_the_additive_constant_of_the_optimal_value():
    # c_n = v_n - (2 - sqrt 2) n is O(h^2) in the grid step h; Richardson
    # extrapolation from grids 2001 and 4001 settles at 0.2612217 from n = 30 on
    c = {
        m: optimal_expected_curve(1000, grid_size=m) - (2 - SQRT2) * np.arange(1, 1001)
        for m in (2001, 4001)
    }
    for n in (100, 1000):
        extrapolated = c[4001][n - 1] + (c[4001][n - 1] - c[2001][n - 1]) / 3
        assert abs(extrapolated - 0.2612217) < 1e-6, n


@pytest.fixture(scope="module")
def full_curves():
    """{grid: (K, the full sweep's v_n for n = 1..9000)}."""
    return {
        m: (len(solve_finite(1000, m).threshold_table), optimal_expected_curve(9000, m))
        for m in (101, 2001, 4001)
    }


@pytest.mark.parametrize("grid_size", [101, 2001, 4001])
def test_priced_horizons_match_the_full_sweep(full_curves, grid_size):
    # past 2K the value is extrapolated from v_K and v_2K; the gap to the full
    # sweep grows with n as that sweep's own rounding drift does
    k, curve = full_curves[grid_size]
    assert k == 72
    for n in (2 * k - 1, 2 * k, 2 * k + 1, 300, 1000, 5000, 9000):
        value, swept = optimal_expected(n, grid_size), curve[n - 1]
        if n <= 2 * k:
            assert value == swept, n
        assert abs(value - swept) <= (1e-9 if n <= 1000 else 2e-12 * n), n


def test_priced_horizons_keep_the_full_sweep_bits_where_no_row_settles():
    # grid 3's rows do not settle before n, so nothing is extrapolated
    n = 500
    sol = solve_finite(n, grid_size=3)
    assert len(sol.threshold_table) == n
    assert optimal_expected(n, grid_size=3) == optimal_expected_curve(n, grid_size=3)[-1]


def test_pricing_any_horizon_takes_at_most_2k_sweeps(monkeypatch):
    k = len(solve_finite(1000, 2001).threshold_table)  # n = 10^9 is over budget
    calls = 0
    apply_flipped = _bellman.apply_flipped

    def counted(*args):
        nonlocal calls
        calls += 1
        assert calls <= 2 * k, "swept past 2K"  # fail now, not after 10^9 sweeps
        return apply_flipped(*args)

    monkeypatch.setattr(_bellman, "apply_flipped", counted)
    assert math.isfinite(optimal_expected(10**9, 2001))
    assert calls <= 2 * k


@pytest.mark.parametrize("grid_size", [3, 4])
def test_priced_grids_that_never_settle_keep_every_row_of_the_sweep(grid_size):
    # no row settles, so all n rows are kept: n = 300 is past K on every grid
    # that settles (at most 125, on grid 7)
    n = 300
    full = full_solution(n, grid_size)
    table = solve_finite(n, grid_size).threshold_table
    assert table.shape == full.threshold_table.shape == (n, grid_size)
    assert np.array_equal(table, full.threshold_table)


@pytest.mark.parametrize("grid_size, k", [(5, 79), (11, 98), (101, 72), (2001, 72)])
def test_pricing_stops_where_solve_finite_stops(monkeypatch, grid_size, k):
    # the K that sizes the policies' table is the K that prices n > 2K
    assert len(solve_finite(1000, grid_size).threshold_table) == k
    calls = 0
    apply_flipped = _bellman.apply_flipped

    def counted(*args):
        nonlocal calls
        calls += 1
        return apply_flipped(*args)

    monkeypatch.setattr(_bellman, "apply_flipped", counted)
    optimal_expected(1000, grid_size)
    assert calls == 2 * k
