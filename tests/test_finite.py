"""Backward induction: exact small cases, structural bounds, cross-checks."""

import math

import numpy as np
import pytest

from altseq import (
    FiniteSolution,
    optimal_expected,
    optimal_expected_curve,
    solve_finite,
    solve_finite_two_state,
    threshold_at,
)

SQRT2 = math.sqrt(2.0)


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
