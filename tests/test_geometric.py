"""Geometric-horizon solvers against the closed forms and each other."""

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from altseq import (
    closed_form_diagnostics,
    fixed_threshold_value,
    solve_flipped,
    solve_two_state,
    value_closed,
    value_flat_form,
    value_slope_interior,
    value_threshold_form,
    xi0_closed,
)
from altseq import _bellman
from conftest import seeded_rng

SQRT2 = math.sqrt(2.0)


def test_xi0_closed_values():
    assert xi0_closed(0.9) == pytest.approx(0.246870, abs=1e-6)
    # direct evaluation: 1/sqrt(2) - 0.41421356.../0.99 = 0.2887092...
    assert xi0_closed(0.99) == pytest.approx(0.288709, abs=1e-6)


def test_flat_regime_boundary():
    from altseq.geometric import FLAT_REGIME_RHO

    assert FLAT_REGIME_RHO == pytest.approx(2 - SQRT2, rel=1e-15)
    assert xi0_closed(FLAT_REGIME_RHO - 1e-6) == 0.0
    assert xi0_closed(FLAT_REGIME_RHO + 1e-6) > 0.0
    # raw formula is about -0.121 at rho=0.5; the clamp takes over
    assert xi0_closed(0.5) == 0.0
    # approaching rho=1 the threshold tends to 1 - 1/sqrt(2)
    assert xi0_closed(1 - 1e-9) == pytest.approx(1 - 1 / SQRT2, abs=1e-8)


def test_value_closed_values():
    assert value_closed(0.9) == pytest.approx(6.048500, abs=1e-6)
    assert value_closed(0.5) == pytest.approx(1.5, abs=1e-12)
    # (1 - rho) * value tends to 2 - sqrt(2) as rho tends to 1
    rho = 1 - 1e-7
    assert (1 - rho) * value_closed(rho) == pytest.approx(2 - SQRT2, abs=1e-5)


def test_value_closed_is_fixed_threshold_value_at_xi0():
    for rho in (0.65, 0.7, 0.8, 0.9, 0.95, 0.99):
        assert value_closed(rho) == pytest.approx(
            fixed_threshold_value(rho, xi0_closed(rho)), rel=1e-12
        )
    # in the clamped regime the value is the zero-threshold policy value
    for rho in (0.2, 0.5, 0.58):
        assert value_closed(rho) == pytest.approx(
            fixed_threshold_value(rho, 0.0), rel=1e-12
        )


def test_value_candidates_differ_below_flat_regime():
    assert value_threshold_form(0.5) == pytest.approx(1.514719, abs=1e-6)
    assert value_flat_form(0.5) == pytest.approx(1.5, abs=1e-12)


def test_rho_validation():
    for bad in (0.0, 1.0, -0.3, 1.7):
        with pytest.raises(ValueError):
            xi0_closed(bad)
        with pytest.raises(ValueError):
            solve_flipped(bad, grid_size=11)


def test_solve_flipped_matches_closed_forms():
    grid = solve_flipped(0.9, grid_size=2001, tol=1e-10)
    assert grid.values[0] == pytest.approx(6.048500, abs=1e-3)
    assert grid.values[-1] == 0.0
    assert grid.xi_estimate == pytest.approx(xi0_closed(0.9), abs=2 / 2001)


def test_solve_flipped_flat_regime():
    grid = solve_flipped(0.5, grid_size=2001, tol=1e-10)
    assert grid.values[0] == pytest.approx(1.5, abs=1e-3)
    assert grid.xi_estimate == 0.0
    # independent coarse/fine agreement backs the value
    coarse = solve_flipped(0.5, grid_size=251, tol=1e-10)
    assert abs(coarse.values[0] - grid.values[0]) < 1e-3


def test_solve_flipped_monotone_and_flat_segment():
    grid = solve_flipped(0.9, grid_size=1001, tol=1e-10)
    assert np.all(np.diff(grid.values) <= 1e-12)  # rounding-level slack
    flat = grid.values[grid.ys <= grid.xi_estimate]
    assert flat.max() - flat.min() < 10 * 1e-10


def test_contraction_decay():
    """Sup-norm updates decay by at least the discount factor after warmup."""
    rho = 0.85
    ys = _bellman.uniform_grid(501)
    v = np.zeros(501)
    norms = []
    for _ in range(60):
        v_next, _ = _bellman.apply_flipped(v, ys, rho)
        norms.append(np.max(np.abs(v_next - v)))
        v = v_next
    for a, b in zip(norms[2:], norms[3:]):
        assert b <= rho * a + 1e-12
        assert b <= a  # monotone decay


def test_two_state_reflection_identity():
    sol = solve_two_state(0.9, grid_size=1001, tol=1e-10)
    gap = np.max(np.abs(sol.v_after_min - sol.v_after_max[::-1]))
    assert gap < 10 * 1e-10  # 10*tol at convergence
    # v(1,1) is the fresh-start optimal value
    assert sol.v_after_max[-1] == pytest.approx(value_closed(0.9), abs=1e-3)
    # from s=1 with a pending maximum nothing is ever selectable
    assert abs(sol.v_after_min[-1]) < 1e-12


def test_two_state_agrees_with_flipped():
    two = solve_two_state(0.8, grid_size=801, tol=1e-10)
    one = solve_flipped(0.8, grid_size=801, tol=1e-10)
    assert np.max(np.abs(two.v_after_min - one.values)) < 1e-7
    assert two.error_bound == pytest.approx(4.0 * two.residual, rel=1e-12)


def test_extract_threshold_examples():
    for rho, expected in [(0.9, 0.246870), (0.99, 0.288707)]:
        grid = solve_flipped(rho, grid_size=2001, tol=1e-10)
        assert grid.xi_estimate == pytest.approx(expected, abs=2 / 2001)
    grid = solve_flipped(0.5, grid_size=2001, tol=1e-10)
    assert grid.xi_estimate == 0.0


def test_closed_form_agreement_across_rhos():
    for rho in (0.7, 0.8, 0.9, 0.95):
        grid = solve_flipped(rho, grid_size=2001, tol=1e-10)
        assert abs(grid.values[0] - value_closed(rho)) < 5e-3
        assert abs(grid.xi_estimate - xi0_closed(rho)) < 2 / 2001


def test_diagnostics_residuals_vanish():
    rng = seeded_rng(11)
    for _ in range(50):
        rho = 0.6 + 0.39 * rng.random()
        xi = 0.5 * rng.random()
        diag = closed_form_diagnostics(rho, xi)
        assert np.max(np.abs(diag.residuals)) < 1e-12


def test_diagnostics_slope_zero_at_optimum():
    rho = 0.9
    diag = closed_form_diagnostics(rho, xi0_closed(rho))
    assert abs(diag.slope_at_xi) < 1e-12
    # the optimality characterization: 2*(1 - rho*xi0)^2 = (2 - rho)^2
    xi0 = xi0_closed(rho)
    assert 2 * (1 - rho * xi0) ** 2 == pytest.approx((2 - rho) ** 2, rel=1e-12)


def test_diagnostics_hold_at_non_optimal_xi():
    diag = closed_form_diagnostics(0.7, 0.1)
    assert np.max(np.abs(diag.residuals)) < 1e-12
    assert diag.slope_at_xi != 0.0


def test_diagnostics_match_numeric_value_function():
    """Closed forms agree with a direct fixed point of the policy equation."""
    rho, xi = 0.9, 0.3
    ys = _bellman.uniform_grid(4001)
    step = ys[1] - ys[0]
    thr = np.maximum(xi, ys)
    V = np.zeros(ys.size)
    for _ in range(400):
        g = 1.0 + rho * V
        G = _bellman.cumulative_integral(g, step)
        V = _bellman.integral_to(G, g, ys, step, 1.0 - thr) / (1.0 - rho * thr)
    diag = closed_form_diagnostics(rho, xi)
    assert np.interp(xi, ys, V) == pytest.approx(diag.value_at_xi, abs=1e-6)
    assert np.interp(1 - xi, ys, V) == pytest.approx(diag.value_at_reflection, abs=1e-6)


def test_solved_grid_derivative_matches_interior_slope():
    rho = 0.9
    grid = solve_flipped(rho, grid_size=2001, tol=1e-10)
    xi0 = xi0_closed(rho)
    ys, v = grid.ys, grid.values
    inner = (ys > xi0 + 0.05) & (ys < 1 - xi0 - 0.05)
    idx = np.nonzero(inner)[0]
    h = ys[1] - ys[0]
    fd = (v[idx + 1] - v[idx - 1]) / (2 * h)
    closed = value_slope_interior(rho, ys[idx])
    assert np.max(np.abs(fd - closed)) < 5e-2


def test_convergence_failure_raises(monkeypatch):
    import altseq.geometric as geo

    # sanity on the cap formula, then force a failure through a tiny cap
    assert geo._iteration_cap(0.9, 1e-10) > 200
    monkeypatch.setattr(geo, "_iteration_cap", lambda rho, tol: 3)
    with pytest.raises(geo.ConvergenceError):
        solve_flipped(0.9, grid_size=101, tol=1e-10)


@pytest.mark.parametrize("rho", [0.5, 0.99, 0.9999])
def test_tol_at_the_rounding_floor_converges(rho):
    floor = 4 * np.finfo(float).eps / (1 - rho)
    assert solve_flipped(rho, tol=floor).residual < floor
    with pytest.raises(ValueError, match="4\\*eps"):
        solve_flipped(rho, tol=floor / 2)


def _value_iteration(rho, grid_size, tol):
    """Plain value iteration from zero: the reference the accelerated solve must match."""
    ys = _bellman.uniform_grid(grid_size)
    v = np.zeros(grid_size)
    while True:
        v_next, _ = _bellman.apply_flipped(v, ys, rho)
        residual = np.max(np.abs(v_next - v))
        v = v_next
        if residual < tol:
            return v


@pytest.mark.parametrize("rho", [0.5, 0.75, 0.9, 0.99])
def test_accelerated_solve_agrees_with_value_iteration(rho):
    tol = 1e-10
    grid = solve_flipped(rho, grid_size=2001, tol=tol)
    reference = _value_iteration(rho, 2001, tol)
    # each result is within its own a-posteriori bound of the fixed point
    bound = rho / (1 - rho) * tol + grid.error_bound
    assert grid.error_bound == pytest.approx(rho / (1 - rho) * grid.residual, rel=1e-12)
    assert np.max(np.abs(grid.values - reference)) <= bound + 1e-12 * reference[0]
    assert grid.iterations < 30


def test_rho_near_one_is_fast_and_matches_closed_forms():
    rho = 0.9999
    start = time.perf_counter()
    grid = solve_flipped(rho)
    assert time.perf_counter() - start < 1.0
    assert grid.residual < 1e-10
    # acceptance-gate tolerances
    assert abs(grid.values[0] - value_closed(rho)) < 5e-3
    assert abs(grid.xi_estimate - xi0_closed(rho)) < 2 / 2001


@pytest.mark.parametrize("fault", [np.nan, 1e6])
def test_fixed_point_recovers_from_a_step_gone_astray(fault):
    import altseq.geometric as geo

    rho, grid_size, tol = 0.99, 501, 1e-10
    ys = _bellman.uniform_grid(grid_size)
    calls = []

    def apply(v):
        calls.append(1)
        out, f = _bellman.apply_flipped(v, ys, rho)
        return (out + fault if len(calls) == 6 else out), 1.0 - rho * f

    values, residual, iterations = geo._fixed_point(
        apply,
        np.zeros(grid_size),
        rho,
        tol,
        project=geo._nonnegative_non_increasing,
    )
    assert iterations == len(calls) > 6
    assert residual < tol
    reference = _value_iteration(rho, grid_size, tol)
    bound = 2 * rho / (1 - rho) * tol
    assert np.max(np.abs(values - reference)) <= bound + 1e-12 * reference[0]


@settings(max_examples=200, deadline=None)
@given(
    rho=st.floats(min_value=0.0, max_value=0.9999, exclude_min=True),
    grid_size=st.integers(min_value=11, max_value=401),
)
def test_solve_flipped_properties(rho, grid_size):
    import altseq.geometric as geo

    tol = 1e-10
    grid = solve_flipped(rho, grid_size=grid_size, tol=tol)
    assert np.all(np.diff(grid.values) <= 1e-12 * (1.0 + grid.values[0]))
    assert grid.values[-1] == 0.0
    assert grid.residual < tol
    assert 1 <= grid.iterations <= geo._iteration_cap(rho, tol)
