"""Geometric (discounted) horizon: solvers and closed forms.

A sample of geometric size N, P(N=k) = rho^(k-1)(1-rho), is equivalent to an
infinite horizon discounted at rho. The single-variable value function v(y)
solves

    v(y) = rho*y*v(y) + int_y^1 max{rho*v(y), 1 + rho*v(1-x)} dx,

is non-increasing with v(1) = 0, is constant on an initial segment [0, xi0],
and the optimal acceptance rule is the threshold max{xi0, y}. Everything
here is deterministic; solved grids are immutable and safe to share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import _bellman
from ._bellman import DEFAULT_GRID, DEFAULT_TOL, SQRT2

#: rho below which the raw threshold formula goes negative and is clamped to 0.
FLAT_REGIME_RHO = 2.0 - SQRT2

#: Earlier steps each Anderson step combines (Walker & Ni, SIAM J. Numer.
#: Anal. 49(4), 2011).
ANDERSON_DEPTH = 3
#: A step whose residual exceeds the best one so far by this factor has gone
#: astray. Accelerated flipped solves on grids of 11 to 2001 points, rho up
#: to 0.9999, stay within 1.4 times their best residual.
ASTRAY_FACTOR = 10.0


class ConvergenceError(RuntimeError):
    """Fixed-point iteration failed to reach tolerance within its cap."""


def check_rho(rho: float) -> float:
    if not 0.0 < rho < 1.0:
        raise ValueError(f"discount factor must satisfy 0 < rho < 1, got {rho}")
    return float(rho)


@dataclass(frozen=True)
class ValueFunctionGrid:
    """Solved single-variable value function on a uniform grid.

    values is non-increasing with values[-1] = 0 and is flat (within solver
    tolerance) on [0, xi_estimate]. values = T(v) for the solver's last
    iterate v, residual = sup|T(v) - v| and iterations is the number of
    operator applications. error_bound = rho/(1-rho) * residual bounds the
    sup-norm distance from values to the exact fixed point on the grid.
    """

    grid_size: int
    ys: np.ndarray
    values: np.ndarray
    xi_estimate: float
    residual: float
    iterations: int
    error_bound: float


@dataclass(frozen=True)
class TwoStateSolution:
    """Solved pair of value surfaces in original (last value, parity) coordinates.

    residual, iterations and error_bound are as in ValueFunctionGrid, over
    both surfaces.
    """

    grid_size: int
    ys: np.ndarray
    v_after_min: np.ndarray
    v_after_max: np.ndarray
    residual: float
    iterations: int
    error_bound: float


def _iteration_cap(rho: float, tol: float) -> int:
    # Plain value iteration from the zero function reaches tol within this
    # many sweeps (contraction factor rho, fixed point of sup-norm at most
    # 1/(1-rho)); the accelerated solve is held to the same budget.
    v_max = 1.0 / (1.0 - rho)
    return max(0, math.ceil(math.log(tol / v_max) / math.log(rho))) + 50


def _fixed_point(
    apply: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray | float]],
    x: np.ndarray,
    rho: float,
    tol: float,
    project: Optional[Callable[[np.ndarray], np.ndarray]] = None,
) -> tuple[np.ndarray, float, int]:
    """Solve x = T(x) for a rho-contraction T, starting from x.

    Every iteration makes exactly one call apply(x) = (T(x), d(x)), where
    d > 0 is a diagonal preconditioner (1.0 for none). It steps along
    g = (T(x) - x) / d(x), which is zero exactly at the fixed point, mixed
    with the last ANDERSON_DEPTH steps by least squares (Anderson
    acceleration). project, if given, maps each new iterate into a set
    known to hold the fixed point. A mixed step whose residual exceeds
    ASTRAY_FACTOR times the best one, or is not a number, sends the
    iteration back to the best iterate; from there it takes plain steps
    x + g until the residual improves on the best, then mixes again. The
    run stops with ConvergenceError after _iteration_cap iterations.

    Returns (T(x), sup|T(x) - x|, iterations) for the first iterate x whose
    residual is below tol; T(x) then lies within rho/(1-rho) * residual of
    the fixed point. A tol below 4*eps/(1-rho) raises ValueError: values
    reach 1/(1-rho), so rounding alone keeps the residual near eps/(1-rho)
    and such a run would only end at the cap.
    """
    floor = 4.0 * np.finfo(float).eps / (1.0 - rho)
    if not (math.isfinite(tol) and tol >= floor):
        raise ValueError(
            f"tol must be finite and at least 4*eps/(1-rho) = {floor:.3g} "
            f"at rho={rho}, got {tol}"
        )
    cap = _iteration_cap(rho, tol)
    best_residual, best_x, best_g = math.inf, x, None
    xs: list[np.ndarray] = []
    gs: list[np.ndarray] = []
    mixing = True
    for iteration in range(1, cap + 1):
        tx, d = apply(x)
        diff = tx - x
        residual = float(np.max(np.abs(diff)))
        if residual < tol:
            return tx, residual, iteration
        g = diff / d
        if residual < best_residual:
            best_residual, best_x, best_g = residual, x, g
            mixing = True
        elif mixing and not residual <= ASTRAY_FACTOR * best_residual:
            x, g = best_x, best_g
            xs, gs = [], []
            mixing = False
        xs.append(x)
        gs.append(g)
        del xs[: -ANDERSON_DEPTH - 1], gs[: -ANDERSON_DEPTH - 1]
        if mixing and len(xs) > 1:
            dx = np.diff(xs, axis=0).T
            dg = np.diff(gs, axis=0).T
            gamma = np.linalg.lstsq(dg, g, rcond=None)[0]
            x = x + g - (dx + dg) @ gamma
        else:
            x = x + g
        if project is not None:
            x = project(x)
    raise ConvergenceError(
        f"fixed-point solve at rho={rho} did not reach tol={tol} in {cap} iterations"
    )


def _nonnegative_non_increasing(v: np.ndarray) -> np.ndarray:
    # The flipped value function lies in this set, and the operator's
    # crossover search assumes a non-increasing argument; off this set
    # accelerated iterates stall on coarse grids as rho -> 1.
    return np.minimum.accumulate(np.maximum(v, 0.0))


def solve_flipped(
    rho: float, grid_size: int = DEFAULT_GRID, tol: float = DEFAULT_TOL
) -> ValueFunctionGrid:
    """Solve the single-variable equation from the zero function.

    The steps are preconditioned by the self-loop: a state y stays y, with
    weight rho*f(y), whenever the observation falls below the acceptance
    threshold f(y), which apply_flipped returns with T(v). Dividing the
    residual by 1 - rho*f(y) (a Jacobi splitting; Puterman 1994, section
    6.3.3) removes that term, whose part of the spectrum piles up near rho
    as y -> 1, and leaves an operator that Anderson acceleration solves in
    about twenty applications for any rho up to 0.9999.
    """
    rho = check_rho(rho)
    ys = _bellman.uniform_grid(grid_size)

    def apply(v):
        tv, f = _bellman.apply_flipped(v, ys, rho)
        return tv, 1.0 - rho * f

    values, residual, iterations = _fixed_point(
        apply, np.zeros(grid_size), rho, tol, project=_nonnegative_non_increasing
    )
    return ValueFunctionGrid(
        grid_size=grid_size,
        ys=ys,
        values=values,
        xi_estimate=_threshold_from_values(values, ys, rho),
        residual=residual,
        iterations=iterations,
        error_bound=rho / (1.0 - rho) * residual,
    )


def solve_two_state(
    rho: float, grid_size: int = DEFAULT_GRID, tol: float = DEFAULT_TOL
) -> TwoStateSolution:
    """Solve the original two-line equation from the zero functions."""
    rho = check_rho(rho)
    ys = _bellman.uniform_grid(grid_size)

    def apply(v):
        pair = _bellman.apply_two_state(v[:grid_size], v[grid_size:], ys, rho)
        return np.concatenate(pair), 1.0

    values, residual, iterations = _fixed_point(
        apply, np.zeros(2 * grid_size), rho, tol
    )
    return TwoStateSolution(
        grid_size=grid_size,
        ys=ys,
        v_after_min=values[:grid_size],
        v_after_max=values[grid_size:],
        residual=residual,
        iterations=iterations,
        error_bound=rho / (1.0 - rho) * residual,
    )


def _threshold_from_values(values: np.ndarray, ys: np.ndarray, rho: float) -> float:
    # Smallest root of Delta(y) = 1 + rho*v(1-y) - rho*v(y) on [0, 1/2]: a
    # grid scan plus linear interpolation inside the straddling cell. If Delta
    # is positive on all of [0, 1/2] the acceptance condition already holds
    # at x = y for every state and the threshold is 0.
    # 1 - ys[k] is itself a grid point, so no interpolation is needed here.
    delta = 1.0 + rho * values[::-1] - rho * values
    # Delta(1/2) = 1 exactly, so scanning one point past 1/2 guarantees the
    # straddling cell is present even when 1/2 is not a grid point.
    half = min(int(np.searchsorted(ys, 0.5, side="right")) + 1, ys.size)
    d = delta[:half]
    if d[0] >= 0.0:
        return 0.0
    nonneg = np.nonzero(d >= 0.0)[0]
    if nonneg.size == 0:
        return 0.0
    k = int(nonneg[0])
    y0, y1 = ys[k - 1], ys[k]
    d0, d1 = d[k - 1], d[k]
    return float(min(y0 + (y1 - y0) * (-d0) / (d1 - d0), 0.5))


def xi0_closed(rho: float) -> float:
    """Optimal threshold 1/sqrt(2) + (1 - sqrt(2))/rho, clamped at 0.

    The raw expression is negative for rho < 2 - sqrt(2); there the
    threshold-free rule is optimal and the threshold is 0.
    """
    rho = check_rho(rho)
    return max(0.0, 1.0 / SQRT2 + (1.0 - SQRT2) / rho)


def value_threshold_form(rho: float) -> float:
    """Candidate optimal value (3 - 2*sqrt(2) - rho + rho*sqrt(2)) / (rho*(1-rho))."""
    rho = check_rho(rho)
    return (3.0 - 2.0 * SQRT2 - rho + rho * SQRT2) / (rho * (1.0 - rho))


def value_flat_form(rho: float) -> float:
    """Candidate optimal value (2 - rho) / (2*(1 - rho)), the zero-threshold policy."""
    rho = check_rho(rho)
    return (2.0 - rho) / (2.0 * (1.0 - rho))


def value_closed(rho: float) -> float:
    """Expected selections under the optimal policy, geometric horizon.

    Uses the threshold-form expression when the optimal threshold is
    positive, and the zero-threshold policy value otherwise; below
    rho = 2 - sqrt(2) the two candidates differ and the numeric solve
    backs the flat form (see value_threshold_form / value_flat_form for both).
    """
    if xi0_closed(rho) > 0.0:
        return value_threshold_form(rho)
    return value_flat_form(rho)


def fixed_threshold_value(rho: float, xi: float) -> float:
    """Expected selections of the fixed-threshold-xi policy from a fresh start.

    This is the plateau value: the value function of the max{xi, y} rule is
    constant on [0, xi], so the fresh-start value equals its value at xi.
    """
    rho = check_rho(rho)
    return (2.0 - 2.0 * xi - rho + 2.0 * rho * xi - 2.0 * rho * xi * xi) / (
        2.0 * (1.0 - rho) * (1.0 - rho * xi)
    )


def _reflected_value(rho: float, xi: float) -> float:
    # Value of the fixed-threshold policy started at the worst state 1 - xi;
    # the unique solution of the four-condition system jointly with the
    # other three closed forms, cross-checked against a direct numerical
    # fixed point of the policy-value equation.
    num = xi * (
        2.0 - 4.0 * rho * xi - rho**2 + 4.0 * rho**2 * xi - 2.0 * rho**2 * xi**2
    )
    den = 2.0 * (1.0 - rho) * (1.0 - rho * xi) * (1.0 - rho + rho * xi)
    return num / den


def _slope_at_xi(rho: float, xi: float) -> float:
    # Right derivative of the fixed-threshold value at xi.
    num = -2.0 + 4.0 * rho - 4.0 * rho * xi - rho**2 + 2.0 * rho**2 * xi**2
    den = 2.0 * (1.0 - rho * xi) ** 2 * (1.0 - rho + rho * xi)
    return num / den


def _slope_at_reflection(rho: float, xi: float) -> float:
    # Left derivative of the fixed-threshold value at 1 - xi.
    num = -2.0 + 4.0 * rho * xi + rho**2 - 4.0 * rho**2 * xi + 2.0 * rho**2 * xi**2
    den = 2.0 * (1.0 - rho * xi) * (1.0 - rho + rho * xi) ** 2
    return num / den


def value_slope_interior(rho: float, y) -> np.ndarray:
    """Derivative of the fixed-threshold value on (xi, 1-xi).

    The threshold parameter cancels, so a single expression covers every
    fixed-threshold policy on the interior of its non-flat range:
    (2*(1 - rho*y)^2 - (2 - rho)^2) / (2*(1 - rho + rho*y)*(1 - rho*y)^2).
    """
    rho = check_rho(rho)
    y = np.asarray(y, dtype=float)
    num = 2.0 * (1.0 - rho * y) ** 2 - (2.0 - rho) ** 2
    den = 2.0 * (1.0 - rho + rho * y) * (1.0 - rho * y) ** 2
    return num / den


@dataclass(frozen=True)
class ClosedFormDiagnostics:
    """The four closed forms at xi and 1-xi and the residuals of their conditions.

    The four conditions tie together V(xi), V(1-xi), V'(xi) and V'(1-xi) of
    the fixed-threshold value function; the closed forms satisfy them
    identically in (rho, xi), so every residual should be at rounding level
    for any xi in [0, 1/2], optimal or not.
    """

    rho: float
    xi: float
    value_at_xi: float
    value_at_reflection: float
    slope_at_xi: float
    slope_at_reflection: float
    residuals: np.ndarray


def closed_form_diagnostics(rho: float, xi: float) -> ClosedFormDiagnostics:
    """Evaluate the four closed forms and the residuals of their conditions."""
    rho = check_rho(rho)
    if not 0.0 <= xi <= 0.5:
        raise ValueError(f"xi must lie in [0, 1/2], got {xi}")
    a = fixed_threshold_value(rho, xi)      # V(xi)
    b = _reflected_value(rho, xi)           # V(1-xi)
    c = _slope_at_xi(rho, xi)               # V'(xi)
    d = _slope_at_reflection(rho, xi)       # V'(1-xi)
    p = 1.0 - rho * xi
    q = 1.0 - rho + rho * xi
    residuals = np.array(
        [
            b * q - (xi + rho * xi * a),
            c * p - (rho * (a - b) - 1.0),
            d * q - (rho * (b - a) - 1.0),
            d * q * q * p - (c * p * p * q + q * q - p * p),
        ]
    )
    return ClosedFormDiagnostics(
        rho=rho,
        xi=xi,
        value_at_xi=a,
        value_at_reflection=b,
        slope_at_xi=c,
        slope_at_reflection=d,
        residuals=residuals,
    )
