"""Exact Bellman-operator quadrature on a uniform grid.

All operators treat the stored vector as a piecewise-linear interpolant and
integrate it exactly: cumulative trapezoid sums at the nodes, a quadratic
in-cell correction for partial cells, and the max{constant, linear} crossover
located by linear interpolation inside the straddling cell. This keeps every
operator a monotone contraction on the discretized space and avoids
quadrature noise near the kink.
"""

from __future__ import annotations

import math
import mmap

import numpy as np

# Defaults and constants shared by the solvers and the command line.
DEFAULT_GRID = 2001
DEFAULT_TOL = 1e-10
SQRT2 = math.sqrt(2.0)


#: Map arrays prefaulted where the platform can: one call, not a fault per page.
_PREFAULT = (
    {"flags": mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS | mmap.MAP_POPULATE}
    if hasattr(mmap, "MAP_POPULATE")
    else {}
)


def mapped_zeros(shape: int | tuple[int, ...]) -> np.ndarray:
    """Float64 zeros in an anonymous mapping of their own, unmapped when freed.

    For the large tables and chunks: a block this size from malloc stays
    resident after it is freed whenever a small block has landed above it in
    the C heap, so peak RSS followed the timing of unrelated allocations.
    """
    count = int(np.prod(shape))
    buf = mmap.mmap(-1, max(count, 1) * 8, **_PREFAULT)
    return np.frombuffer(buf, np.float64, count).reshape(shape)


def uniform_grid(grid_size: int) -> np.ndarray:
    if grid_size < 3:
        raise ValueError(f"grid_size must be >= 3, got {grid_size}")
    return np.linspace(0.0, 1.0, grid_size)


def cumulative_integral(g: np.ndarray, step: float) -> np.ndarray:
    """G[k] = integral of the piecewise-linear g from 0 to node k (exact)."""
    out = np.empty_like(g)
    out[0] = 0.0
    np.cumsum((g[1:] + g[:-1]) * (0.5 * step), out=out[1:])
    return out


def integral_to(
    G: np.ndarray, g: np.ndarray, ys: np.ndarray, step: float, m: np.ndarray
) -> np.ndarray:
    """Integral of piecewise-linear g from 0 to arbitrary points m in [0,1]."""
    j = np.minimum((m / step).astype(np.int64), g.size - 2)
    j = np.maximum(j, 0)
    dm = m - ys[j]
    slope = (g[j + 1] - g[j]) / step
    return G[j] + dm * g[j] + 0.5 * dm * dm * slope


def last_point_at_least(
    g: np.ndarray, ys: np.ndarray, step: float, targets: np.ndarray
) -> np.ndarray:
    """For non-increasing g: the largest u with g(u) >= target, else 0.

    Flat stretches resolve to the right end (sup semantics). Targets above
    g(0) map to 0, targets at or below g(1) map to 1.
    """
    M = g.size
    k = np.searchsorted(-g, -targets, side="right") - 1
    k = np.clip(k, 0, M - 1)
    kn = np.minimum(k + 1, M - 1)
    denom = g[k] - g[kn]
    frac = np.where(denom > 0, (g[k] - targets) / np.where(denom > 0, denom, 1.0), 0.0)
    out = np.where(k >= M - 1, 1.0, ys[k] + step * np.clip(frac, 0.0, 1.0))
    return np.where(targets > g[0], 0.0, out)


def first_point_at_least(
    g: np.ndarray, ys: np.ndarray, step: float, targets: np.ndarray
) -> np.ndarray:
    """For non-decreasing g: the smallest x with g(x) >= target, else 1."""
    M = g.size
    k = np.searchsorted(g, targets, side="left")
    k = np.clip(k, 0, M - 1)
    km = np.maximum(k - 1, 0)
    denom = g[k] - g[km]
    frac = np.where(
        (k > 0) & (denom > 0), (targets - g[km]) / np.where(denom > 0, denom, 1.0), 0.0
    )
    out = np.where(k == 0, 0.0, ys[km] + step * np.clip(frac, 0.0, 1.0))
    return np.where(targets > g[-1], 1.0, out)


def apply_flipped(
    values: np.ndarray, ys: np.ndarray, rho: float
) -> tuple[np.ndarray, np.ndarray]:
    """One application of the single-variable operator

        (Tw)(y) = rho*y*w(y) + int_y^1 max{rho*w(y), 1 + rho*w(1-x)} dx.

    After x -> 1-x the integral runs over [0, 1-y] with the non-increasing
    integrand g(u) = 1 + rho*w(u), so max{c, g} equals g up to the crossover
    u* and c after it. Exact for the piecewise-linear interpolant of w; rho=1
    gives one finite-horizon backward-induction stage. Returns (Tw, f): the
    same crossover gives the acceptance threshold f(y) = max(y, 1 - u*).
    """
    step = ys[1] - ys[0]
    g = 1.0 + rho * values
    G = cumulative_integral(g, step)
    c = rho * values
    crossover = last_point_at_least(g, ys, step, c)
    upper = 1.0 - ys
    m = np.minimum(crossover, upper)
    tw = rho * ys * values + integral_to(G, g, ys, step, m) + (upper - m) * c
    return tw, np.maximum(ys, 1.0 - crossover)


def apply_two_state(
    v_after_min: np.ndarray,
    v_after_max: np.ndarray,
    ys: np.ndarray,
    rho: float,
) -> tuple[np.ndarray, np.ndarray]:
    """One application of the paired operator in original coordinates.

    v_after_min (the last selection was a local minimum at s; non-increasing):
        rho*s*v0(s) + int_s^1 max{rho*v0(s), 1 + rho*v1(x)} dx
    v_after_max (a local maximum at s; non-decreasing):
        rho*(1-s)*v1(s) + int_0^s max{rho*v1(s), 1 + rho*v0(x)} dx
    """
    step = ys[1] - ys[0]
    v0, v1 = v_after_min, v_after_max

    g1 = 1.0 + rho * v1  # non-decreasing
    G1 = cumulative_integral(g1, step)
    c0 = rho * v0
    cross0 = first_point_at_least(g1, ys, step, c0)
    m0 = np.maximum(cross0, ys)  # integrand is c0 on [s, m0], g1 on [m0, 1]
    int0 = (m0 - ys) * c0 + (G1[-1] - integral_to(G1, g1, ys, step, m0))
    new0 = rho * ys * v0 + int0

    g0 = 1.0 + rho * v0  # non-increasing
    G0 = cumulative_integral(g0, step)
    c1 = rho * v1
    cross1 = last_point_at_least(g0, ys, step, c1)
    m1 = np.minimum(cross1, ys)  # integrand is g0 on [0, m1], c1 on [m1, s]
    int1 = integral_to(G0, g0, ys, step, m1) + (ys - m1) * c1
    new1 = rho * (1.0 - ys) * v1 + int1

    return new0, new1


def threshold_curve(
    next_values: np.ndarray, ys: np.ndarray, rho: float = 1.0
) -> np.ndarray:
    """Acceptance threshold at each grid point; the reference for apply_flipped's f.

    f(y) = inf{x in [y, 1] : rho*w(y) <= 1 + rho*w(1-x)} for the next-stage
    values w. Since w is non-increasing the condition set is [x_root, 1] with
    x_root = 1 - max{u : w(u) >= w(y) - 1/rho}, hence f(y) = max(y, x_root).
    The set is never empty (the condition always holds at x = 1).
    """
    step = ys[1] - ys[0]
    targets = next_values - 1.0 / rho
    umax = last_point_at_least(next_values, ys, step, targets)
    return np.maximum(ys, 1.0 - umax)
