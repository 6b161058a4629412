"""Exact Bellman-operator quadrature on a uniform grid.

Every operator is the kernel _step: own + int_0^upper max{c, g(u)} du for a
non-increasing g, where max{c, g} is g up to one crossover and c after it.
The stored vector is treated as a piecewise-linear interpolant and
integrated exactly: cumulative trapezoid sums at the nodes, a quadratic
in-cell correction for partial cells, and the crossover located by linear
interpolation inside the straddling cell. This keeps every operator a
monotone contraction on the discretized space and avoids quadrature noise
near the kink.
"""

from __future__ import annotations

import math
import mmap
import operator

import numpy as np

# Defaults and constants shared by the solvers and the command line.
DEFAULT_GRID = 2001
DEFAULT_TOL = 1e-10
MAX_CELLS = 20_000_000  # points in a grid, cells in a table: 160 MB of float64
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


def check_grid(grid_size: int) -> int:
    """The grid rule, checked without building the grid."""
    if operator.index(grid_size) < 3:
        raise ValueError(f"grid_size must be >= 3, got {grid_size}")
    return grid_size


def uniform_grid(grid_size: int) -> np.ndarray:
    if check_grid(grid_size) > MAX_CELLS:  # refused before any array is built
        raise ValueError(f"grid_size must be <= {MAX_CELLS}, got {grid_size}")
    ys = np.linspace(0.0, 1.0, grid_size)
    ys.setflags(write=False)  # shared by every solution solved on it
    return ys


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
    gj, dm, out = g.take(j), m - ys.take(j), G.take(j)
    slope = (g[1:].take(j) - gj) / step
    out += np.multiply(dm, gj, out=gj)  # G[j] + dm*g[j]
    slope *= 0.5 * dm * dm
    out += slope  # + 0.5*dm*dm*slope
    return out


def last_point_at_least(
    g: np.ndarray, ys: np.ndarray, step: float, targets: np.ndarray
) -> np.ndarray:
    """For non-increasing g: the largest u with g(u) >= target, else 0.

    Flat stretches resolve to the right end (sup semantics). Targets above
    g(0) map to 0, targets at or below g(1) map to 1 (ys ends at 1.0). The
    search is numpy's binary search, which assumes g sorted; value rows are
    sorted only up to rounding (at grid 2001, T^1000(0) rises 126 times, by
    up to 2.3e-13, all at y <= 0.291). The rule for targets above g(0)
    holds for any g.
    """
    k = np.searchsorted(-g, -targets, side="right").reshape(-1) - 1
    gk = g.take(k, mode="clip")
    denom = gk - g[1:].take(k, mode="clip")  # 0 in the last cell: read as flat
    out = np.divide(gk - targets, denom, out=np.zeros(gk.shape), where=denom > 0)
    np.clip(out, 0.0, 1.0, out=out)
    out *= step
    out += ys.take(k, mode="clip")
    out[targets > g[0]] = 0.0
    return out.reshape(np.shape(targets))


def _step(
    own: np.ndarray, g: np.ndarray, c: np.ndarray, upper: np.ndarray, ys: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The Bellman-step kernel: (own + int_0^upper max{c, g(u)} du, crossover).

    For non-increasing g the crossover u* is the largest u with g(u) >= c;
    own, c and upper are given per grid point.
    """
    step = ys[1] - ys[0]
    crossover = last_point_at_least(g, ys, step, c)
    m = np.minimum(crossover, upper)
    out = integral_to(cumulative_integral(g, step), g, ys, step, m)
    out += own
    out += np.multiply(np.subtract(upper, m, out=m), c, out=m)  # (upper - m)*c
    return out, crossover


def apply_flipped(
    values: np.ndarray, ys: np.ndarray, rho: float
) -> tuple[np.ndarray, np.ndarray]:
    """One application of the single-variable operator

        (Tw)(y) = rho*y*w(y) + int_y^1 max{rho*w(y), 1 + rho*w(1-x)} dx.

    After x -> 1-x it is one kernel step over [0, 1-y] with g = 1 + rho*w,
    non-increasing. Exact for the piecewise-linear interpolant of w; rho=1
    gives one finite-horizon backward-induction stage. Returns (Tw, f): the
    same crossover u* gives the acceptance threshold f(y) = max(y, 1 - u*).
    """
    c = rho * values
    tw, crossover = _step(rho * ys * values, 1.0 + c, c, 1.0 - ys, ys)
    return tw, np.maximum(ys, np.subtract(1.0, crossover, out=crossover), out=crossover)


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

    Each half is one kernel step: after x -> 1-x the first integrates
    g = 1 + rho*v1(1-u) over [0, 1-s], the second g = 1 + rho*v0 over
    [0, s]. Neither assumes that v0 and v1 reflect each other, so this
    operator stays an independent check of the single-variable one.
    """
    v0, v1 = v_after_min, v_after_max
    new0, _ = _step(rho * ys * v0, 1.0 + rho * v1[::-1], rho * v0, 1.0 - ys, ys)
    new1, _ = _step(rho * (1.0 - ys) * v1, 1.0 + rho * v0, rho * v1, ys, ys)
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
