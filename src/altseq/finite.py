"""Fixed sample size: backward induction and per-stage threshold curves.

The single-variable recursion, solved from the terminal stage down, is

    v[i](y) = y*v[i+1](y) + int_y^1 max{v[i+1](y), 1 + v[i+1](1-x)} dx

with v[n+1] identically 0. The operator does not depend on the stage, so
v[i] for horizon n equals the (n - i + 1)-fold application of the rho=1
Bellman operator to zero; one upward sweep therefore prices every remaining
horizon at once, and each application also returns the threshold of the
stage it prices. Unlike the geometric case the value rows are not flat on an
initial segment, so thresholds are stored as full per-stage curves rather
than a single scalar per stage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import _bellman
from ._bellman import DEFAULT_GRID


def check_horizon(n: int) -> int:
    if n < 1:
        raise ValueError(f"horizon must be a positive integer, got {n}")
    return int(n)


@dataclass(frozen=True)
class FiniteSolution:
    """Backward-induction output for one horizon.

    value_table has n+1 rows: row i-1 holds stage i (1-based, matching the
    usual v[i,n] indexing), and the final row is the identically-zero
    terminal stage. threshold_table has n rows; row i-1 is the acceptance
    threshold curve for stage i sampled at the grid points. Immutable after
    construction and safe to share across threads.
    """

    n: int
    grid_size: int
    ys: np.ndarray
    value_table: np.ndarray
    threshold_table: np.ndarray

    def value_row(self, i: int) -> np.ndarray:
        """Stage-i value curve, 1 <= i <= n + 1."""
        if not 1 <= i <= self.n + 1:
            raise ValueError(f"stage {i} outside 1..{self.n + 1}")
        return self.value_table[i - 1]

    def threshold_row(self, i: int) -> np.ndarray:
        """Stage-i threshold curve, 1 <= i <= n."""
        if not 1 <= i <= self.n:
            raise ValueError(f"stage {i} outside 1..{self.n}")
        return self.threshold_table[i - 1]


def _sweep(n: int, ys: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield (T^k(0), f_k), k = 1..n: value and threshold, k observations left."""
    w = np.zeros(ys.size)
    for _ in range(n):
        w, f = _bellman.apply_flipped(w, ys, 1.0)
        yield w, f


def solve_finite(n: int, grid_size: int = DEFAULT_GRID) -> FiniteSolution:
    """Solve the n-stage problem; one sweep fills both tables."""
    n = check_horizon(n)
    ys = _bellman.uniform_grid(grid_size)
    value_table = np.zeros((n + 1, grid_size))
    threshold_table = np.empty((n, grid_size))
    for k, (w, f) in enumerate(_sweep(n, ys), start=1):  # stage n - k + 1
        value_table[n - k], threshold_table[n - k] = w, f
    return FiniteSolution(
        n=n,
        grid_size=grid_size,
        ys=ys,
        value_table=value_table,
        threshold_table=threshold_table,
    )


def optimal_expected(n: int, grid_size: int = DEFAULT_GRID) -> float:
    """Expected selections of the optimal policy: the stage-1 value at y = 0."""
    return float(optimal_expected_curve(n, grid_size)[-1])


def optimal_expected_curve(n_max: int, grid_size: int = DEFAULT_GRID) -> np.ndarray:
    """optimal_expected(n) for every n in 1..n_max from a single sweep."""
    n_max = check_horizon(n_max)
    ys = _bellman.uniform_grid(grid_size)
    return np.array([w[0] for w, _ in _sweep(n_max, ys)])


def threshold_at(sol: FiniteSolution, i: int, y: float) -> float:
    """Stage-i acceptance threshold at an arbitrary state y.

    inf{x in [y, 1] : v[i+1](y) <= 1 + v[i+1](1-x)}, with the next-stage
    value interpolated at y and the crossing located by grid scan plus
    linear interpolation; 1 if the set is empty (never select).
    """
    if not 1 <= i <= sol.n:
        raise ValueError(f"stage {i} outside 1..{sol.n}")
    if not 0.0 <= y <= 1.0:
        raise ValueError(f"state must lie in [0, 1], got {y}")
    w_next = sol.value_table[i]  # stage i+1 row
    ys = sol.ys
    step = ys[1] - ys[0]
    target = np.interp(y, ys, w_next) - 1.0
    umax = _bellman.last_point_at_least(w_next, ys, step, np.asarray([target]))[0]
    return float(max(y, 1.0 - umax))


def solve_finite_two_state(
    n: int, grid_size: int = DEFAULT_GRID
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Backward induction without the reflection shortcut, for cross-checks.

    Returns (ys, after_min, after_max) where the tables have n+1 stage rows
    in original coordinates. The single-variable solver assumes the
    reflection identity v[i](s, min) = v[i](1-s, max); this solver does not,
    so comparing the two verifies it.
    """
    n = check_horizon(n)
    ys = _bellman.uniform_grid(grid_size)
    after_min = np.zeros((n + 1, grid_size))
    after_max = np.zeros((n + 1, grid_size))
    for i in range(n - 1, -1, -1):  # row index i holds stage i+1
        a, b = _bellman.apply_two_state(after_min[i + 1], after_max[i + 1], ys, 1.0)
        after_min[i] = a
        after_max[i] = b
    return ys, after_min, after_max
