"""Fixed sample size: backward induction and per-stage threshold curves.

The single-variable recursion, solved from the terminal stage down, is

    v[i](y) = y*v[i+1](y) + int_y^1 max{v[i+1](y), 1 + v[i+1](1-x)} dx

with v[n+1] identically 0. The operator does not depend on the stage, so
v[i] for horizon n equals the (n - i + 1)-fold application of the rho=1
Bellman operator to zero, each also returning its stage's threshold as a full
curve (the value rows are not flat on an initial segment, as geometric ones
are). The curves settle within a few dozen stages, at K, onto the stationary
rule max(y, 1 - 1/sqrt(2)). One stop rule, decided in _sweep, finds K for both
uses: a policy's sweep stops there, and since each later sweep adds the same
amount to v_k = T^k(0)(0) to rounding, n > 2K is priced as
v_K + (n - K)(v_2K - v_K)/K. Only the value table needs every stage.
"""

from __future__ import annotations

import functools
import itertools
import mmap
import operator
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import _bellman
from ._bellman import DEFAULT_GRID


def check_horizon(n: int) -> int:
    if operator.index(n) < 1:  # refuses 2.5 rather than truncate it
        raise ValueError(f"horizon must be a positive integer, got {n}")
    return int(n)


def check_table_budget(n: int, grid_size: int) -> None:
    """Refuse a solve whose (n+1) x grid_size value table exceeds MAX_CELLS."""
    if (n + 1) * grid_size > _bellman.MAX_CELLS:
        raise ValueError(
            f"solution tables for n={n} at grid={grid_size} would be too large; "
            "reduce the horizon or the grid"
        )


#: Threshold rows k and k - 1 (observations left) this close in sup norm settle
#: the sweep (_sweep's flag), at k >= 3 because f_1 = f_2 = y exactly. At 1e-12
#: K = 72 on grids 101-4001, 73 on 51, 79 on 5, 98 on 11 and 125 on 7, and no
#: later row up to k = 3000 drifts from the last one kept by more than 5e-12;
#: grids 3 and 4 converge too slowly to settle before n.
STAGE_TOL = 1e-12


@dataclass(frozen=True)
class FiniteSolution:
    """Backward-induction output for one horizon.

    threshold_table holds the acceptance threshold curves, sampled at the grid
    points, of the last min(n, K) stages in stage order, where K is where the
    sweep stopped (STAGE_TOL): its last row is stage n, and every stage before
    its first row shares that row. value_table has n+1 rows: row i-1 holds
    stage i (1-based, matching the usual v[i,n] indexing), and the final row
    is the identically-zero terminal stage. It is built by a full sweep on
    first read; two threads reading it at once may both build it, with
    identical results. Read-only, and safe to share across threads.
    """

    n: int
    ys: np.ndarray
    threshold_table: np.ndarray

    @functools.cached_property
    def value_table(self) -> np.ndarray:
        table = _bellman.mapped_zeros((self.n + 1, self.ys.size))
        for k, (w, _, _) in enumerate(_sweep(self.n, self.ys), start=1):
            table[self.n - k] = w  # stage n - k + 1
        table.setflags(write=False)
        return table

    def stage_rows(self, i):
        """threshold_table row of stage i, an int or an int array; stages
        before the first row kept read row 0."""
        return np.maximum(i - (1 + self.n - len(self.threshold_table)), 0)

    def value_row(self, i: int) -> np.ndarray:
        """Stage-i value curve, 1 <= i <= n + 1."""
        if not 1 <= i <= self.n + 1:
            raise ValueError(f"stage {i} outside 1..{self.n + 1}")
        return self.value_table[i - 1]

    def threshold_row(self, i: int) -> np.ndarray:
        """Stage-i threshold curve, 1 <= i <= n."""
        if not 1 <= i <= self.n:
            raise ValueError(f"stage {i} outside 1..{self.n}")
        return self.threshold_table[self.stage_rows(i)]


def _sweep(n: int, ys: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray, bool]]:
    """Yield (T^k(0), f_k, settled), k = 1..n: value and threshold with k
    observations left, and whether the rows have settled by k (STAGE_TOL)."""
    w, f, settled = np.zeros(ys.size), None, False
    for k in range(1, n + 1):
        f_prev, (w, f) = f, _bellman.apply_flipped(w, ys, 1.0)
        settled = settled or k >= 3 and np.max(np.abs(f - f_prev)) <= STAGE_TOL
        yield w, f, settled


def solve_finite(n: int, grid_size: int = DEFAULT_GRID) -> FiniteSolution:
    """Solve the n-stage problem, sweeping until its threshold rows settle."""
    n = check_horizon(n)
    check_table_budget(n, grid_size)
    ys = _bellman.uniform_grid(grid_size)
    # a lazy anonymous map, never in huge pages, that backs the table for the
    # solution's life: only the k rows written are resident, the rest of its n
    # rows is address space reserved, at most 160 MB under the table budget
    rows = np.frombuffer(mmap.mmap(-1, 8 * n * grid_size)).reshape(n, grid_size)
    for k, (_, f, settled) in enumerate(_sweep(n, ys), start=1):
        rows[n - k] = f  # stage n - k + 1
        if settled:
            break
    rows.setflags(write=False)
    return FiniteSolution(n=n, ys=ys, threshold_table=rows[n - k :])


def optimal_expected(n: int, grid_size: int = DEFAULT_GRID) -> float:
    """Expected selections of the optimal policy: the stage-1 value at y = 0.

    v_K + (n - K)(v_2K - v_K)/K from 2K sweeps if n > 2K, else the swept v_n.
    """
    sweep = _sweep(check_horizon(n), _bellman.uniform_grid(grid_size))
    for k, (w, _, settled) in enumerate(sweep, start=1):
        if settled and 2 * k < n:
            v_2k = next(itertools.islice(sweep, k - 1, None))[0][0]  # the k-th next
            return float(w[0] + (n - k) * (v_2k - w[0]) / k)
    return float(w[0])


def optimal_expected_curve(n_max: int, grid_size: int = DEFAULT_GRID) -> np.ndarray:
    """The full sweep's v_n for every n in 1..n_max: optimal_expected to n = 2K."""
    n_max = check_horizon(n_max)
    ys = _bellman.uniform_grid(grid_size)
    return np.array([w[0] for w, _, _ in _sweep(n_max, ys)])


def threshold_at(sol: FiniteSolution, i: int, y: float) -> float:
    """Stage-i acceptance threshold at an arbitrary state y.

    inf{x in [y, 1] : v[i+1](y) <= 1 + v[i+1](1-x)}, with the next-stage
    value interpolated at y and the crossing located by grid scan plus
    linear interpolation. The set is never empty: it always holds x = 1.
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
    check_table_budget(n, grid_size)
    ys = _bellman.uniform_grid(grid_size)
    after_min = _bellman.mapped_zeros((n + 1, grid_size))
    after_max = _bellman.mapped_zeros((n + 1, grid_size))
    for i in range(n - 1, -1, -1):  # row index i holds stage i+1
        a, b = _bellman.apply_two_state(after_min[i + 1], after_max[i + 1], ys, 1.0)
        after_min[i] = a
        after_max[i] = b
    return ys, after_min, after_max
