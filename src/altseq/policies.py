"""Selection policies over the flipped-state recursion.

Every policy sees the chain Y with Y[0] = 0, selects observation x in state
y when x >= threshold(i, y), and then jumps to 1 - x; a skip leaves the
state unchanged. A tie at the threshold selects. Policies are immutable
after construction and advance a batch of replicates in lockstep; the
per-replicate state lives in the dict of arrays that new_batch returns, so
replicates never share state.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .finite import FiniteSolution
from .geometric import check_rho, xi0_closed

#: Seek threshold and regeneration band of the concatenated policy.
SEEK_LEVEL = 5.0 / 6.0
REGEN_LEVEL = 1.0 / 6.0


class Policy:
    """Batch decision procedure; subclasses define the threshold rule."""

    def threshold(self, i: int, y):
        """Acceptance threshold for observation i in state y (array or scalar)."""
        raise NotImplementedError

    def new_batch(self, size: int) -> dict:
        return {"y": np.zeros(size)}

    def step_batch(
        self, batch: dict, i: int, x: np.ndarray, active: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Decide on observation i of every replicate; returns the selections.

        Rows where active is False neither select nor change state.
        """
        y = batch["y"]
        sel = x >= self.threshold(i, y)
        if active is not None:
            sel &= active
        np.copyto(y, 1.0 - x, where=sel)
        return sel


class FixedThresholdPolicy(Policy):
    """Select x iff x >= max(xi, y); xi = 0 is the greedy rule (accept
    anything feasible) and xi = 1/2 is the maximally timid rule."""

    def __init__(self, xi: float):
        if not 0.0 <= xi <= 0.5:
            raise ValueError(f"fixed threshold must lie in [0, 1/2], got {xi}")
        self.xi = float(xi)

    def threshold(self, i: int, y):
        return np.maximum(self.xi, y)


class GeometricOptimalPolicy(FixedThresholdPolicy):
    """Optimal stationary rule for a geometric horizon: max(xi0(rho), y)."""

    def __init__(self, rho: float):
        self.rho = check_rho(rho)
        super().__init__(xi0_closed(rho))


class FiniteOptimalPolicy(Policy):
    """Stage-dependent optimal rule induced by a solved threshold table."""

    def __init__(self, solution: FiniteSolution):
        self.solution = solution
        self.n = solution.n

    def threshold(self, i: int, y):
        if not 1 <= i <= self.n:
            raise ValueError(f"step index {i} outside 1..{self.n}")
        sol = self.solution
        return np.interp(y, sol.ys, sol.threshold_table[i - 1])


def _interp_rows(table: np.ndarray, rows: np.ndarray, ys: np.ndarray, y: np.ndarray):
    # Linear interpolation of table[rows] at points y, row chosen per entry.
    step = ys[1] - ys[0]
    j = np.minimum((y / step).astype(np.int64), ys.size - 2)
    frac = y / step - j
    return table[rows, j] * (1.0 - frac) + table[rows, j + 1] * frac


class ConcatenatedPolicy(Policy):
    """Regenerating block policy built from a finite solution with n >= 3.

    Seek the first observation at or above 5/6 and select it (state drops
    into [0, 1/6]); run the next n-2 observations with the stage-1..n-2
    threshold curves; then regenerate: immediately if the state is already
    at or below 1/6, otherwise by seeking again. Meant for geometric-horizon
    simulation as a suboptimality witness, not as a practical policy.
    """

    def __init__(self, solution: FiniteSolution):
        if solution.n < 3:
            raise ValueError(
                f"concatenated policy needs horizon >= 3, got {solution.n}"
            )
        self.solution = solution
        self.n = solution.n

    def new_batch(self, size: int) -> dict:
        # block_pos is 0 while seeking an observation at or above 5/6, and
        # otherwise the 1-based position inside the current block of n-2
        # stage-driven steps.
        return {"y": np.zeros(size), "block_pos": np.zeros(size, dtype=np.int64)}

    def step_batch(
        self, batch: dict, i: int, x: np.ndarray, active: Optional[np.ndarray] = None
    ) -> np.ndarray:
        sol = self.solution
        y = batch["y"]
        bp = batch["block_pos"]
        seeking = bp == 0
        # Seeking rows read table row -1; their threshold is replaced below.
        thr = _interp_rows(sol.threshold_table, bp - 1, sol.ys, y)
        thr[seeking] = SEEK_LEVEL
        sel = x >= thr
        if active is not None:
            sel &= active
        np.copyto(y, 1.0 - x, where=sel)
        moving = ~seeking if active is None else (~seeking & active)
        bp[sel & seeking] = 1
        bp += moving
        # No row starts a step at n-1, so only rows that just moved are spent:
        # they regenerate at once (1) or seek again (0).
        spent = bp == self.n - 1
        bp[spent] = y[spent] <= REGEN_LEVEL
        return sel


def stationary_rate(xi: float) -> float:
    """Long-run selections per observation of the fixed-threshold-xi policy.

    Under the stationary law of its state chain (uniform on [0, 1-xi]) the
    per-step selection probability is (1 - 2*xi^2) / (2*(1 - xi)); it is
    maximized at xi = 1 - 1/sqrt(2), where it equals 2 - sqrt(2).
    """
    if not 0.0 <= xi <= 0.5:
        raise ValueError(f"threshold must lie in [0, 1/2], got {xi}")
    return (1.0 - 2.0 * xi * xi) / (2.0 * (1.0 - xi))
