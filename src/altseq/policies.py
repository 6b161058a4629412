"""Selection policies over the flipped-state recursion.

Every policy sees the chain Y with Y[0] = 0, selects observation x in state
y when x >= its threshold, and then jumps to 1 - x; a skip leaves the state
unchanged. A tie at the threshold selects. The threshold is threshold(i, y),
except in ConcatenatedPolicy, where it also depends on the block position.
Policies are immutable after construction and advance a batch of replicates
in lockstep; the per-replicate state lives in the dict of arrays that
new_batch returns, so replicates never share state.
"""

from __future__ import annotations

import numpy as np

from .finite import FiniteSolution
from .geometric import check_xi, xi0_closed

#: Seek threshold and regeneration band of the concatenated policy.
SEEK_LEVEL = 5.0 / 6.0
REGEN_LEVEL = 1.0 / 6.0


class Policy:
    """Batch decision procedure; subclasses define the threshold rule.

    step_batch works elementwise, on rows or on (lanes x rows) arrays. A
    coalescence_level holds in the stages the policy names, 1 through
    coalescence_until (None: every stage): there the threshold ignores i and
    is at most the level in every state reachable in them, so an observation
    at or above it is selected from every state, and the next state 1 - x
    forgets the past.
    """

    coalescence_level: float | None = None
    coalescence_until: int | None = None

    def threshold(self, i: int, y):
        """Acceptance threshold for observation i in state y (array or scalar);
        ConcatenatedPolicy has none, as its threshold needs the block position."""
        raise NotImplementedError

    def new_batch(self, size: int) -> dict:
        return {"y": np.zeros(size)}

    def step_batch(
        self, batch: dict, i: int, x: np.ndarray, active: np.ndarray | None = None
    ) -> np.ndarray:
        """Decide on observation i of every replicate; returns the selections.

        Rows where active is False neither select nor change state.
        """
        y = batch["y"]
        sel = x >= self.threshold(i, y)
        if active is not None:
            sel &= active
        np.putmask(y, sel, 1.0 - x)
        return sel


class FixedThresholdPolicy(Policy):
    """Select x iff x >= max(xi, y); xi = 0 is the greedy rule (accept
    anything feasible) and xi = 1/2 is the maximally timid rule."""

    def __init__(self, xi: float):
        self.xi = check_xi(xi)
        # max(xi, y) <= fl(1 - xi) for every reachable y = 1 - x, as xi <= 1/2
        level = 1.0 - self.xi
        self.coalescence_level = level if level < 1.0 else None  # 1.0 cuts nothing

    def threshold(self, i: int, y):
        return np.maximum(self.xi, y)


class GeometricOptimalPolicy(FixedThresholdPolicy):
    """Optimal stationary rule for a geometric horizon: max(xi0(rho), y)."""

    def __init__(self, rho: float):
        super().__init__(xi0_closed(rho))


class _TableRule(Policy):
    """A rule read off the stage rows of a solved threshold table.

    It interpolates a row linearly: with u = y / step, the cell
    j = min(int(u), size - 2) and f = u - j, the threshold is a*(1 - f) + b*f,
    a and b the row's values at the cell's ends, evaluated in that order.
    That is not np.interp bit for bit.
    """

    def __init__(self, solution: FiniteSolution):
        self.solution = solution
        self.n = solution.n
        ys = solution.ys
        self._step = ys[1] - ys[0]
        self._last_cell = ys.size - 2
        # every row, flat, read at the left and right ends of a cell
        self._left = solution.threshold_table.reshape(-1)
        self._right = self._left[1:]

    def _interp(self, y: np.ndarray, offset):
        """Thresholds at states y >= 0 (an array) on the rows that start at
        offset in the flat table (an int, or ints shaped like y)."""
        f = y / self._step
        j = f.astype(np.intp)
        np.minimum(j, self._last_cell, out=j)
        f -= j  # y's place in cell j
        j += offset
        thr = self._left.take(j)
        b = self._right.take(j)
        b *= f
        np.subtract(1.0, f, out=f)
        thr *= f
        thr += b  # a*(1 - f) + b*f
        return thr


class FiniteOptimalPolicy(_TableRule):
    """Stage-dependent optimal rule induced by a solved threshold table.

    threshold reads stage i's row, at y clipped at 0. Stages 1..n - K + 1
    all read row 0 if the sweep settled before stage 1; their coalescence
    level bounds row 0's thresholds over the states they can reach.
    """

    def __init__(self, solution: FiniteSolution):
        super().__init__(solution)
        skipped = self.n - len(solution.threshold_table)
        if skipped:
            # The kernel rounds three times, so it is within a factor
            # 1 +- 2^-51 of the exact interpolant, which lies between its
            # cell's ends: a margin of 2^-50, rounded outward, covers both.
            # A selected x is at least lo, so states stay in [0, top].
            row = solution.threshold_table[0]
            lo = np.nextafter(row.min() * (1.0 - 2.0**-50), 0.0)
            top = 1.0 - lo
            # Up to top the kernel reads the cells up to top's, and in top's
            # cell it interpolates between the left end and its value at top.
            j = min(int(top / self._step), self._last_cell)
            level = max(row[: j + 1].max(), self.threshold(1, top))  # row 0
            level = np.nextafter(level * (1.0 + 2.0**-50), 2.0)
            if level < 1.0:
                self.coalescence_level = float(level)
                self.coalescence_until = skipped + 1

    def threshold(self, i: int, y):
        if not 1 <= i <= self.n:
            raise ValueError(f"stage {i} outside 1..{self.n}")
        offset = self.solution.stage_rows(i) * self.solution.ys.size
        y = np.maximum(y, 0.0)  # the kernel would extrapolate below the grid
        thr = self._interp(np.atleast_1d(y), offset)
        return thr if np.ndim(y) else thr[0]


class ConcatenatedPolicy(_TableRule):
    """Regenerating block policy built from a finite solution with n >= 3.

    Seek the first observation at or above 5/6 and select it (state drops
    into [0, 1/6]); run the next n-2 observations with the stage-1..n-2
    threshold curves; then regenerate: immediately if the state is already
    at or below 1/6, otherwise by seeking again. Meant for geometric-horizon
    simulation as a suboptimality witness, not as a practical policy.

    At block position p >= 1 the threshold is the stage-p row's, read as
    every table rule reads it; seeking rows read 5/6.
    """

    def __init__(self, solution: FiniteSolution):
        if solution.n < 3:
            raise ValueError(
                f"concatenated policy needs horizon >= 3, got {solution.n}"
            )
        super().__init__(solution)
        # each block position's offset into the flat rows; seeking (0) reads
        # the first row and ignores it
        self._offsets = solution.stage_rows(np.arange(self.n - 1)) * solution.ys.size

    def new_batch(self, size: int) -> dict:
        # block_pos is 0 while seeking an observation at or above 5/6, and
        # otherwise the 1-based position inside the current block of n-2
        # stage-driven steps.
        return {"y": np.zeros(size), "block_pos": np.zeros(size, dtype=np.int64)}

    def step_batch(
        self, batch: dict, i: int, x: np.ndarray, active: np.ndarray | None = None
    ) -> np.ndarray:
        y = batch["y"]
        bp = batch["block_pos"]
        thr = self._interp(y, self._offsets.take(bp))
        seeking = bp == 0
        np.putmask(thr, seeking, SEEK_LEVEL)
        sel = x >= thr
        moving = sel >= seeking  # a seeking row moves from 0 to 1 if it selects
        if active is not None:
            sel &= active
            moving &= active
        np.putmask(y, sel, 1.0 - x)
        bp += moving
        # No row starts a step at n-1, so only rows that just moved are spent:
        # they regenerate at once (1) or seek again (0).
        np.less_equal(y, REGEN_LEVEL, out=bp, where=bp == self.n - 1)
        return sel


def stationary_rate(xi: float) -> float:
    """Long-run selections per observation of the fixed-threshold-xi policy.

    Under the stationary law of its state chain (uniform on [0, 1-xi]) the
    per-step selection probability is (1 - 2*xi^2) / (2*(1 - xi)); it is
    maximized at xi = 1 - 1/sqrt(2), where it equals 2 - sqrt(2).
    """
    xi = check_xi(xi)
    return (1.0 - 2.0 * xi * xi) / (2.0 * (1.0 - xi))
