"""Seeded, reproducible Monte Carlo evaluation of selection policies.

Replicate streams are counter-based: replicate r of a run with seed s draws
from Philox keyed by (s, r), so results are bit-identical for a given
configuration no matter how replicates are chunked or scheduled, and any
replicate can be regenerated in isolation. Within a stream the draw order
is: horizon draw first (geometric runs only), then the observations.

A chunk of replicates is stored flat and step-major, its rows sorted longest
first: the rows still live at step i form a prefix, and their observations
are one contiguous slice. A chunk holds at most CHUNK_TARGET_ELEMENTS
observations plus one row, and MAX_CHUNK bounds the streams held at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._bellman import mapped_zeros
from .geometric import check_rho
from .finite import check_horizon
from .policies import ConcatenatedPolicy, FiniteOptimalPolicy, Policy
from .sequence import longest_alternating

#: Upper bound on the replicates of a chunk, and so on the streams held at once.
MAX_CHUNK = 8192
#: Observations per chunk of either runner; a geometric one may add one row.
CHUNK_TARGET_ELEMENTS = 4_000_000


def check_run(
    reps: int, seed: int, n: Optional[int] = None, rho: Optional[float] = None
) -> None:
    """Valid reps and seed, then exactly one valid horizon: n fixed or rho."""
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    if not 0 <= seed < 2**64:
        raise ValueError("seed must fit in an unsigned 64-bit integer")
    if (n is None) == (rho is None):
        raise ValueError("exactly one of n or rho must be given")
    if n is not None:
        check_horizon(n)
    if rho is not None:
        check_rho(rho)


@dataclass(frozen=True)
class SimulationConfig:
    """One reproducible run: a policy, a horizon, replicates, and a seed.

    Exactly one of n (fixed horizon) or rho (geometric horizon) is set. A
    finite-optimal policy needs the fixed horizon it was solved for, and the
    concatenated policy a geometric one.
    """

    reps: int
    seed: int
    policy: Policy
    n: Optional[int] = None
    rho: Optional[float] = None

    def __post_init__(self):
        check_run(self.reps, self.seed, self.n, self.rho)
        if isinstance(self.policy, FiniteOptimalPolicy) and self.policy.n != self.n:
            raise ValueError(
                f"the finite-optimal policy solved for n={self.policy.n} "
                f"needs the fixed horizon n={self.policy.n}"
            )
        if isinstance(self.policy, ConcatenatedPolicy) and self.rho is None:
            raise ValueError("the concatenated policy needs a geometric horizon")


@dataclass(frozen=True)
class RunResult:
    """Aggregate of per-replicate selection counts.

    per_rep_counts holds the count of every replicate, in replicate order.
    """

    reps: int
    mean: float
    variance: float
    std_error: float
    per_rep_counts: np.ndarray


def replicate_rng(seed: int, rep: int) -> np.random.Generator:
    """The dedicated stream of one replicate: Philox keyed by (seed, rep)."""
    # An explicit uint64 key: numpy reads a list holding a value of 2**63 or
    # more as float64, which merges nearby seeds.
    return np.random.Generator(
        np.random.Philox(key=np.array([seed, rep], dtype=np.uint64))
    )


def sample_horizon(rng: np.random.Generator, rho: float) -> int:
    """Draw N with P(N=k) = rho^(k-1)*(1-rho), k >= 1, by exact inversion."""
    u = 1.0 - rng.random()  # uniform on (0, 1]; avoids log(0)
    return max(1, 1 + math.floor(math.log(u) / math.log(rho)))


def _aggregate(counts: np.ndarray) -> RunResult:
    reps = counts.size
    mean = float(counts.mean())
    variance = float(counts.var(ddof=1)) if reps > 1 else 0.0
    return RunResult(
        reps=reps,
        mean=mean,
        variance=variance,
        std_error=math.sqrt(variance / reps),
        per_rep_counts=counts,
    )


def _simulate_batch(policy: Policy, flat: np.ndarray, live: np.ndarray) -> np.ndarray:
    """Run a step-major chunk through the policy in lockstep; returns counts.

    live[i-1] rows, a prefix of the longest-first order, are live at step i;
    their observations are the next live[i-1] entries of flat, and counts come
    back in that order. Each step reads live[0] entries, so a ragged chunk ends
    in live[0] - live[-1] spare slots; rows past the prefix are masked off.
    """
    rows = int(live[0])
    batch = policy.new_batch(rows)
    counts = np.zeros(rows, dtype=np.int64)
    index = np.arange(rows)
    s = 0
    for i, k in enumerate(live, start=1):
        active = None if k == rows else index < k
        counts += policy.step_batch(batch, i, flat[s : s + rows], active)
        s += k
    return counts


def run_fixed_horizon(cfg: SimulationConfig) -> RunResult:
    """Evaluate cfg.policy on n i.i.d. uniform observations per replicate."""
    if cfg.n is None:
        raise ValueError("run_fixed_horizon needs a fixed-horizon config")
    counts = np.empty(cfg.reps, dtype=np.int64)
    chunk = max(1, min(MAX_CHUNK, CHUNK_TARGET_ELEMENTS // cfg.n))
    for lo in range(0, cfg.reps, chunk):
        hi = min(lo + chunk, cfg.reps)
        flat = mapped_zeros(cfg.n * (hi - lo))
        X = flat.reshape(cfg.n, hi - lo)
        for r in range(lo, hi):
            X[:, r - lo] = replicate_rng(cfg.seed, r).random(cfg.n)
        every_row_live = np.broadcast_to(hi - lo, cfg.n)
        counts[lo:hi] = _simulate_batch(cfg.policy, flat, every_row_live)
    return _aggregate(counts)


def run_geometric_horizon(cfg: SimulationConfig) -> RunResult:
    """Evaluate cfg.policy on a geometric-size sample per replicate.

    Each replicate draws its horizon from its own stream, then that many
    observations from the same stream.
    """
    if cfg.rho is None:
        raise ValueError("run_geometric_horizon needs a geometric-horizon config")
    counts = np.empty(cfg.reps, dtype=np.int64)
    for lo in range(0, cfg.reps, MAX_CHUNK):
        # Streams wait, horizon drawn, until the sort order is known, so the
        # observations are drawn straight into their place.
        rngs = [replicate_rng(cfg.seed, r) for r in range(lo, cfg.reps)[:MAX_CHUNK]]
        lengths = np.array([sample_horizon(rng, cfg.rho) for rng in rngs])
        order = np.argsort(-lengths, kind="stable")
        # cut where the running sum of horizons crosses a multiple of the budget
        sums = lengths[order].cumsum() // CHUNK_TARGET_ELEMENTS
        for part in np.split(order, np.flatnonzero(np.diff(sums)) + 1):
            # live[i-1] = rows with horizon >= i; step i starts at start[i-1]
            live = np.bincount(lengths[part])[:0:-1].cumsum()[::-1]
            start = np.concatenate(([0], live[:-1].cumsum()))
            flat = mapped_zeros(int(live.sum() + live[0] - live[-1]))
            for p, r in enumerate(part):
                flat[start[: lengths[r]] + p] = rngs[r].random(lengths[r])
            counts[lo + part] = _simulate_batch(cfg.policy, flat, live)
    return _aggregate(counts)


def run_offline(n: int, reps: int, seed: int) -> RunResult:
    """Full-knowledge baseline: the offline statistic on each replicate."""
    check_run(reps, seed, n)
    counts = np.empty(reps, dtype=np.int64)
    for r in range(reps):
        # tolist keeps the scan in plain-float arithmetic, ~10x faster
        # than iterating numpy scalars at these sizes.
        counts[r] = longest_alternating(replicate_rng(seed, r).random(n).tolist())
    return _aggregate(counts)
