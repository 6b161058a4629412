"""Seeded, reproducible Monte Carlo evaluation of selection policies.

Replicate streams are counter-based: replicate r of a run with seed s draws
from Philox keyed by (s, r), so results are bit-identical for a given
configuration no matter how replicates are chunked or scheduled, and any
replicate can be regenerated in isolation. Within a stream the draw order
is: horizon draw first (geometric runs only), then the observations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .geometric import check_rho
from .finite import check_horizon
from .policies import Policy, PolicyKind, PolicySpec, make_policy
from .sequence import longest_alternating

#: Upper bound on replicates simulated per lockstep chunk.
MAX_CHUNK = 8192
#: Target observation-matrix size per chunk, in float64 elements.
CHUNK_TARGET_ELEMENTS = 4_000_000


@dataclass(frozen=True)
class SimulationConfig:
    """One reproducible run: a policy, a horizon, replicates, and a seed.

    Exactly one of n (fixed horizon) or rho (geometric horizon) is set.
    """

    reps: int
    seed: int
    policy: Optional[PolicySpec] = None
    n: Optional[int] = None
    rho: Optional[float] = None
    keep_counts: bool = False

    def __post_init__(self):
        if self.reps < 1:
            raise ValueError(f"reps must be >= 1, got {self.reps}")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")
        if (self.n is None) == (self.rho is None):
            raise ValueError("exactly one of n or rho must be given")
        if self.n is not None:
            check_horizon(self.n)
        if self.rho is not None:
            check_rho(self.rho)


@dataclass(frozen=True)
class RunResult:
    """Aggregate of per-replicate selection counts."""

    reps: int
    mean: float
    variance: float
    std_error: float
    per_rep_counts: Optional[np.ndarray] = None


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


def _aggregate(counts: np.ndarray, keep_counts: bool) -> RunResult:
    reps = counts.size
    mean = float(counts.mean())
    variance = float(counts.var(ddof=1)) if reps > 1 else 0.0
    return RunResult(
        reps=reps,
        mean=mean,
        variance=variance,
        std_error=math.sqrt(variance / reps),
        per_rep_counts=counts.copy() if keep_counts else None,
    )


def _simulate_batch(
    policy: Policy, X: np.ndarray, lengths: Optional[np.ndarray] = None
) -> np.ndarray:
    """Run all rows of X through the policy in lockstep; returns counts."""
    n_rows, n_steps = X.shape
    batch = policy.new_batch(n_rows)
    counts = np.zeros(n_rows, dtype=np.int64)
    for i in range(1, n_steps + 1):
        active = None if lengths is None else lengths >= i
        counts += policy.step_batch(batch, i, X[:, i - 1], active)
    return counts


def _fixed_chunk(n: int, reps: int) -> int:
    return max(1, min(reps, MAX_CHUNK, CHUNK_TARGET_ELEMENTS // max(n, 1)))


def run_fixed_horizon(cfg: SimulationConfig) -> RunResult:
    """Evaluate cfg.policy on n i.i.d. uniform observations per replicate."""
    if cfg.n is None:
        raise ValueError("run_fixed_horizon needs a fixed-horizon config")
    if cfg.policy is None:
        raise ValueError("run_fixed_horizon needs a policy")
    if cfg.policy.kind is PolicyKind.CONCATENATED:
        raise ValueError(
            "the concatenated policy is exposed for geometric horizons only"
        )
    if (
        cfg.policy.kind is PolicyKind.FINITE_OPTIMAL
        and cfg.policy.finite.n != cfg.n
    ):
        raise ValueError(
            f"horizon/policy mismatch: config n={cfg.n}, "
            f"solution n={cfg.policy.finite.n}"
        )
    policy = make_policy(cfg.policy)
    counts = np.empty(cfg.reps, dtype=np.int64)
    chunk = _fixed_chunk(cfg.n, cfg.reps)
    for lo in range(0, cfg.reps, chunk):
        hi = min(lo + chunk, cfg.reps)
        X = np.empty((hi - lo, cfg.n))
        for r in range(lo, hi):
            X[r - lo] = replicate_rng(cfg.seed, r).random(cfg.n)
        counts[lo:hi] = _simulate_batch(policy, X)
    return _aggregate(counts, cfg.keep_counts)


def run_geometric_horizon(cfg: SimulationConfig) -> RunResult:
    """Evaluate cfg.policy on a geometric-size sample per replicate.

    Each replicate draws its horizon from its own stream, then that many
    observations from the same stream.
    """
    if cfg.rho is None:
        raise ValueError("run_geometric_horizon needs a geometric-horizon config")
    if cfg.policy is None:
        raise ValueError("run_geometric_horizon needs a policy")
    if cfg.policy.kind is PolicyKind.FINITE_OPTIMAL:
        raise ValueError(
            "finite-optimal stage indices are undefined past the solution "
            "horizon; use a fixed-horizon run or the concatenated policy"
        )
    policy = make_policy(cfg.policy)
    counts = np.empty(cfg.reps, dtype=np.int64)
    chunk = min(cfg.reps, MAX_CHUNK)
    for lo in range(0, cfg.reps, chunk):
        hi = min(lo + chunk, cfg.reps)
        lengths = np.empty(hi - lo, dtype=np.int64)
        rows = []
        for r in range(lo, hi):
            rng = replicate_rng(cfg.seed, r)
            horizon = sample_horizon(rng, cfg.rho)
            lengths[r - lo] = horizon
            rows.append(rng.random(horizon))
        X = np.zeros((hi - lo, int(lengths.max())))
        for idx, row in enumerate(rows):
            X[idx, : lengths[idx]] = row
        counts[lo:hi] = _simulate_batch(policy, X, lengths)
    return _aggregate(counts, cfg.keep_counts)


def run_offline(
    n: int, reps: int, seed: int, keep_counts: bool = False
) -> RunResult:
    """Full-knowledge baseline: the offline statistic on each replicate."""
    check_horizon(n)
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    counts = np.empty(reps, dtype=np.int64)
    for r in range(reps):
        # tolist keeps the scan in plain-float arithmetic, ~10x faster
        # than iterating numpy scalars at these sizes.
        counts[r] = longest_alternating(replicate_rng(seed, r).random(n).tolist())
    return _aggregate(counts, keep_counts)
