"""Seeded, reproducible Monte Carlo evaluation of selection policies.

Replicate streams are counter-based: replicate r of a run with seed s draws
from Philox keyed by (s, r), so results are bit-identical for a given
configuration no matter how replicates are chunked or scheduled, and any
replicate can be regenerated in isolation. Each stream is keyed directly, at
an all-zero counter passed as four words: no OS entropy is read and no
SeedSequence mixes the key, and the draws are those of Philox(key=[s, r]).
Within a stream the draw order is: horizon draw first (geometric runs only),
then the observations. Every run re-keys the Generator of a row drawn to its
end for a later replicate, rather than build a new one; geometric rows draw
their horizons first, so a geometric chunk re-keys the last chunk's.

A chunk of replicates, its rows sorted longest first, is stepped one slice of
steps at a time: a plain steps x rows block with one column per row still
live, cut at CHUNK_TARGET_ELEMENTS observations or where a quarter of its
rows have ended, so a block holds at most 4/3 of its live observations; its
rows draw in place into a row-major tile. A slice narrower than LANE_WIDTH // 8
rows steps as lanes, side by side, in the stages where its policy has a
coalescence level: each row is cut where every state selects. A slice that
would run past those stages (finite-optimal's settled stages 1..n - K + 1) is
cut where they end if they step as lanes; the stages after them step one at a
time.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from ._bellman import mapped_zeros
from .geometric import check_rho
from .finite import check_horizon
from .policies import ConcatenatedPolicy, FiniteOptimalPolicy, Policy
from .sequence import longest_alternating

#: Upper bound on the replicates of a chunk, and so on the streams held at once.
MAX_CHUNK = 8192
#: Observations stored at once: the size of a slice, unless one step is wider.
CHUNK_TARGET_ELEMENTS = 4_000_000
#: Observations in the row-major tile that fills every slice, or one row of a
#: slice whose steps are more. ns per element, columns against tile drawn in
#: place, best of 31 in each of two runs on a shared 2-core Xeon: 20.0-23.9 and
#: 9.2-9.7 at 4096 x 719, 18.5-21.4 and 8.5-10.0 at 1024 x 3900 (rows x steps,
#: all rows live); in each of three: 8.3-8.8 and 6.9-7.4 at 200 x 10000, and
#: 9.8-10.8 and 9.3-10.0 at 50 x 40000, a tile of one row.
TILE_ELEMENTS = 2**16
#: Lanes stepped at once. A slice narrower than LANE_WIDTH // 8 rows steps as
#: lanes if its policy has a coalescence level. ns per observation to step a
#: slice, loop against lanes, median of 15 on a shared 2-core Xeon: 161 and 16.8
#: at 20 rows, 23.5 and 14.0 at 200, 16.1 and 15.9 at 500, 11.1 and 13.0 at
#: 1000; 2048 or 8192 lanes took 15.0 or 14.2 at 200 rows.
LANE_WIDTH = 4096


def check_run(
    reps: int, seed: int, n: int | None = None, rho: float | None = None
) -> None:
    """Valid reps and seed, then exactly one valid horizon: n fixed or rho."""
    if operator.index(reps) < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    if not 0 <= operator.index(seed) < 2**64:
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
    n: int | None = None
    rho: float | None = None

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


class _DirectKey:
    """The seed source of one stream: hands Philox the key (seed, rep) as is.

    Philox keeps its seed source for the stream's life, so this holds two ints
    and no array, and is a module-level class so that a stream still pickles.
    """

    __slots__ = ("seed", "rep")

    def __init__(self, seed: int, rep: int):
        self.seed = seed
        self.rep = rep

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 2 or dtype is not np.uint64:
            raise ValueError("a direct Philox key is two uint64 words")
        return np.array([self.seed, self.rep], dtype=np.uint64)


@functools.cache
def _register_direct_key() -> None:
    """Make _DirectKey a numpy ISeedSequence. Done on first use, so that
    importing the package does not import numpy.random."""
    from numpy.random.bit_generator import ISeedSequence

    ISeedSequence.register(_DirectKey)


#: Every stream's counter at its start, passed as Philox's four words: the int 0
#: would be split into words in Python code on every call. Philox copies it.
_ZERO_COUNTER = np.zeros(4, np.uint64)
_ZERO_COUNTER.setflags(write=False)


def replicate_rng(
    seed: int, rep: int, spent: np.random.Generator | None = None
) -> np.random.Generator:
    """The dedicated stream of one replicate: Philox keyed by (seed, rep).

    The key is installed directly: no OS entropy is read and no SeedSequence
    mixes it, and the draws equal those of Philox(key=[seed, rep]) from the
    all-zero counter. Without spent, the call returns a new Generator, its
    counter passed as words. Given spent, a Generator that an earlier call
    returned and that nothing will draw from again, as every runner passes the
    stream of a row drawn to its end, it re-keys spent in place through
    Philox's state setter, about a third of the cost of a new one, and returns
    it; its seed source then reads (seed, rep). Any other spent raises
    ValueError and is left as it was.
    """
    if spent is not None:
        key = spent.bit_generator._seed_seq
        if type(key) is not _DirectKey:
            raise ValueError("only a stream that replicate_rng built can be re-keyed")
        spent.bit_generator.state = {
            "bit_generator": "Philox",
            "state": {"counter": (0, 0, 0, 0), "key": (seed, rep)},
            "buffer": (0, 0, 0, 0),
            "buffer_pos": 4,  # the buffer is empty: the next draw computes a block
            "has_uint32": 0,
            "uinteger": 0,
        }
        key.seed, key.rep = seed, rep
        return spent
    _register_direct_key()
    return np.random.Generator(np.random.Philox(_DirectKey(seed, rep), _ZERO_COUNTER))


def sample_horizon(rng: np.random.Generator, rho: float) -> int:
    """Draw N with P(N=k) = rho^(k-1)*(1-rho), k >= 1, by exact inversion."""
    u = 1.0 - rng.random()  # uniform on (0, 1]; avoids log(0)
    return 1 + math.floor(math.log(u) / math.log(rho))


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


def _step_lanes(policy, view, X, lengths, segments: int, t0: int) -> np.ndarray:
    """Step a slice's rows as lanes, side by side; returns the rows' counts.

    The slice X (steps x rows, from step t0) is cut into segments of L steps.
    Lane l of a row runs from its first observation at or above the level at
    or after step l*L (lane 0 from step 0) to the next lane's start or the
    row's end. Each lane starts from the row's state, which that observation
    forgets, so the lanes' counts add up to the row's, and the row keeps the
    state of its last lane that stepped.
    """
    T, w = X.shape
    L = -(-T // segments)
    S = -(-T // L)  # no segment is empty
    cuts = np.tile(np.minimum(lengths, t0 + T) - t0, (S + 1, 1))  # row S: the ends
    for s in range(1, S):  # one L x w boolean at a time
        hit = X[s * L : (s + 1) * L] >= policy.coalescence_level
        cuts[s] = np.where(hit.any(0), s * L + hit.argmax(0), T)
    cuts = np.minimum.accumulate(cuts[::-1])[::-1]
    cuts[0] = 0
    start, stop, rows = cuts[:-1], cuts[1:], np.arange(w)
    base, end = start * w + rows, stop * w + rows  # flat indices into X
    lanes = {key: np.broadcast_to(v, (S, w)).copy() for key, v in view.items()}
    tally = np.zeros((S, w), dtype=np.int64)
    flat = X.reshape(-1)
    for i in range(t0 + 1, t0 + 1 + int(np.max(stop - start))):
        tally += policy.step_batch(lanes, i, flat.take(base, mode="clip"), base < end)
        base += w
    last = S - 1 - (stop > start)[::-1].argmax(0)
    for key, v in view.items():
        v[:] = lanes[key][last, rows]
    return tally.sum(0)


def _fill(X, lengths: list, t0: int, rngs, spent: list) -> list:
    """Fill slice X (steps x rows, from step t0) with the next draws of the
    rows whose streams rngs yields in order, zeros past their ends; returns the
    streams of the rows that outlive X. A row drawn to its end hands its stream
    to spent at once, so that a later row of X may re-key it.

    Rows draw in place into a row-major tile of TILE_ELEMENTS // steps rows, at
    least one, copied into X a block of columns at a time and zeroed first if a
    row of the block ends in X.
    """
    T, w = X.shape
    t1, rngs = t0 + T, iter(rngs)
    tile = np.empty((max(1, min(w, TILE_ELEMENTS // T)), T))
    b, running = len(tile), []
    for p0 in range(0, w, b):
        block = X[:, p0 : p0 + b].T
        rows = tile[: len(block)]
        if lengths[p0 + len(block) - 1] < t1:
            rows[:] = 0.0
        for j, (h, rng) in enumerate(zip(lengths[p0 : p0 + b], rngs)):
            rng.random(out=rows[j, : h - t0])
            (running if h > t1 else spent).append(rng)
        block[:] = rows
    return running


def _simulate_batch(policy: Policy, lengths: list, streams, spent: list) -> np.ndarray:
    """Run rows of non-increasing lengths through the policy; returns counts.

    streams yields the rows' Generators in row order, each at its row's first
    observation. A row keeps its stream from slice to slice, and once drawn to
    its end hands it to spent for the runner to re-key. Each slice fills through
    _fill's tile and steps its w live rows alone; it ends where a quarter of
    them have ended, so it holds at most 4/3 of its live observations, or at
    CHUNK_TARGET_ELEMENTS unless one step is wider, or, if it steps as lanes, at
    the policy's coalescence_until.

    A slice stepped one observation at a time passes active=None while all
    its rows are live; from the step where the first of them has ended, one
    boolean mask, True on rows 0..k-1 of the k still live, cleared in place
    as rows end. So every call sees a row live exactly while i is at most its
    length, and dead rows neither select nor change state.
    """
    t0, w = 0, len(lengths)
    batch, counts = policy.new_batch(w), np.zeros(w, dtype=np.int64)
    level, until = policy.coalescence_level, policy.coalescence_until
    while w:
        t1 = min(lengths[w - 1 - w // 4], t0 + max(1, CHUNK_TARGET_ELEMENTS // w))
        t2 = t1 if until is None else min(t1, until)  # the steps the level holds in
        # segments of >= 36 / -ln(level) steps: 4x the longest overshoot of 8192 lanes
        segments = 0 if level is None or w >= LANE_WIDTH // 8 else min(
            -(-LANE_WIDTH // w), (t2 - t0) // math.ceil(36 / -math.log(level))
        )
        if segments >= 2:
            t1 = t2  # the later stages go to the next slice
        X = mapped_zeros((t1 - t0, w))
        running = _fill(X, lengths, t0, streams, spent)
        view = {key: v[:w] for key, v in batch.items()}
        if segments >= 2:
            counts[:w] += _step_lanes(policy, view, X, lengths[:w], segments, t0)
        else:
            tally, active, k = counts[:w], None, w
            for i, x in enumerate(X, start=t0 + 1):
                if lengths[k - 1] < i:
                    if active is None:
                        active = np.ones(w, dtype=bool)
                    while lengths[k - 1] < i:  # k rows have horizon >= i
                        k -= 1
                        active[k] = False
                tally += policy.step_batch(view, i, x, active)
        X = x = None  # unmapped before the next slice is mapped
        streams, t0, w = running, t1, len(running)
    return counts


def run_fixed_horizon(cfg: SimulationConfig) -> RunResult:
    """Evaluate cfg.policy on n i.i.d. uniform observations per replicate."""
    if cfg.n is None:
        raise ValueError("run_fixed_horizon needs a fixed-horizon config")
    counts = np.empty(cfg.reps, dtype=np.int64)
    chunk = max(1, min(MAX_CHUNK, CHUNK_TARGET_ELEMENTS // cfg.n))
    spent = []  # the Generators of rows drawn to their end, to re-key
    for lo in range(0, cfg.reps, chunk):
        reps = range(lo, cfg.reps)[:chunk]
        counts[lo : lo + len(reps)] = _simulate_batch(
            cfg.policy,
            [cfg.n] * len(reps),
            (replicate_rng(cfg.seed, r, spent.pop() if spent else None) for r in reps),
            spent,
        )
    return _aggregate(counts)


def run_geometric_horizon(cfg: SimulationConfig) -> RunResult:
    """Evaluate cfg.policy on a geometric-size sample per replicate.

    Each replicate draws its horizon from its own stream, then that many
    observations from the same stream once the horizons are sorted. A chunk
    builds its streams by re-keying those of the last chunk, all spent.
    """
    if cfg.rho is None:
        raise ValueError("run_geometric_horizon needs a geometric-horizon config")
    counts = np.empty(cfg.reps, dtype=np.int64)
    spent = []  # the Generators of rows drawn to their end, to re-key
    for lo in range(0, cfg.reps, MAX_CHUNK):
        reps = range(lo, cfg.reps)[:MAX_CHUNK]
        rngs = [
            replicate_rng(cfg.seed, r, spent.pop() if spent else None) for r in reps
        ]
        lengths = np.array([sample_horizon(rng, cfg.rho) for rng in rngs])
        order = np.argsort(-lengths, kind="stable")
        counts[lo + order] = _simulate_batch(
            cfg.policy, lengths[order].tolist(), (rngs[p] for p in order), spent
        )
    return _aggregate(counts)


def _offline_count(rng, n: int) -> int:
    """The offline statistic of rng's next n draws, CHUNK_TARGET_ELEMENTS at a time.

    A row within the budget is scanned in one call. Otherwise each slice is
    scanned after the previous slice's last draw, the scan's kept value, and
    negated in place where the count so far is even: the scan then wants a
    fall. A float64 memoryview yields plain floats, read in place: no copy.
    """
    if n <= CHUNK_TARGET_ELEMENTS:
        return longest_alternating(memoryview(rng.random(n)))
    buf = mapped_zeros(CHUNK_TARGET_ELEMENTS + 1)
    count = 1
    for lo in range(0, n, CHUNK_TARGET_ELEMENTS):
        s = buf[: min(CHUNK_TARGET_ELEMENTS, n - lo) + 1]
        rng.random(out=s[1:])
        s[0] = s[1] if lo == 0 else last  # a tie: the first slice scans as is
        last = s[-1]
        if count % 2 == 0:
            np.negative(s, out=s)
        count += longest_alternating(memoryview(s)) - 1
    return count


def run_offline(n: int, reps: int, seed: int) -> RunResult:
    """Full-knowledge baseline: the offline statistic on each replicate."""
    check_run(reps, seed, n)
    counts = np.empty(reps, dtype=np.int64)
    rng = None  # each replicate re-keys the last one's Generator
    for r in range(reps):
        rng = replicate_rng(seed, r, rng)
        counts[r] = _offline_count(rng, n)
    return _aggregate(counts)
