"""Policy semantics: thresholds, state recursion, feasibility, regeneration."""

import functools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from altseq import (
    ConcatenatedPolicy,
    FiniteOptimalPolicy,
    FiniteSolution,
    FixedThresholdPolicy,
    GeometricOptimalPolicy,
    is_alternating,
    solve_finite,
    stationary_rate,
    xi0_closed,
)
from altseq import montecarlo
from conftest import seeded_rng

SQRT2 = math.sqrt(2.0)


def contract_threshold(policy, i, y, block_pos):
    """The threshold of observation i in state (y, block_pos), in scalar floats.

    Written from the policies' stated contracts, independently of step_batch:
    both table rules interpolate a stage row as a*(1 - f) + b*f, the
    concatenated rule its block position's row and the finite-optimal rule
    stage i's, at the state clipped at 0.
    """
    if isinstance(policy, ConcatenatedPolicy):
        if block_pos == 0:
            return 5 / 6
        i = block_pos
    elif not isinstance(policy, FiniteOptimalPolicy):
        return max(policy.xi, y)  # fixed threshold, including the geometric-optimal rule
    sol = policy.solution
    row = sol.threshold_row(i)
    u = max(y, 0.0) / float(sol.ys[1] - sol.ys[0])
    j = min(int(u), row.size - 2)
    f = u - j
    return float(row[j]) * (1.0 - f) + float(row[j + 1]) * f


def scalar_step(policy, state, i, x):
    """Reference decision on observation i with value x, one replicate at a time.

    Written from the policy definitions, independently of step_batch. state
    is (y, block_pos); block_pos matters to the concatenated policy only: 0
    while seeking an observation at or above 5/6, otherwise the 1-based
    position inside the current block of n-2 stage-driven steps. Returns
    (selected, next state).
    """
    y, block_pos = state
    selected = x >= contract_threshold(policy, i, y, block_pos)
    y = 1.0 - x if selected else y
    if isinstance(policy, ConcatenatedPolicy) and (selected or block_pos):
        block_pos += 1  # a seeking row that selects starts its block
        if block_pos == policy.n - 1:  # block of n-2 stage-driven steps is spent
            block_pos = 1 if y <= 1 / 6 else 0
    return selected, (y, block_pos)


def scalar_counts(policy, X, lengths=None):
    """Reference path: drive scalar_step() one observation at a time."""
    out = []
    for r in range(X.shape[0]):
        horizon = X.shape[1] if lengths is None else int(lengths[r])
        state = (0.0, 0)
        count = 0
        for i in range(1, horizon + 1):
            selected, state = scalar_step(policy, state, i, float(X[r, i - 1]))
            count += selected
        out.append(count)
    return np.array(out)


def batch_counts(policy, X, lengths=None):
    """Batch path: the runners' slices, each row of X fed through its stream.

    Rows are sorted longest first, and row p's stream yields the row's
    observations in order; counts are returned in the order of the rows of X.
    """
    rows, steps = X.shape
    lengths = np.full(rows, steps) if lengths is None else np.asarray(lengths)
    order = np.argsort(-lengths, kind="stable")

    class Row:
        def __init__(self, values):
            self.values, self.used = values, 0

        def random(self, size=None, out=None):  # as Generator.random: fills out
            if out is None:
                out = np.empty(size)
            self.used += len(out)
            out[:] = self.values[self.used - len(out) : self.used]
            return out

    counts = np.empty(rows, dtype=np.int64)
    counts[order] = montecarlo._simulate_batch(
        policy, lengths[order].tolist(), (Row(X[r]) for r in order), []
    )
    return counts


def step_one(policy, batch, i, x):
    """Batch step of a one-replicate batch; returns whether x was selected."""
    return bool(policy.step_batch(batch, i, np.array([x]))[0])


def replay_raw_selections(policy, X):
    """Map each row's flipped-chain decisions back to raw alternating values."""
    batch = policy.new_batch(X.shape[0])
    raws = [[] for _ in range(X.shape[0])]
    for i in range(1, X.shape[1] + 1):
        for r in np.flatnonzero(policy.step_batch(batch, i, X[:, i - 1])):
            x = float(X[r, i - 1])
            # odd selections are local minima (reflected), even are maxima
            raws[r].append(1.0 - x if len(raws[r]) % 2 == 0 else x)
    return raws


def test_fixed_threshold_validation():
    with pytest.raises(ValueError):
        FixedThresholdPolicy(-0.1)
    with pytest.raises(ValueError):
        FixedThresholdPolicy(0.6)


def test_step_select_and_skip():
    policy = FixedThresholdPolicy(0.2)
    batch = policy.new_batch(2)
    batch["y"][:] = 0.3
    selected = policy.step_batch(batch, 1, np.array([0.8, 0.25]))
    assert selected.tolist() == [True, False]
    assert batch["y"][0] == pytest.approx(0.2) and batch["y"][1] == 0.3


def test_tie_at_threshold_selects():
    policy = FixedThresholdPolicy(0.2)
    batch = policy.new_batch(1)
    assert step_one(policy, batch, 1, 0.2)
    assert batch["y"][0] == pytest.approx(0.8)


def test_state_recursion_is_exact():
    policy = FixedThresholdPolicy(0.0)
    rng = seeded_rng(3)
    batch = policy.new_batch(1)
    for i in range(1, 200):
        x = float(rng.random())
        before = batch["y"][0]
        selected = step_one(policy, batch, i, x)
        assert batch["y"][0] == (1.0 - x if selected else before)


def test_greedy_accepts_anything_feasible():
    policy = FixedThresholdPolicy(0.0)
    batch = policy.new_batch(1)
    # y = 0 at the start, so any observation is feasible
    assert step_one(policy, batch, 1, 0.001)
    assert batch["y"][0] == pytest.approx(0.999)
    # now infeasible until an observation clears 0.999
    assert not step_one(policy, batch, 2, 0.95)


def test_timid_is_half_threshold():
    policy = FixedThresholdPolicy(0.5)
    batch = policy.new_batch(1)
    assert policy.threshold(1, batch["y"][0]) == 0.5
    assert not step_one(policy, batch, 1, 0.49)


def test_geometric_optimal_threshold():
    policy = GeometricOptimalPolicy(0.9)
    assert policy.xi == pytest.approx(0.246870, abs=1e-6)
    assert policy.threshold(1, 0.0) == pytest.approx(xi0_closed(0.9))
    assert policy.threshold(1, 0.7) == pytest.approx(0.7)
    assert np.array_equal(
        policy.threshold(1, np.array([0.0, 0.7])), [policy.xi, 0.7]
    )


def test_finite_optimal_stage_bounds(sol_n10):
    policy = FiniteOptimalPolicy(sol_n10)
    batch = policy.new_batch(1)
    with pytest.raises(ValueError):
        step_one(policy, batch, 0, 0.5)
    with pytest.raises(ValueError):
        step_one(policy, batch, 11, 0.5)


def test_finite_optimal_thresholds_match_solution(sol_n10):
    from altseq import threshold_at

    policy = FiniteOptimalPolicy(sol_n10)
    ys = np.array([0.0, 0.21, 0.68])
    for i in (1, 4, 10):
        curve = policy.threshold(i, ys)
        for y, batch_value in zip(ys, curve):
            expected = threshold_at(sol_n10, i, y)
            assert policy.threshold(i, y) == pytest.approx(expected, abs=1e-9)
            assert batch_value == pytest.approx(expected, abs=1e-9)


def test_concatenated_requires_three_stages(sol_n3):
    ConcatenatedPolicy(sol_n3)
    from altseq import solve_finite

    with pytest.raises(ValueError):
        ConcatenatedPolicy(solve_finite(2, grid_size=51))


def test_concatenated_threshold_needs_the_block_position(sol_n10):
    with pytest.raises(NotImplementedError):
        ConcatenatedPolicy(sol_n10).threshold(1, 0.5)


def test_selected_subsequences_alternate(sol_n10):
    rng = seeded_rng(91)
    policies = [
        FixedThresholdPolicy(0.0),
        FixedThresholdPolicy(0.5),
        FixedThresholdPolicy(1 - 1 / SQRT2),
        GeometricOptimalPolicy(0.9),
        ConcatenatedPolicy(sol_n10),
    ]
    for policy in policies:
        for raw in replay_raw_selections(policy, rng.random((30, 200))):
            assert is_alternating(raw)
            assert len(raw) >= 1
    finite_policy = FiniteOptimalPolicy(sol_n10)
    for raw in replay_raw_selections(finite_policy, rng.random((200, 10))):
        assert is_alternating(raw)


@settings(deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    rows=st.integers(min_value=1, max_value=40),
    horizon=st.integers(min_value=1, max_value=12),
    ragged=st.booleans(),
    shortest=st.integers(min_value=1, max_value=12),
    xi=st.floats(min_value=0.0, max_value=0.5),
    rho=st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
    budget=st.integers(min_value=1, max_value=7),
)
@example(seed=17, rows=40, horizon=10, ragged=False, shortest=1, xi=0.0, rho=0.85, budget=7)
@example(seed=17, rows=40, horizon=10, ragged=False, shortest=1, xi=0.3, rho=0.85, budget=5)
@example(seed=17, rows=40, horizon=10, ragged=True, shortest=1, xi=0.0, rho=0.85, budget=3)
@example(seed=17, rows=40, horizon=10, ragged=True, shortest=1, xi=0.3, rho=0.85, budget=1)
# all lengths equal, a single row, and every length 1
@example(seed=17, rows=40, horizon=10, ragged=True, shortest=10, xi=0.3, rho=0.85, budget=2)
@example(seed=17, rows=1, horizon=10, ragged=True, shortest=1, xi=0.3, rho=0.85, budget=1)
@example(seed=17, rows=40, horizon=1, ragged=True, shortest=1, xi=0.3, rho=0.85, budget=4)
def test_batch_path_matches_scalar_path(
    sol_n3, sol_n10, seed, rows, horizon, ragged, shortest, xi, rho, budget
):
    rng = seeded_rng(seed)
    X = rng.random((rows, horizon))
    # ragged horizons in [shortest, horizon]: rows die at different steps
    low = min(shortest, horizon)
    lengths = rng.integers(low, horizon + 1, size=rows) if ragged else None
    policies = [FixedThresholdPolicy(xi), GeometricOptimalPolicy(rho)]
    policies += [ConcatenatedPolicy(sol_n3), ConcatenatedPolicy(sol_n10)]
    # a budget of a few observations cuts the rows across several slices
    with mock.patch.object(montecarlo, "CHUNK_TARGET_ELEMENTS", budget):
        for policy in policies:
            assert np.array_equal(
                batch_counts(policy, X, lengths), scalar_counts(policy, X, lengths)
            )
        # finite-optimal stages run 1..n: at most the solution's horizon
        for sol in (sol_n3, sol_n10):
            policy = FiniteOptimalPolicy(sol)
            Xn = X[:, : sol.n]
            ln = None if lengths is None else np.minimum(lengths, sol.n)
            assert np.array_equal(
                batch_counts(policy, Xn, ln), scalar_counts(policy, Xn, ln)
            )


@pytest.mark.parametrize(
    "rows, horizon, tile, kinds",
    [
        # 4096 columns in blocks of TILE_ELEMENTS // steps rows: the last is short
        (4096, 24, 100, {"tiled", "short last block"}),
        (1000, 40, None, {"tiled"}),
        # slices of 9 and 10 steps, the second longer than the tile, fill
        # through a tile of one row
        (37, 40, 9, {"tiled", "short last block", "one-row tile"}),
    ],
)
def test_tiled_fill_stores_each_rows_draws_then_zeros(
    sol_n10, monkeypatch, rows, horizon, tile, kinds
):
    rng = seeded_rng(rows)
    X = rng.random((rows, horizon))
    lengths = rng.integers(1, horizon + 1, size=rows)  # rows end inside slices
    if tile is not None:
        monkeypatch.setattr(montecarlo, "TILE_ELEMENTS", tile)
    fill, slices = montecarlo._fill, []

    def recording_fill(S, lengths, t0, rngs, spent):
        running = fill(S, lengths, t0, rngs, spent)
        slices.append((t0, S.copy()))
        return running

    monkeypatch.setattr(montecarlo, "_fill", recording_fill)
    for policy in (FixedThresholdPolicy(0.3), ConcatenatedPolicy(sol_n10)):
        slices.clear()
        assert np.array_equal(
            batch_counts(policy, X, lengths), scalar_counts(policy, X, lengths)
        )
    order = np.argsort(-lengths, kind="stable")
    seen = set()
    for t0, S in slices:
        steps, width = S.shape
        b = max(1, min(width, montecarlo.TILE_ELEMENTS // steps))
        seen.add("tiled" if b > 1 else "one-row tile")
        if width % b and width > b:
            seen.add("short last block")
        # column p holds row order[p]'s draws of these steps, then zeros
        for p, r in enumerate(order[:width]):
            m = min(lengths[r] - t0, steps)
            assert np.array_equal(S[:m, p], X[r, t0 : t0 + m])
            assert not S[m:, p].any()
            if m < steps:
                seen.add("zeroed tail")
    assert seen == kinds | {"zeroed tail"}


def test_coalescence_level_is_one_minus_xi_below_one(sol_n10):
    assert FixedThresholdPolicy(0.5).coalescence_level == 0.5
    assert FixedThresholdPolicy(0.25).coalescence_level == 0.75
    assert FixedThresholdPolicy(1.1e-16).coalescence_level == 1.0 - 2.0**-53
    assert GeometricOptimalPolicy(0.9).coalescence_level == 1.0 - xi0_closed(0.9)
    # 1 - xi rounds to 1.0: no observation is certain to be selected
    for xi in (0.0, 5e-324, 1e-300, 2.0**-54):
        assert FixedThresholdPolicy(xi).coalescence_level is None
    assert GeometricOptimalPolicy(0.5).coalescence_level is None  # xi0 = 0
    assert FixedThresholdPolicy(0.25).coalescence_until is None  # every stage
    assert FiniteOptimalPolicy(sol_n10).coalescence_level is None  # n <= K
    for grid in (3, 4):  # rows that never settle: every stage has its own
        assert FiniteOptimalPolicy(solve_finite(300, grid)).coalescence_level is None
    assert ConcatenatedPolicy(sol_n10).coalescence_level is None
    # Stages 1..n - K + 1 read row 0; no state they reach has a threshold
    # above the level, which is 1/sqrt(2) to 1e-7 at grid 2001.
    for n, grid in ((1000, 2001), (300, 11)):
        policy = FiniteOptimalPolicy(solve_finite(n, grid))
        level, until = policy.coalescence_level, policy.coalescence_until
        assert until == n - len(policy.solution.threshold_table) + 1
        assert 0.5 < level < 1.0
        top = 1.0 - policy.threshold(1, policy.solution.ys).min()
        assert policy.threshold(until, np.linspace(0.0, top, 10_001)).max() <= level
    settled = FiniteOptimalPolicy(solve_finite(1000))
    assert settled.coalescence_level == pytest.approx(0.70710668, abs=1e-8)


@settings(deadline=None, max_examples=30)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    rows=st.integers(min_value=1, max_value=40),
    horizon=st.integers(min_value=520, max_value=2500),
    ragged=st.booleans(),
    xi=st.floats(min_value=0.0, max_value=0.5),
    rho=st.floats(min_value=0.9, max_value=1.0, exclude_max=True),
    span=st.integers(min_value=260, max_value=3000),
)
@example(seed=5, rows=1, horizon=2500, ragged=False, xi=0.5, rho=0.9, span=300)
@example(seed=5, rows=40, horizon=2000, ragged=True, xi=1e-300, rho=0.99, span=700)
@example(seed=5, rows=7, horizon=1000, ragged=True, xi=5e-324, rho=0.999, span=260)
def test_lanes_match_scalar_path(seed, rows, horizon, ragged, xi, rho, span):
    # Rows of at least half the horizon and slices of span >= 260 steps: every
    # first slice is long enough for the geometric-optimal rule (xi0 >= 0.24)
    # to step as lanes; a span below the horizon carries rows across slices.
    rng = seeded_rng(seed)
    X = rng.random((rows, horizon))
    lengths = rng.integers(horizon // 2, horizon + 1, size=rows) if ragged else None
    spy = mock.patch.object(montecarlo, "_step_lanes", wraps=montecarlo._step_lanes)
    with mock.patch.object(montecarlo, "CHUNK_TARGET_ELEMENTS", span * rows):
        for policy in (FixedThresholdPolicy(xi), GeometricOptimalPolicy(rho)):
            with spy as lanes:
                assert np.array_equal(
                    batch_counts(policy, X, lengths), scalar_counts(policy, X, lengths)
                )
    assert lanes.called  # by the geometric-optimal rule


@settings(deadline=None, max_examples=8)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    rows=st.integers(min_value=1, max_value=8),
    n=st.integers(min_value=600, max_value=800),
    ragged=st.booleans(),
    shift=st.integers(min_value=-300, max_value=300),
)
# stage n - K + 1 as a slice's last step, its first, inside it, and inside a later one
@example(seed=5, rows=8, n=700, ragged=False, shift=0)
@example(seed=5, rows=8, n=700, ragged=False, shift=-1)
@example(seed=5, rows=8, n=700, ragged=False, shift=200)
@example(seed=5, rows=8, n=700, ragged=False, shift=-250)
def test_finite_optimal_lanes_match_scalar_path(seed, rows, n, ragged, shift):
    # On grid 101 stages 1..n - 71 read threshold row 0 and step as lanes;
    # slices of until + shift steps put stage until anywhere in a slice.
    policy = FiniteOptimalPolicy(solve_finite(n, 101))
    until = policy.coalescence_until
    assert until == n - 71
    rng = seeded_rng(seed)
    X = rng.random((rows, n))
    lengths = rng.integers(n // 2, n + 1, size=rows) if ragged else None
    step_lanes, lanes = montecarlo._step_lanes, []

    def recording_lanes(policy, view, X, lengths, segments, t0):
        lanes.append((t0, len(X)))
        return step_lanes(policy, view, X, lengths, segments, t0)

    with mock.patch.object(montecarlo, "CHUNK_TARGET_ELEMENTS", (until + shift) * rows):
        with mock.patch.object(montecarlo, "_step_lanes", recording_lanes):
            assert np.array_equal(
                batch_counts(policy, X, lengths), scalar_counts(policy, X, lengths)
            )
    assert lanes and all(t0 + steps <= until for t0, steps in lanes)


@settings(deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    rows=st.integers(min_value=1, max_value=30),
    i=st.integers(min_value=1, max_value=10),
)
def test_dead_rows_keep_their_state(sol_n10, seed, rows, i):
    # The runner steps dead rows on whatever values its chunk holds there.
    rng = seeded_rng(seed)
    x = rng.random(rows)
    edge = rng.integers(0, 3, size=rows)
    x[edge == 1], x[edge == 2] = 0.0, 1.0
    active = rng.random(rows) < 0.5
    policies = [FixedThresholdPolicy(0.0), FixedThresholdPolicy(0.5)]
    policies += [GeometricOptimalPolicy(0.9), FiniteOptimalPolicy(sol_n10)]
    policies += [ConcatenatedPolicy(sol_n10)]
    for policy in policies:
        batch = policy.new_batch(rows)
        batch["y"][:] = rng.random(rows)
        if "block_pos" in batch:
            batch["block_pos"][:] = rng.integers(0, policy.n - 1, size=rows)
        before = {key: value.copy() for key, value in batch.items()}
        selected = policy.step_batch(batch, i, x, active)
        assert not selected[~active].any()
        for key, value in batch.items():
            assert np.array_equal(value[~active], before[key][~active])


def assert_ties_select_and_predecessors_skip(policy, i, y, block_pos, active):
    """Step states (y, block_pos) on x at their contract thresholds, then on the
    float just below: every active tie selects and every predecessor skips;
    selections and next states match scalar_step to the bit."""
    thresholds = np.array(
        [contract_threshold(policy, i, a, b) for a, b in zip(y, block_pos)]
    )
    for x, selects in ((thresholds, True), (np.nextafter(thresholds, 0.0), False)):
        batch = policy.new_batch(y.size)
        batch["y"][:] = y
        if "block_pos" in batch:
            batch["block_pos"][:] = block_pos
        selected = policy.step_batch(batch, i, x, active)
        want = [
            scalar_step(policy, (a, b), i, v) if live else (False, (a, b))
            for a, b, v, live in zip(y, block_pos, x, active)
        ]
        assert np.array_equal(selected, [sel for sel, _ in want])
        y_next = np.array([state[0] for _, state in want])
        assert np.array_equal(batch["y"].view(np.uint64), y_next.view(np.uint64))
        if "block_pos" in batch:
            assert batch["block_pos"].tolist() == [state[1] for _, state in want]
        # a threshold of 0 has no float below it in [0, 1]
        assert np.array_equal(selected, active & (selects | (thresholds == 0.0)))


def edge_states(ys, rng):
    """0, the grid points and their neighbours, random states and 1.0, the
    state after selecting x = 0.0."""
    y = np.concatenate([
        ys, np.nextafter(ys, -1.0), np.nextafter(ys, 2.0), rng.random(100), [0.0, 1.0]
    ])
    return y[(y >= 0.0) & (y <= 1.0)]


@pytest.mark.parametrize("n, grid_size", [(10, 4), (10, 101), (10, 2001), (100, 11)])
def test_concat_tie_selects_and_one_ulp_below_skips(n, grid_size):
    # every block position, seeking (0) included, at every edge state
    policy = ConcatenatedPolicy(solve_finite(n, grid_size))
    rng = seeded_rng(grid_size)
    y = edge_states(policy.solution.ys, rng)
    y, block_pos = np.repeat(y, n - 1), np.tile(np.arange(n - 1), y.size)
    active = rng.random(y.size) < 0.8
    assert_ties_select_and_predecessors_skip(policy, 1, y, block_pos, active)


@pytest.mark.parametrize("grid_size", [3, 4, 11, 101, 2001])
def test_finite_optimal_tie_selects_and_one_ulp_below_skips(grid_size):
    policy = FiniteOptimalPolicy(solved(grid_size))
    rng = seeded_rng(grid_size)
    states = edge_states(policy.solution.ys, rng)
    sol = policy.solution
    for i in range(sol.n - len(sol.threshold_table) + 1, sol.n + 1):  # every row
        y = np.concatenate([[0.0, 1.0], rng.choice(states, min(states.size, 300))])
        active = rng.random(y.size) < 0.8
        assert_ties_select_and_predecessors_skip(policy, i, y, np.zeros(y.size), active)


@pytest.mark.parametrize("xi", [0.0, 0.25, 0.5, xi0_closed(0.9)])
def test_fixed_threshold_tie_selects_and_one_ulp_below_skips(xi):
    policy = FixedThresholdPolicy(xi)
    rng = seeded_rng(7)
    y = edge_states(np.linspace(0.0, 1.0, 101), rng)
    active = rng.random(y.size) < 0.8
    assert_ties_select_and_predecessors_skip(policy, 1, y, np.zeros(y.size), active)
    # x = 0.0 at y = 0 selects under the greedy rule alone, into y = 1.0
    batch = policy.new_batch(1)
    assert step_one(policy, batch, 1, 0.0) == (xi == 0.0)
    assert batch["y"][0] == (1.0 if xi == 0.0 else 0.0)


@settings(deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=3, max_value=12),
    grid_size=st.integers(min_value=2, max_value=80),
    y=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=40),
)
@example(seed=0, n=3, grid_size=11, y=[0.0, 0.9, 0.95, 1.0])
def test_concat_threshold_interpolates_its_stage_row(seed, n, grid_size, y):
    # random tables, so no solver's regularity hides a misread cell or row
    rng = seeded_rng(seed)
    ys = np.linspace(0.0, 1.0, grid_size)
    sol = FiniteSolution(n, ys, rng.random((n, grid_size)))
    y = np.array(y)
    block_pos = rng.integers(0, n - 1, size=y.size)
    active = rng.random(y.size) < 0.8
    policy = ConcatenatedPolicy(sol)
    assert_ties_select_and_predecessors_skip(policy, 1, y, block_pos, active)
    policy, i = FiniteOptimalPolicy(sol), int(rng.integers(1, n + 1))
    assert_ties_select_and_predecessors_skip(policy, i, y, np.zeros(y.size), active)


@settings(deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    grid_size=st.integers(min_value=2, max_value=80),
    skipped=st.integers(min_value=1, max_value=5),
)
def test_coalescence_level_bounds_random_rows(seed, grid_size, skipped):
    # Stages 1..skipped + 1 read row 0 of a random table; at every state they
    # can reach its threshold is at most the level.
    rng = seeded_rng(seed)
    ys = np.linspace(0.0, 1.0, grid_size)
    table = rng.random((3, grid_size))
    policy = FiniteOptimalPolicy(FiniteSolution(3 + skipped, ys, table))
    level = policy.coalescence_level
    if level is None:
        return
    assert policy.coalescence_until == skipped + 1
    top = 1.0 - policy.threshold(1, np.concatenate([ys, rng.random(100)])).min()
    y = np.concatenate([ys, np.nextafter(ys, 0.0), rng.random(200) * top, [top]])
    assert policy.threshold(skipped + 1, y[(y >= 0.0) & (y <= top)]).max() <= level


@functools.cache
def solved(grid_size: int):
    return solve_finite(100, grid_size)  # settled before stage 1 from grid 11


def same_bits(a, b) -> bool:
    return np.array_equal(np.asarray(a).view(np.uint64), np.asarray(b).view(np.uint64))


def assert_threshold_is_the_contract(policy, y):
    """threshold(i, y) equals contract_threshold to the bit at every row, on
    y whole, on slices of half the grid, as two rows of lanes and per scalar."""
    sol = policy.solution
    width = max(1, sol.ys.size // 2)
    lanes = y[: y.size // 2 * 2].reshape(2, -1)
    for i in range(sol.n - len(sol.threshold_table) + 1, sol.n + 1):  # every row
        want = np.array([contract_threshold(policy, i, v, 0) for v in y])
        assert same_bits(policy.threshold(i, y), want)
        for lo in range(0, y.size, width):
            assert same_bits(policy.threshold(i, y[lo : lo + width]), want[lo : lo + width])
        assert same_bits(policy.threshold(i, lanes), want[: lanes.size].reshape(2, -1))
        for state, value in zip(y[-2:], want[-2:]):  # 0.0 and 1.0
            assert same_bits(policy.threshold(i, float(state)), value)


@pytest.mark.parametrize("grid_size", [3, 4, 11, 101, 2001])
def test_threshold_follows_the_table_kernel_contract(grid_size):
    policy = FiniteOptimalPolicy(solved(grid_size))
    ys = policy.solution.ys
    y = np.concatenate([
        seeded_rng(grid_size).random(200),
        ys, np.nextafter(ys, -np.inf), np.nextafter(ys, np.inf), [-0.5, 0.0, 1.0],
    ])
    assert y.size > grid_size  # wider than the grid, and its slices narrower
    assert_threshold_is_the_contract(policy, y)


def test_stationary_rate_values():
    assert stationary_rate(0.5) == pytest.approx(0.5, abs=1e-12)
    assert stationary_rate(0.0) == pytest.approx(0.5, abs=1e-12)
    assert stationary_rate(1 - 1 / SQRT2) == pytest.approx(2 - SQRT2, abs=1e-12)


def test_stationary_rate_domain():
    with pytest.raises(ValueError):
        stationary_rate(-0.01)
    with pytest.raises(ValueError):
        stationary_rate(0.51)


def test_stationary_rate_argmax():
    xs = np.linspace(0.0, 0.5, 500_001)
    rates = (1 - 2 * xs**2) / (2 * (1 - xs))
    best = xs[np.argmax(rates)]
    assert abs(best - (1 - 1 / SQRT2)) < 1e-4


def concat_regenerations(policy, rng, cycles):
    """Drive the policy and log (tau, y) at each regeneration after the first."""
    n = policy.n
    batch = policy.new_batch(1)
    block_pos = batch["block_pos"]
    taus, regen_ys = [], []
    seek_steps = 0
    past_first_block = False
    while len(regen_ys) < cycles:
        prev_bp = int(block_pos[0])
        policy.step_batch(batch, 1, rng.random(1))
        if prev_bp == 0:
            seek_steps += 1
            if block_pos[0] == 1:  # seek ended with a selection
                if past_first_block:
                    taus.append(seek_steps)
                    regen_ys.append(batch["y"][0])
                past_first_block = True
                seek_steps = 0
        elif prev_bp == n - 2 and block_pos[0] == 1:
            taus.append(0)  # immediate regeneration
            regen_ys.append(batch["y"][0])
            seek_steps = 0
    return np.array(taus), np.array(regen_ys)


def test_concatenated_regeneration_distribution(sol_n10):
    from scipy import stats

    policy = ConcatenatedPolicy(sol_n10)
    rng = seeded_rng(4242)
    taus, regen_ys = concat_regenerations(policy, rng, 10_000)
    assert np.all(regen_ys >= 0) and np.all(regen_ys <= 1 / 6 + 1e-12)
    assert taus.mean() < 6.0
    result = stats.kstest(regen_ys, stats.uniform(loc=0, scale=1 / 6).cdf)
    critical_1pct = 1.6276 / math.sqrt(regen_ys.size)
    assert result.statistic < critical_1pct
