"""Policy semantics: thresholds, state recursion, feasibility, regeneration."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from altseq import (
    ConcatenatedPolicy,
    FiniteOptimalPolicy,
    FixedThresholdPolicy,
    GeometricOptimalPolicy,
    is_alternating,
    stationary_rate,
    xi0_closed,
)
from conftest import seeded_rng

SQRT2 = math.sqrt(2.0)


def scalar_step(policy, state, i, x):
    """Reference decision on observation i with value x, one replicate at a time.

    Written from the policy definitions, independently of step_batch. state
    is (y, block_pos); block_pos matters to the concatenated policy only: 0
    while seeking an observation at or above 5/6, otherwise the 1-based
    position inside the current block of n-2 stage-driven steps. Returns
    (selected, next state).
    """
    y, block_pos = state
    if isinstance(policy, ConcatenatedPolicy):
        if block_pos == 0:
            return (True, (1.0 - x, 1)) if x >= 5 / 6 else (False, state)
        sol = policy.solution
        threshold = float(np.interp(y, sol.ys, sol.threshold_table[block_pos - 1]))
        selected = x >= threshold
        y = 1.0 - x if selected else y
        block_pos += 1
        if block_pos == policy.n - 1:  # block of n-2 stage-driven steps is spent
            block_pos = 1 if y <= 1 / 6 else 0
        return selected, (y, block_pos)
    if isinstance(policy, FiniteOptimalPolicy):
        if not 1 <= i <= policy.n:
            raise ValueError(f"step index {i} outside 1..{policy.n}")
        sol = policy.solution
        threshold = float(np.interp(y, sol.ys, sol.threshold_table[i - 1]))
    else:  # fixed threshold, including the geometric-optimal rule
        threshold = max(policy.xi, y)
    if x >= threshold:
        return True, (1.0 - x, block_pos)
    return False, state


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
    from altseq.montecarlo import _simulate_batch

    return _simulate_batch(policy, X, lengths)


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
    horizon=st.integers(min_value=3, max_value=12),
    ragged=st.booleans(),
    xi=st.floats(min_value=0.0, max_value=0.5),
    rho=st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
)
@example(seed=17, rows=40, horizon=10, ragged=False, xi=0.0, rho=0.85)
@example(seed=17, rows=40, horizon=10, ragged=False, xi=0.3, rho=0.85)
@example(seed=17, rows=40, horizon=10, ragged=True, xi=0.0, rho=0.85)
@example(seed=17, rows=40, horizon=10, ragged=True, xi=0.3, rho=0.85)
def test_batch_path_matches_scalar_path(
    sol_n3, sol_n10, seed, rows, horizon, ragged, xi, rho
):
    rng = seeded_rng(seed)
    X = rng.random((rows, horizon))
    # ragged horizons, as the geometric runner pads them
    lengths = rng.integers(1, horizon + 1, size=rows) if ragged else None
    policies = [FixedThresholdPolicy(xi), GeometricOptimalPolicy(rho)]
    policies += [ConcatenatedPolicy(sol_n3), ConcatenatedPolicy(sol_n10)]
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
