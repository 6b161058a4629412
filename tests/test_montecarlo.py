"""Simulation harness: determinism, stream hygiene, statistical agreement."""

import math
import warnings

import numpy as np
import pytest

from altseq import (
    PolicyKind,
    PolicySpec,
    SimulationConfig,
    optimal_expected,
    permutation_moments,
    replicate_rng,
    run_fixed_horizon,
    run_geometric_horizon,
    run_offline,
    sample_horizon,
    solve_finite,
    value_closed,
)

GREEDY = PolicySpec(PolicyKind.FIXED_THRESHOLD, xi=0.0)
TIMID = PolicySpec(PolicyKind.FIXED_THRESHOLD, xi=0.5)


def test_config_validation(sol_n10):
    with pytest.raises(ValueError):
        SimulationConfig(reps=0, seed=1, policy=GREEDY, n=10)
    with pytest.raises(ValueError):
        SimulationConfig(reps=5, seed=1, policy=GREEDY)  # no horizon
    with pytest.raises(ValueError):
        SimulationConfig(reps=5, seed=1, policy=GREEDY, n=10, rho=0.9)
    with pytest.raises(ValueError):
        SimulationConfig(reps=5, seed=1, policy=GREEDY, rho=1.2)
    with pytest.raises(ValueError):
        SimulationConfig(reps=5, seed=-1, policy=GREEDY, n=10)


def test_horizon_policy_mismatch(sol_n10):
    spec = PolicySpec(PolicyKind.FINITE_OPTIMAL, finite=sol_n10)
    cfg = SimulationConfig(reps=10, seed=1, policy=spec, n=7)
    with pytest.raises(ValueError):
        run_fixed_horizon(cfg)
    cfg = SimulationConfig(reps=10, seed=1, policy=spec, rho=0.9)
    with pytest.raises(ValueError):
        run_geometric_horizon(cfg)


def test_concatenated_is_geometric_only(sol_n10):
    spec = PolicySpec(PolicyKind.CONCATENATED, finite=sol_n10)
    cfg = SimulationConfig(reps=10, seed=1, policy=spec, n=50)
    with pytest.raises(ValueError):
        run_fixed_horizon(cfg)


def test_wrong_runner_for_horizon():
    cfg = SimulationConfig(reps=10, seed=1, policy=GREEDY, n=10)
    with pytest.raises(ValueError):
        run_geometric_horizon(cfg)
    cfg = SimulationConfig(reps=10, seed=1, policy=GREEDY, rho=0.5)
    with pytest.raises(ValueError):
        run_fixed_horizon(cfg)


def test_determinism_bit_identical():
    cfg = SimulationConfig(reps=500, seed=99, policy=GREEDY, n=60, keep_counts=True)
    a = run_fixed_horizon(cfg)
    b = run_fixed_horizon(cfg)
    assert a.mean == b.mean and a.variance == b.variance
    assert np.array_equal(a.per_rep_counts, b.per_rep_counts)
    c = run_fixed_horizon(
        SimulationConfig(reps=500, seed=100, policy=GREEDY, n=60, keep_counts=True)
    )
    assert not np.array_equal(a.per_rep_counts, c.per_rep_counts)


def test_determinism_across_chunk_sizes(monkeypatch):
    import altseq.montecarlo as mc

    cfg = SimulationConfig(reps=333, seed=5, policy=TIMID, n=40, keep_counts=True)
    full = run_fixed_horizon(cfg)
    monkeypatch.setattr(mc, "MAX_CHUNK", 17)
    chunked = run_fixed_horizon(cfg)
    assert np.array_equal(full.per_rep_counts, chunked.per_rep_counts)

    cfg_geo = SimulationConfig(
        reps=333, seed=5, policy=TIMID, rho=0.9, keep_counts=True
    )
    chunked_geo = run_geometric_horizon(cfg_geo)
    monkeypatch.undo()
    full_geo = run_geometric_horizon(cfg_geo)
    assert np.array_equal(full_geo.per_rep_counts, chunked_geo.per_rep_counts)


def test_replicate_streams_are_distinct():
    a = replicate_rng(42, 0).random(100)
    b = replicate_rng(42, 1).random(100)
    assert not np.any(a == b)


def test_replicate_keys_span_the_full_u64_range():
    # seeds at or above 2**63 once passed through float64: neighbours merged
    # and 2**64 - 1 wrapped to key (0, rep) with a RuntimeWarning
    assert not np.array_equal(
        replicate_rng(2**63, 0).random(8), replicate_rng(2**63 + 1000, 0).random(8)
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        top = replicate_rng(2**64 - 1, 3).random(8)
    assert not np.array_equal(top, replicate_rng(0, 3).random(8))
    # below 2**63 the streams are those of the original list key, bit for bit
    for seed in (0, 42, 2**40, 2**63 - 1):
        for rep in (0, 1, 99_999):
            legacy = np.random.Generator(np.random.Philox(key=[seed, rep]))
            assert np.array_equal(replicate_rng(seed, rep).random(8), legacy.random(8))


def test_counts_not_kept_by_default():
    cfg = SimulationConfig(reps=50, seed=2, policy=GREEDY, n=10)
    assert run_fixed_horizon(cfg).per_rep_counts is None


def test_std_error_definition():
    cfg = SimulationConfig(reps=400, seed=3, policy=GREEDY, n=25)
    res = run_fixed_horizon(cfg)
    assert res.std_error == pytest.approx(math.sqrt(res.variance / res.reps))
    assert res.mean >= 0


def test_single_replicate_run():
    res = run_offline(5, reps=1, seed=11)
    assert res.variance == 0.0 and res.std_error == 0.0


def test_offline_single_observation():
    res = run_offline(1, reps=50, seed=4)
    assert res.mean == 1.0 and res.variance == 0.0


def test_offline_moments_match_formulas():
    mean_f, var_f = permutation_moments(100)
    res = run_offline(100, reps=30_000, seed=42)
    assert abs(res.mean - mean_f) < 3 * res.std_error
    assert abs(res.variance - var_f) / var_f < 0.05


def test_geometric_horizon_mean():
    rho, reps, seed = 0.9, 30_000, 42
    ns = np.array(
        [sample_horizon(replicate_rng(seed, r), rho) for r in range(reps)]
    )
    se = ns.std(ddof=1) / math.sqrt(reps)
    assert abs(ns.mean() - 1 / (1 - rho)) < 3 * se


def test_geometric_optimal_recovers_closed_value():
    spec = PolicySpec(PolicyKind.GEOMETRIC_OPTIMAL, rho=0.9)
    cfg = SimulationConfig(reps=40_000, seed=42, policy=spec, rho=0.9)
    res = run_geometric_horizon(cfg)
    assert abs(res.mean - value_closed(0.9)) < 3 * res.std_error


def test_fixed_threshold_value_matches_simulation():
    """Closed form for an arbitrary (non-optimal) threshold vs simulation."""
    from altseq import fixed_threshold_value

    rho, xi = 0.85, 0.2
    cfg = SimulationConfig(
        reps=40_000,
        seed=6,
        policy=PolicySpec(PolicyKind.FIXED_THRESHOLD, xi=xi),
        rho=rho,
    )
    res = run_geometric_horizon(cfg)
    assert abs(res.mean - fixed_threshold_value(rho, xi)) < 3 * res.std_error


def test_finite_optimal_small_horizon_against_dp():
    """n=5 with a million replicates against the DP value."""
    sol = solve_finite(5)
    spec = PolicySpec(PolicyKind.FINITE_OPTIMAL, finite=sol)
    cfg = SimulationConfig(reps=1_000_000, seed=42, policy=spec, n=5)
    res = run_fixed_horizon(cfg)
    dp = optimal_expected(5)
    assert (2 - math.sqrt(2)) * 5 <= dp <= (2 - math.sqrt(2)) * 5 + 5.3431
    assert abs(res.mean - dp) < 3 * res.std_error


def test_no_policy_beats_finite_optimal(sol_n50):
    n, reps, seed = 50, 20_000, 7
    best = run_fixed_horizon(
        SimulationConfig(
            reps=reps,
            seed=seed,
            policy=PolicySpec(PolicyKind.FINITE_OPTIMAL, finite=sol_n50),
            n=n,
        )
    )
    challengers = [
        GREEDY,
        TIMID,
        PolicySpec(PolicyKind.FIXED_THRESHOLD, xi=1 - 1 / math.sqrt(2)),
        PolicySpec(PolicyKind.GEOMETRIC_OPTIMAL, rho=0.95),
    ]
    for spec in challengers:
        res = run_fixed_horizon(
            SimulationConfig(reps=reps, seed=seed, policy=spec, n=n)
        )
        combined = math.sqrt(res.std_error**2 + best.std_error**2)
        assert res.mean <= best.mean + 3 * combined


def test_online_never_beats_offline():
    n, reps, seed = 100, 20_000, 13
    sol = solve_finite(n)
    online = run_fixed_horizon(
        SimulationConfig(
            reps=reps,
            seed=seed,
            policy=PolicySpec(PolicyKind.FINITE_OPTIMAL, finite=sol),
            n=n,
        )
    )
    offline = run_offline(n, reps=reps, seed=seed)
    combined = math.sqrt(online.std_error**2 + offline.std_error**2)
    assert online.mean <= offline.mean + 3 * combined
    # the gap is real: about 12 percent of the offline rate
    assert online.mean < offline.mean


def test_greedy_and_timid_share_the_half_rate():
    n, reps, seed = 10_000, 60, 21
    greedy = run_fixed_horizon(
        SimulationConfig(reps=reps, seed=seed, policy=GREEDY, n=n)
    )
    timid = run_fixed_horizon(
        SimulationConfig(reps=reps, seed=seed, policy=TIMID, n=n)
    )
    combined = math.sqrt(greedy.std_error**2 + timid.std_error**2)
    assert abs(greedy.mean - timid.mean) < 2 * combined
    assert greedy.mean / n == pytest.approx(0.5, abs=0.02)
    assert timid.mean / n == pytest.approx(0.5, abs=0.02)
