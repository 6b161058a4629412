"""Simulation harness: determinism, stream hygiene, statistical agreement."""

import hashlib
import math
import pickle
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from altseq import (
    ConcatenatedPolicy,
    FiniteOptimalPolicy,
    FixedThresholdPolicy,
    GeometricOptimalPolicy,
    SimulationConfig,
    longest_alternating,
    optimal_expected,
    permutation_moments,
    replicate_rng,
    run_fixed_horizon,
    run_geometric_horizon,
    run_offline,
    sample_horizon,
    solve_finite,
    solve_flipped,
    value_closed,
)
from altseq import _bellman, montecarlo

GREEDY = FixedThresholdPolicy(0.0)
TIMID = FixedThresholdPolicy(0.5)


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


@pytest.mark.parametrize(
    "call",
    [
        lambda: solve_finite(2.5),
        lambda: optimal_expected(2.5),
        lambda: SimulationConfig(reps=5, seed=1.5, policy=GREEDY, n=5),
        lambda: SimulationConfig(reps=2.5, seed=1, policy=GREEDY, n=5),
        lambda: SimulationConfig(reps=5, seed=1, policy=GREEDY, n=2.5),
        lambda: solve_flipped(0.9, grid_size=11.0),
    ],
    ids=["solve_finite-n", "optimal_expected-n", "seed", "reps", "n", "grid_size"],
)
def test_integer_inputs_must_be_integers(monkeypatch, call):
    # 2.5 must be refused, not truncated to 2, and before any work is done
    def no_work(*args, **kwargs):
        raise AssertionError("work began on a non-integer input")

    monkeypatch.setattr(_bellman, "apply_flipped", no_work)
    monkeypatch.setattr(_bellman, "mapped_zeros", no_work)
    with pytest.raises((TypeError, ValueError)):
        call()


def test_horizon_policy_mismatch(sol_n10):
    policy = FiniteOptimalPolicy(sol_n10)
    with pytest.raises(ValueError):
        cfg = SimulationConfig(reps=10, seed=1, policy=policy, n=7)
        run_fixed_horizon(cfg)
    with pytest.raises(ValueError):
        cfg = SimulationConfig(reps=10, seed=1, policy=policy, rho=0.9)
        run_geometric_horizon(cfg)


def test_concatenated_is_geometric_only(sol_n10):
    policy = ConcatenatedPolicy(sol_n10)
    with pytest.raises(ValueError):
        cfg = SimulationConfig(reps=10, seed=1, policy=policy, n=50)
        run_fixed_horizon(cfg)


@pytest.mark.parametrize(
    "kind, horizon, fits",
    [
        ("finite", {"n": 10}, True),
        ("finite", {"n": 7}, False),
        ("finite", {"n": 11}, False),
        ("finite", {"rho": 0.9}, False),
        ("concat", {"rho": 0.9}, True),
        ("concat", {"n": 10}, False),
        ("concat", {"n": 50}, False),
    ],
)
def test_config_checks_that_policy_and_horizon_fit(sol_n10, kind, horizon, fits):
    make = {"finite": FiniteOptimalPolicy, "concat": ConcatenatedPolicy}[kind]
    policy = make(sol_n10)
    if fits:
        SimulationConfig(reps=10, seed=1, policy=policy, **horizon)
    else:
        with pytest.raises(ValueError, match="needs"):
            SimulationConfig(reps=10, seed=1, policy=policy, **horizon)


def test_wrong_runner_for_horizon():
    cfg = SimulationConfig(reps=10, seed=1, policy=GREEDY, n=10)
    with pytest.raises(ValueError):
        run_geometric_horizon(cfg)
    cfg = SimulationConfig(reps=10, seed=1, policy=GREEDY, rho=0.5)
    with pytest.raises(ValueError):
        run_fixed_horizon(cfg)


def test_determinism_bit_identical():
    cfg = SimulationConfig(reps=500, seed=99, policy=GREEDY, n=60)
    a = run_fixed_horizon(cfg)
    b = run_fixed_horizon(cfg)
    assert a.mean == b.mean and a.variance == b.variance
    assert np.array_equal(a.per_rep_counts, b.per_rep_counts)
    c = run_fixed_horizon(SimulationConfig(reps=500, seed=100, policy=GREEDY, n=60))
    assert not np.array_equal(a.per_rep_counts, c.per_rep_counts)


def test_determinism_across_chunk_sizes(monkeypatch):
    import altseq.montecarlo as mc

    cfg = SimulationConfig(reps=333, seed=5, policy=TIMID, n=40)
    full = run_fixed_horizon(cfg)
    monkeypatch.setattr(mc, "MAX_CHUNK", 17)
    chunked = run_fixed_horizon(cfg)
    assert np.array_equal(full.per_rep_counts, chunked.per_rep_counts)

    cfg_geo = SimulationConfig(reps=333, seed=5, policy=TIMID, rho=0.9)
    chunked_geo = run_geometric_horizon(cfg_geo)
    monkeypatch.undo()
    full_geo = run_geometric_horizon(cfg_geo)
    assert np.array_equal(full_geo.per_rep_counts, chunked_geo.per_rep_counts)


@settings(deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    reps=st.integers(min_value=1, max_value=30),
    max_chunk=st.integers(min_value=1, max_value=7),
    target_elements=st.integers(min_value=1, max_value=7),
    n=st.integers(min_value=1, max_value=8),
    xi=st.floats(min_value=0.0, max_value=0.5),
    rho=st.floats(min_value=0.3, max_value=0.9),
    solved=st.booleans(),
)
def test_counts_do_not_depend_on_chunk_sizes(
    sol_n3, seed, reps, max_chunk, target_elements, n, xi, rho, solved
):
    import altseq.montecarlo as mc

    if solved:
        policy, n = FiniteOptimalPolicy(sol_n3), 3
        geo_policy = ConcatenatedPolicy(sol_n3)
    else:
        policy = geo_policy = FixedThresholdPolicy(xi)
    run = dict(reps=reps, seed=seed)
    fixed = SimulationConfig(policy=policy, n=n, **run)
    geo = SimulationConfig(policy=geo_policy, rho=rho, **run)
    full = run_fixed_horizon(fixed).per_rep_counts
    full_geo = run_geometric_horizon(geo).per_rep_counts
    with mock.patch.object(mc, "MAX_CHUNK", max_chunk), mock.patch.object(
        mc, "CHUNK_TARGET_ELEMENTS", target_elements
    ):
        assert np.array_equal(run_fixed_horizon(fixed).per_rep_counts, full)
        assert np.array_equal(run_geometric_horizon(geo).per_rep_counts, full_geo)


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


U64_EDGES = [0, 1, 2**63 - 1, 2**63, 2**63 + 1, 2**64 - 2, 2**64 - 1]
U64 = st.one_of(st.sampled_from(U64_EDGES), st.integers(0, 2**64 - 1))


@settings(deadline=None)
@given(a=U64, b=U64, rep_a=st.integers(0, 3), rep_b=st.integers(0, 3))
@example(a=2**63 - 1, b=2**63, rep_a=0, rep_b=0)
@example(a=2**63, b=2**63 + 1, rep_a=0, rep_b=0)
@example(a=2**63 - 1, b=2**63 + 1, rep_a=1, rep_b=1)
@example(a=2**64 - 1, b=2**64 - 2, rep_a=0, rep_b=0)
@example(a=2**64 - 1, b=0, rep_a=2, rep_b=2)
def test_streams_stay_distinct_across_the_u64_seed_range(a, b, rep_a, rep_b):
    assume((a, rep_a) != (b, rep_b))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x = replicate_rng(a, rep_a).random(16)
        y = replicate_rng(b, rep_b).random(16)
    assert not np.any(x == y)


@settings(deadline=None)
@given(seed=U64, rep=U64, k=st.integers(0, 64))
@example(seed=0, rep=0, k=8)
@example(seed=42, rep=7, k=8)
@example(seed=2**64 - 1, rep=5, k=8)
@example(seed=2**63 + 5, rep=123456, k=8)
def test_streams_are_philox_keyed_directly(seed, rep, k):
    key = np.array([seed, rep], dtype=np.uint64)
    reference = np.random.Generator(np.random.Philox(key=key))
    fresh = reference.bit_generator.state
    ours, twin = replicate_rng(seed, rep), replicate_rng(seed, rep)
    np.testing.assert_equal(ours.bit_generator.state, fresh)
    # the geometric draw order: one scalar horizon draw, then the observations
    assert ours.random() == reference.random()
    assert np.array_equal(ours.random(k), reference.random(k))
    # the same key twice gives two streams: drawing from one leaves the other
    np.testing.assert_equal(twin.bit_generator.state, fresh)
    assert not twin.bit_generator.state["state"]["counter"].any()
    # a stream pickles, its seed source included, and resumes where it was
    resumed = pickle.loads(pickle.dumps(ours))
    assert np.array_equal(resumed.random(4), reference.random(4))


@pytest.mark.parametrize("seed", [0, 42, 2**63 + 5, 2**64 - 1])
def test_streams_start_at_the_shared_zero_counter(seed):
    zero = montecarlo._ZERO_COUNTER
    with pytest.raises(ValueError):
        zero[0] = 1  # read-only: no stream can move another's start
    drawn = replicate_rng(seed, 0)
    drawn.random(1000)
    pickle.loads(pickle.dumps(drawn)).random(10)
    for rep in (1, 2**64 - 1):
        # built after another stream has drawn, a stream still starts at 0
        key = np.array([seed, rep], dtype=np.uint64)
        ours, reference = replicate_rng(seed, rep), np.random.Philox(key=key)
        np.testing.assert_equal(ours.bit_generator.state, reference.state)
        assert not ours.bit_generator.state["state"]["counter"].any()
        ours.random(7)
    assert zero.dtype == np.uint64 and zero.tolist() == [0, 0, 0, 0]
    assert not zero.flags.writeable


def test_a_direct_key_serves_only_philox_requests():
    key = montecarlo._DirectKey(1, 2)
    assert key.generate_state(2, np.uint64).tolist() == [1, 2]
    for n_words, dtype in [(4, np.uint32), (1, np.uint64), (2, np.uint32)]:
        with pytest.raises(ValueError):
            key.generate_state(n_words, dtype)


def spend(kind: str, k: int) -> np.random.Generator:
    """A stream of replicate_rng's as a row leaves it: fresh, mid-block after
    k doubles, or holding half a word after one 32-bit draw."""
    rng = replicate_rng(k, 2**64 - 1 - k)
    if kind == "doubles":
        rng.random(k)
    elif kind == "uint32":
        rng.integers(0, 10, dtype=np.uint32)
        assert rng.bit_generator.state["has_uint32"] == 1
    return rng


@settings(deadline=None)
@given(
    seed=U64,
    rep=U64,
    kind=st.sampled_from(["fresh", "doubles", "uint32"]),
    k=st.integers(0, 9),
)
@example(seed=0, rep=0, kind="uint32", k=0)
@example(seed=2**64 - 1, rep=2**64 - 1, kind="doubles", k=5)
@example(seed=42, rep=7, kind="doubles", k=4)
def test_rekeyed_streams_equal_fresh_ones(seed, rep, kind, k):
    spent = spend(kind, k)
    ours, fresh = replicate_rng(seed, rep, spent), replicate_rng(seed, rep)
    assert ours is spent
    np.testing.assert_equal(ours.bit_generator.state, fresh.bit_generator.state)
    key = ours.bit_generator._seed_seq
    assert (key.seed, key.rep) == (seed, rep)
    assert key.generate_state(2, np.uint64).tolist() == [seed, rep]
    # the horizon draw first, then the observations, as Philox(key=[seed, rep])
    reference = np.random.Generator(
        np.random.Philox(key=np.array([seed, rep], dtype=np.uint64))
    )
    assert ours.random() == reference.random()
    assert np.array_equal(ours.random(k), reference.random(k))
    # it pickles mid-stream and resumes where it was
    resumed = pickle.loads(pickle.dumps(ours))
    assert np.array_equal(resumed.random(6), reference.random(6))


def test_rekey_refuses_streams_it_did_not_build():
    for foreign in (np.random.default_rng(0), np.random.Generator(np.random.Philox(1))):
        foreign.random(3)
        before = foreign.bit_generator.state
        with pytest.raises(ValueError):
            replicate_rng(1, 2, foreign)
        np.testing.assert_equal(foreign.bit_generator.state, before)


@pytest.mark.parametrize(
    "run, patch, built",
    [
        # rows that end in the first slice: one Generator for every replicate
        (("greedy", 10, 300), {}, 1),
        (("greedy", 10, 300), {"MAX_CHUNK": 7}, 1),
        (("finite-optimal", 12, 50), {"MAX_CHUNK": 4}, 1),
        # rows that outlive the first slice: a chunk's Generators are re-keyed
        # by the next chunk
        (("greedy", 60, 5), {"CHUNK_TARGET_ELEMENTS": 50}, 1),
        (("timid", 30, 12), {"CHUNK_TARGET_ELEMENTS": 25, "MAX_CHUNK": 3}, 1),
        # finite-optimal's settled stages cut at coalescence_until = 629
        (("finite-optimal", 700, 8), {"MAX_CHUNK": 3}, 3),
        # offline rows longer than a tile, scanned one piece at a time, and
        # rows within one
        (("offline", 1000, 6), {"TILE_ELEMENTS": 128}, 1),
        (("offline", 20, 40), {}, 1),
        # geometric rows draw their horizons before any steps: a chunk re-keys
        # the last one's Generators, so only the first chunk builds them
        (("geometric", 0.9, 23), {"MAX_CHUNK": 5}, 5),
        (("geometric", 0.9, 23), {"MAX_CHUNK": 5, "CHUNK_TARGET_ELEMENTS": 10}, 5),
    ],
)
def test_rekeyed_runs_match_fresh_streams(monkeypatch, run, patch, built):
    name, n, reps = run
    seed = 2**63 + 11
    if name == "finite-optimal":
        policy = FiniteOptimalPolicy(solve_finite(n, 101 if n > 100 else 2001))
    elif name == "geometric":
        policy, rho = GeometricOptimalPolicy(n), n
    else:
        policy = {"greedy": GREEDY, "timid": TIMID, "offline": None}[name]

    def counts():
        if policy is None:
            return run_offline(n, reps, seed).per_rep_counts
        if name == "geometric":
            cfg = SimulationConfig(reps=reps, seed=seed, policy=policy, rho=rho)
            return run_geometric_horizon(cfg).per_rep_counts
        cfg = SimulationConfig(reps=reps, seed=seed, policy=policy, n=n)
        return run_fixed_horizon(cfg).per_rep_counts

    original, fill = montecarlo.replicate_rng, montecarlo._fill
    for key, value in patch.items():
        monkeypatch.setattr(montecarlo, key, value)
    # the reference builds a new stream for every row
    monkeypatch.setattr(
        montecarlo, "replicate_rng", lambda seed, rep, spent=None: original(seed, rep)
    )
    fresh = counts()
    running, calls, outlived = [], [], []

    def recording_fill(X, lengths, t0, rngs, spent):
        running[:] = fill(X, lengths, t0, rngs, spent)
        outlived.append(bool(running))
        return running

    def checked_rekey(seed, rep, spent=None):
        calls.append(spent is None)
        if spent is not None:
            # never a stream a live row holds: its row has drawn all its values
            assert not any(spent is rng for rng in running)
            key = spent.bit_generator._seed_seq
            words = n  # one word per double
            if name == "geometric":  # the horizon draw, then that many doubles
                words = 1 + sample_horizon(original(key.seed, key.rep), rho)
            ended = original(key.seed, key.rep).bit_generator
            ended.random_raw(words)
            np.testing.assert_equal(spent.bit_generator.state, ended.state)
        return original(seed, rep, spent)

    scan, pieces = montecarlo._count_runs, []

    def counted_scan(piece, *state):
        pieces.append(len(piece))
        return scan(piece, *state)

    monkeypatch.setattr(montecarlo, "_fill", recording_fill)
    monkeypatch.setattr(montecarlo, "replicate_rng", checked_rekey)
    monkeypatch.setattr(montecarlo, "_count_runs", counted_scan)
    assert np.array_equal(counts(), fresh)
    assert len(calls) == reps and sum(calls) == built
    if name == "geometric":  # ragged rows outlive the slices they start in
        assert any(outlived)
    tile = montecarlo.TILE_ELEMENTS  # a row longer than a tile: one scan per piece
    pieces_per_row = -(-n // tile) if name == "offline" and n > tile else 0
    assert len(pieces) == reps * pieces_per_row


def test_result_carries_its_counts():
    run = dict(reps=50, seed=2, policy=GREEDY)
    for res in (
        run_fixed_horizon(SimulationConfig(n=10, **run)),
        run_geometric_horizon(SimulationConfig(rho=0.9, **run)),
        run_offline(10, reps=50, seed=2),
    ):
        assert res.per_rep_counts.shape == (50,)
        assert res.mean == res.per_rep_counts.mean()


#: sha256 of per_rep_counts.tobytes(), recorded before chunks were stored
#: step-major; the layout must not change a single count.
GOLDEN_COUNTS = {
    "geometric-optimal": "10d35d666f486d93321d2ef618977c63a59a2b64a02b9fc6a9712a356e5e4878",
    "concat": "2734d232b2f2fe8f503179a28d7002bc16cf88b4f6dec69d4fe888c4ceda712c",
    "finite-optimal": "d993a1f21f97e453b6b8865cffd4f2ffba8d29fa67991c5cd974bf58de772bbf",
    # 4096 rows at rho 0.999: 4096-wide slices and a tail of single rows
    # that runs to step 8003
    "geometric-optimal-4096": "05a10ea623cd1483d459c756160cc07804925774a95854f3845540baa1ce99a2",
    "concat-4096": "4758e45c2e59ed4e8b05717ae3f55067578c6baf4aab894e7c5e343ba99add37",
}


def test_counts_match_recorded_digests(sol_n10, sol_n50):
    geo = dict(reps=512, seed=42, rho=0.99)
    wide = dict(reps=4096, seed=42, rho=0.999)
    runs = {
        "geometric-optimal": run_geometric_horizon(
            SimulationConfig(policy=GeometricOptimalPolicy(0.99), **geo)
        ),
        "concat": run_geometric_horizon(
            SimulationConfig(policy=ConcatenatedPolicy(sol_n10), **geo)
        ),
        "geometric-optimal-4096": run_geometric_horizon(
            SimulationConfig(policy=GeometricOptimalPolicy(0.999), **wide)
        ),
        "concat-4096": run_geometric_horizon(
            SimulationConfig(policy=ConcatenatedPolicy(sol_n50), **wide)
        ),
        "finite-optimal": run_fixed_horizon(
            SimulationConfig(
                reps=300, seed=42, policy=FiniteOptimalPolicy(solve_finite(12)), n=12
            )
        ),
    }
    for name, res in runs.items():
        digest = hashlib.sha256(res.per_rep_counts.tobytes()).hexdigest()
        assert digest == GOLDEN_COUNTS[name], name


def record_mappings(monkeypatch):
    """Patch the runners' allocator; returns the list of shapes it maps."""
    mapped = []

    def mapped_zeros(shape):
        mapped.append(shape)
        return _bellman.mapped_zeros(shape)

    monkeypatch.setattr(montecarlo, "mapped_zeros", mapped_zeros)
    return mapped


def test_geometric_chunk_memory_follows_the_drawn_horizons(monkeypatch):
    reps, seed, rho = 2048, 11, 0.995
    lengths = [sample_horizon(replicate_rng(seed, r), rho) for r in range(reps)]
    total = sum(lengths)
    assert total == 417_048
    cfg = SimulationConfig(
        reps=reps, seed=seed, policy=GeometricOptimalPolicy(rho), rho=rho
    )
    # tracemalloc sees the C heap only; the slices are mapped outside it
    mapped = record_mappings(monkeypatch)
    tracemalloc.start()
    try:
        run_geometric_horizon(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # slices follow each other down the steps, one column per row still live
    t0, held = 0, []
    for steps, width in mapped:
        assert width == sum(h > t0 for h in lengths)
        live = sum(min(max(h - t0, 0), steps) for h in lengths)
        assert steps * width <= 2 * live
        held.append(live)
        t0 += steps
    assert t0 == max(lengths) and sum(held) == total
    # the one step-major chunk with its spare slots took 419,095
    assert max(steps * width for steps, width in mapped) <= 419_095
    # a chunk padded to its longest horizon would take about ten times this
    assert peak + 8 * total <= 3 * 8 * total


def test_geometric_chunks_obey_the_element_budget(monkeypatch):
    reps, seed, rho, budget = 2048, 11, 0.995, 50_000
    cfg = SimulationConfig(
        reps=reps, seed=seed, policy=GeometricOptimalPolicy(rho), rho=rho
    )
    unpatched = run_geometric_horizon(cfg).per_rep_counts
    mapped = record_mappings(monkeypatch)
    monkeypatch.setattr(montecarlo, "CHUNK_TARGET_ELEMENTS", budget)
    counts = run_geometric_horizon(cfg).per_rep_counts
    assert len(mapped) > 1
    assert all(steps * width <= budget for steps, width in mapped)
    assert np.array_equal(counts, unpatched)


@pytest.mark.parametrize(
    "rows, seed, rho, budget",
    [
        (4096, 42, 0.999, None),
        (1000, 7, 0.999, None),
        (1000, 7, 0.999, 20_000),
        (300, 3, 0.99, 100),  # 300 rows: slices of one step, wider than the budget
    ],
)
def test_ragged_slices_hold_at_most_four_thirds_of_their_live_cells(
    monkeypatch, rows, seed, rho, budget
):
    # A slice ends where a quarter of its rows have ended, or at the budget;
    # a cut where half have ended would store up to twice the live cells.
    lengths = [sample_horizon(replicate_rng(seed, r), rho) for r in range(rows)]
    lengths.sort(reverse=True)
    if budget is not None:
        monkeypatch.setattr(montecarlo, "CHUNK_TARGET_ELEMENTS", budget)
    budget = montecarlo.CHUNK_TARGET_ELEMENTS
    mapped = record_mappings(monkeypatch)
    montecarlo._simulate_batch(
        GeometricOptimalPolicy(rho),
        lengths,
        (replicate_rng(seed, p) for p in range(rows)),
        [],
    )
    horizons, t0, held = np.array(lengths), 0, 0
    for steps, width in mapped:
        live = int(np.clip(horizons - t0, 0, steps).sum())
        assert width == np.count_nonzero(horizons > t0)
        assert 3 * steps * width <= 4 * live
        assert steps * width <= budget or steps == 1
        held += live
        t0 += steps
    assert t0 == lengths[0] and held == sum(lengths)
    assert any(steps == 1 and width > budget for steps, width in mapped) == (
        rows > budget
    )


def test_a_replicate_longer_than_the_budget_is_sliced(monkeypatch):
    cfg = SimulationConfig(
        reps=1, seed=8, policy=GeometricOptimalPolicy(0.999), rho=0.999
    )
    assert sample_horizon(replicate_rng(8, 0), 0.999) == 5441
    unpatched = run_geometric_horizon(cfg).per_rep_counts
    mapped = record_mappings(monkeypatch)
    monkeypatch.setattr(montecarlo, "CHUNK_TARGET_ELEMENTS", 1000)
    counts = run_geometric_horizon(cfg).per_rep_counts
    assert mapped == [(1000, 1)] * 5 + [(441, 1)]
    assert np.array_equal(counts, unpatched)


@pytest.mark.parametrize(
    "name, horizon",
    [
        *[(name, "rho") for name in ("greedy", "timid", "threshold", "geometric")],
        ("concat", "rho"),
        *[(name, "n") for name in ("greedy", "timid", "threshold", "geometric")],
        ("finite-optimal", "n"),
    ],
)
def test_no_reader_uses_a_cell_past_a_rows_end(monkeypatch, sol_n10, name, horizon):
    # Every cell past a row's end is overwritten with 1.0, which every rule
    # selects from every state, or 0.0, which greedy selects from y = 0: the
    # counts move if a step or a lane cut reads one. Geometric rows at rho 0.999
    # fill 600-row slices (stepped one observation at a time), then narrower
    # ones, stepped as lanes where the rule has a level. A fixed-horizon run
    # has no cell past a row's end, so its rows here stop short of n = 1000:
    # 500 of them within 20 steps, 100 between 500 and 1000, which reach
    # finite-optimal's settled-stage lanes (cut at coalescence_until = 929 on
    # grid 101).
    policy = {
        "greedy": GREEDY,
        "timid": TIMID,
        "threshold": FixedThresholdPolicy(1.0 - 1.0 / math.sqrt(2.0)),
        "geometric": GeometricOptimalPolicy(0.999),
        "concat": ConcatenatedPolicy(sol_n10),
        "finite-optimal": FiniteOptimalPolicy(solve_finite(1000, 101)),
    }[name]
    rng = np.random.default_rng(5)
    cut = np.r_[rng.integers(1, 21, 500), rng.integers(500, 1001, 100)]
    cut_short = sorted(cut.tolist(), reverse=True)

    def counts():
        if horizon == "rho":
            cfg = SimulationConfig(reps=600, seed=42, policy=policy, rho=0.999)
            return run_geometric_horizon(cfg).per_rep_counts
        streams = (replicate_rng(42, p) for p in range(600))
        return montecarlo._simulate_batch(policy, cut_short, streams, [])

    fill, step_lanes, dead, seen = montecarlo._fill, montecarlo._step_lanes, [], set()

    def filling_dead_cells(X, lengths, t0, rngs, spent):
        running = fill(X, lengths, t0, rngs, spent)
        steps, width = X.shape
        past = np.arange(t0 + 1, t0 + 1 + steps)[:, None] > np.array(lengths[:width])
        if past.any():
            X[past] = dead[0]
            seen.add("wide" if width >= montecarlo.LANE_WIDTH // 8 else "narrow")
        return running

    def lanes(policy, view, X, lengths, segments, t0):
        if min(lengths) < t0 + len(X):  # a row ends inside these lanes
            seen.add("lanes")
        return step_lanes(policy, view, X, lengths, segments, t0)

    plain = counts()
    monkeypatch.setattr(montecarlo, "_fill", filling_dead_cells)
    monkeypatch.setattr(montecarlo, "_step_lanes", lanes)
    for value in (1.0, 0.0):
        dead[:] = [value]
        assert np.array_equal(counts(), plain), value
    has_level = policy.coalescence_level is not None
    assert seen == {"wide", "narrow"} | ({"lanes"} if has_level else set())


def test_a_one_row_slice_is_its_own_tile():
    # One replicate of a million steps fills one slice one row wide: it draws
    # straight into the slice, which tracemalloc does not see; a tile of its
    # own would show as 8n bytes.
    n = 1_000_000
    cfg = SimulationConfig(reps=1, seed=3, policy=TIMID, n=n)
    run_fixed_horizon(cfg)  # warm-up: the first run's imports and caches
    tracemalloc.start()
    try:
        counts = run_fixed_horizon(cfg).per_rep_counts
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * montecarlo.TILE_ELEMENTS
    # two replicates share one slice two rows wide, filled through a tile
    wide = SimulationConfig(reps=2, seed=3, policy=TIMID, n=n)
    assert counts[0] == run_fixed_horizon(wide).per_rep_counts[0]


def test_one_long_row_steps_as_lanes():
    # Cut at its renewal observations, one row of 400,000 observations steps
    # as thousands of lanes at once, not one step_batch call per observation.
    policy = FixedThresholdPolicy(0.29)
    cfg = SimulationConfig(reps=1, seed=5, policy=policy, n=400_000)
    with mock.patch.object(
        FixedThresholdPolicy, "step_batch", autospec=True,
        side_effect=FixedThresholdPolicy.step_batch,
    ) as step:
        res = run_fixed_horizon(cfg)
    assert res.per_rep_counts.tolist() == [233908]
    assert 0 < step.call_count < 0.02 * cfg.n


def test_one_long_finite_optimal_row_steps_its_settled_stages_as_lanes():
    # Stages 1..n - 71 of the grid-101 rule read one threshold row: cut at
    # their renewal observations, they step as lanes; the last 71 one by one.
    policy = FiniteOptimalPolicy(solve_finite(150_000, 101))
    cfg = SimulationConfig(reps=1, seed=5, policy=policy, n=150_000)
    with mock.patch.object(
        FiniteOptimalPolicy, "step_batch", autospec=True,
        side_effect=FiniteOptimalPolicy.step_batch,
    ) as step:
        res = run_fixed_horizon(cfg)
    assert res.per_rep_counts.tolist() == [87608]
    assert 0 < step.call_count < 0.02 * cfg.n


@pytest.mark.parametrize(
    "n, reps, span, slices",
    [
        # Rows that will not step as lanes keep their slices: n <= K has no
        # settled stage, and 8,192 rows are too wide for lanes.
        (10, 8192, None, [(10, 8192)]),
        (100, 8192, None, [(100, 8192)]),
        # Lanes stop at stage n - K + 1 = 629 (grid 101): a slice that would
        # run past it is cut there, unless it steps fewer than two segments.
        (700, 8, None, [(629, 8), (71, 8)]),
        (700, 8, 629, [(629, 8), (71, 8)]),
        (700, 8, 628, [(628, 8), (72, 8)]),
        (700, 8, 379, [(379, 8), (250, 8), (71, 8)]),
    ],
)
def test_finite_optimal_cuts_its_settled_stages_only_for_lanes(
    monkeypatch, n, reps, span, slices
):
    policy = FiniteOptimalPolicy(solve_finite(n, 101 if n == 700 else 2001))

    def run():
        return montecarlo._simulate_batch(
            policy, [n] * reps, (replicate_rng(42, p) for p in range(reps)), []
        )

    unpatched = run()
    mapped = record_mappings(monkeypatch)
    if span is not None:
        monkeypatch.setattr(montecarlo, "CHUNK_TARGET_ELEMENTS", span * reps)
    counts = run()
    assert mapped == slices
    assert np.array_equal(counts, unpatched)


@pytest.mark.parametrize(
    "patch, n, reps, requests",
    [
        ({"CHUNK_TARGET_ELEMENTS": 50}, 10, 12, [(10, 5), (10, 5), (10, 2)]),
        # a row longer than the budget is sliced down its steps
        ({"CHUNK_TARGET_ELEMENTS": 50}, 60, 3, [(50, 1), (10, 1)] * 3),
        ({"MAX_CHUNK": 4}, 10, 10, [(10, 4), (10, 4), (10, 2)]),
    ],
)
def test_fixed_chunks_obey_the_element_budget_and_row_cap(
    monkeypatch, patch, n, reps, requests
):
    cfg = SimulationConfig(reps=reps, seed=8, policy=GREEDY, n=n)
    unpatched = run_fixed_horizon(cfg).per_rep_counts
    mapped = record_mappings(monkeypatch)
    for name, value in patch.items():
        monkeypatch.setattr(montecarlo, name, value)
    counts = run_fixed_horizon(cfg).per_rep_counts
    assert mapped == requests
    assert np.array_equal(counts, unpatched)


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


def test_offline_scan_holds_one_copy_of_the_draws():
    # a list of Python floats would hold about five times the 8n bytes drawn
    n = 1_000_000
    tracemalloc.start()
    try:
        run_offline(n, reps=2, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 8 * n


@pytest.mark.parametrize("budget", [1, 7, 128, 129])
def test_offline_rows_drawn_in_slices_count_as_whole_rows(budget):
    # n below, at and above a multiple of the budget; rows of 128 values or
    # more are scanned in numpy, shorter ones in the loop
    for n in [budget - 1, budget, budget + 1, 2 * budget, 3 * budget + 2, 1000]:
        if n >= 1:
            whole = run_offline(n, reps=20, seed=5).per_rep_counts
            with mock.patch.object(montecarlo, "TILE_ELEMENTS", budget):
                sliced = run_offline(n, reps=20, seed=5).per_rep_counts
            assert np.array_equal(sliced, whole), n


class _Replay:
    """Hands out a fixed row through Generator.random's size and out forms."""

    def __init__(self, row):
        self.row, self.at = np.asarray(row, dtype=float), 0

    def random(self, size=None, out=None):
        k = size if out is None else len(out)
        part, self.at = self.row[self.at : self.at + k], self.at + k
        if out is None:
            return part.copy()
        out[:] = part
        return out


def test_offline_slices_carry_ties_nan_and_signed_zeros():
    gen = np.random.default_rng(1)
    values = [0.0, -0.0, 0.25, 0.5, 1.0, -1.0, np.nan, np.inf]
    for _ in range(300):
        row = gen.choice(values, int(gen.integers(1, 400)))
        budget = int(gen.integers(1, 301))
        with mock.patch.object(montecarlo, "TILE_ELEMENTS", budget):
            count = montecarlo._offline_count(_Replay(row), len(row))
        assert count == longest_alternating(row), (row.tolist(), budget)


def test_offline_rows_beyond_the_budget_are_never_drawn_whole():
    # tracemalloc sees the one piece buffer, 8 * (budget + 1) bytes; a row
    # drawn whole would show as 8n bytes
    budget, n = 10_000, 1_000_000
    tracemalloc.start()
    try:
        with mock.patch.object(montecarlo, "TILE_ELEMENTS", budget):
            run_offline(n, reps=2, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 8 * budget


def test_geometric_horizon_mean():
    rho, reps, seed = 0.9, 30_000, 42
    ns = np.array(
        [sample_horizon(replicate_rng(seed, r), rho) for r in range(reps)]
    )
    se = ns.std(ddof=1) / math.sqrt(reps)
    assert abs(ns.mean() - 1 / (1 - rho)) < 3 * se


def test_geometric_optimal_recovers_closed_value():
    policy = GeometricOptimalPolicy(0.9)
    cfg = SimulationConfig(reps=40_000, seed=42, policy=policy, rho=0.9)
    res = run_geometric_horizon(cfg)
    assert abs(res.mean - value_closed(0.9)) < 3 * res.std_error


def test_fixed_threshold_value_matches_simulation():
    """Closed form for an arbitrary (non-optimal) threshold vs simulation."""
    from altseq import fixed_threshold_value

    rho, xi = 0.85, 0.2
    cfg = SimulationConfig(
        reps=40_000,
        seed=6,
        policy=FixedThresholdPolicy(xi),
        rho=rho,
    )
    res = run_geometric_horizon(cfg)
    assert abs(res.mean - fixed_threshold_value(rho, xi)) < 3 * res.std_error


def test_finite_optimal_small_horizon_against_dp():
    """n=5 with a million replicates against the DP value."""
    sol = solve_finite(5)
    policy = FiniteOptimalPolicy(sol)
    cfg = SimulationConfig(reps=1_000_000, seed=42, policy=policy, n=5)
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
            policy=FiniteOptimalPolicy(sol_n50),
            n=n,
        )
    )
    challengers = [
        GREEDY,
        TIMID,
        FixedThresholdPolicy(1 - 1 / math.sqrt(2)),
        GeometricOptimalPolicy(0.95),
    ]
    for policy in challengers:
        res = run_fixed_horizon(
            SimulationConfig(reps=reps, seed=seed, policy=policy, n=n)
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
            policy=FiniteOptimalPolicy(sol),
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
