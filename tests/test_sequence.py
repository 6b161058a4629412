"""Offline statistic: linear scan vs exhaustive oracle, moment formulas."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from altseq import (
    ORACLE_MAX_LENGTH,
    is_alternating,
    longest_alternating,
    longest_alternating_oracle,
    permutation_moments,
)
from altseq import sequence
from conftest import seeded_rng

# ties, both signed zeros, infinities and NaN, which compares false with all
SPECIAL = [0.0, 0.25, 0.5, math.nan, math.inf, -math.inf, -0.0]
AS_INPUT = [np.ndarray.tolist, np.asarray, memoryview]


def scan(values, switch, window=sequence.SCAN_WINDOW):
    """longest_alternating with its numpy switch and window set."""
    with mock.patch.multiple(sequence, SCAN_SWITCH=switch, SCAN_WINDOW=window):
        return longest_alternating(values)


def draws(seed, length, special):
    rng = seeded_rng(seed)
    return rng.choice(SPECIAL, length) if special else rng.random(length)


def test_scan_examples():
    assert longest_alternating([0.1, 0.7, 0.4, 0.9]) == 4
    assert longest_alternating([0.9, 0.1]) == 1  # no ascending pair
    assert longest_alternating([0.5]) == 1
    assert longest_alternating([0.1, 0.2, 0.3]) == 2  # one ascent, no descent
    assert longest_alternating([]) == 0


def test_oracle_examples():
    # hand enumeration: 0.1 < 0.7 > 0.4 < 0.9 uses all four elements
    assert longest_alternating_oracle([0.1, 0.7, 0.4, 0.9]) == 4
    assert longest_alternating_oracle([]) == 0
    assert longest_alternating_oracle([0.1, 0.2, 0.3]) == 2


def test_oracle_rejects_long_input():
    values = [0.5] * (ORACLE_MAX_LENGTH + 1)
    with pytest.raises(ValueError):
        longest_alternating_oracle(values)


def test_scan_matches_oracle_on_random_samples():
    """1000 seeded samples of each length 1..12, scan == oracle."""
    rng = seeded_rng(20240)
    for length in range(1, 13):
        for _ in range(1000):
            xs = rng.random(length).tolist()
            assert longest_alternating(xs) == longest_alternating_oracle(xs)


def test_scan_matches_oracle_with_ties():
    """Discrete values force ties; strict-inequality semantics must agree."""
    rng = seeded_rng(77)
    for _ in range(2000):
        length = int(rng.integers(1, 11))
        xs = (rng.integers(0, 4, size=length) / 4.0).tolist()
        assert longest_alternating(xs) == longest_alternating_oracle(xs)


def test_scan_reads_a_float64_memoryview_as_its_list():
    rng = seeded_rng(8)
    for _ in range(500):
        length = int(rng.integers(0, 40))
        for xs in (rng.random(length), rng.integers(0, 4, size=length) / 4.0):
            assert longest_alternating(memoryview(xs)) == longest_alternating(
                xs.tolist()
            )


@settings(deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    length=st.integers(0, 3 * sequence.SCAN_SWITCH),
    special=st.booleans(),
    window=st.sampled_from([1, 2, 7, sequence.SCAN_WINDOW]),
    as_input=st.sampled_from(AS_INPUT),
)
def test_numpy_scan_equals_the_loop(seed, length, special, window, as_input):
    xs = draws(seed, length, special)
    assert scan(as_input(xs), 0, window) == scan(as_input(xs), math.inf)


@settings(deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    length=st.integers(0, ORACLE_MAX_LENGTH),
    special=st.booleans(),
    window=st.sampled_from([1, 2, 7, sequence.SCAN_WINDOW]),
)
def test_numpy_scan_matches_oracle(seed, length, special, window):
    # NaN is left out: it orders against nothing, and the scan does not
    # keep an earlier value across it as a longest subsequence may
    xs = [x for x in draws(seed, length, special).tolist() if not math.isnan(x)]
    assert scan(xs, 0, window) == longest_alternating_oracle(xs)


def test_rows_at_the_switch_take_the_numpy_path():
    xs = seeded_rng(9).random(sequence.SCAN_SWITCH)
    with mock.patch.object(sequence, "_count_runs", return_value=-1):
        assert longest_alternating(xs[:-1]) >= 1
        assert longest_alternating(memoryview(xs)) == -1


def test_monotone_transform_invariance():
    rng = seeded_rng(5)
    transforms = [
        lambda x: x**3,
        lambda x: np.sqrt(x),
        lambda x: 0.1 + 0.8 * x,
        lambda x: x / (1.0 + x),
    ]
    for _ in range(200):
        xs = rng.random(int(rng.integers(1, 15)))
        base = longest_alternating(xs.tolist())
        for t in transforms:
            assert longest_alternating(t(xs).tolist()) == base


def test_appending_duplicate_last_element_is_neutral():
    rng = seeded_rng(6)
    for _ in range(500):
        xs = rng.random(int(rng.integers(1, 12))).tolist()
        assert longest_alternating(xs + [xs[-1]]) == longest_alternating(xs)


def test_bounds():
    rng = seeded_rng(7)
    for _ in range(500):
        xs = rng.random(int(rng.integers(1, 20))).tolist()
        a = longest_alternating(xs)
        assert 1 <= a <= len(xs)


def test_is_alternating():
    assert is_alternating([])
    assert is_alternating([0.4])
    assert is_alternating([0.1, 0.7, 0.4, 0.9])
    assert not is_alternating([0.7, 0.1])          # must start with an ascent
    assert not is_alternating([0.1, 0.7, 0.8])     # second step must descend
    assert not is_alternating([0.5, 0.5])          # ties never alternate


def test_permutation_moments_values():
    mean4, var4 = permutation_moments(4)
    assert mean4 == pytest.approx(17.0 / 6.0, rel=1e-14)
    assert var4 == pytest.approx(115.0 / 180.0, rel=1e-14)
    mean100, var100 = permutation_moments(100)
    assert mean100 == pytest.approx(66.833333, abs=1e-6)
    assert var100 == pytest.approx(17.705556, abs=1e-6)


def test_permutation_moments_domain():
    with pytest.raises(ValueError):
        permutation_moments(3)
    with pytest.raises(ValueError):
        permutation_moments(0)
