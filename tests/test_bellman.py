"""The Bellman-step kernel: one crossover search gives the value and the threshold."""

import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from altseq import _bellman, finite, solve_finite
from conftest import seeded_rng

RHO = st.floats(min_value=0.0, max_value=1.0, exclude_min=True)


@st.composite
def non_increasing(draw, grid_size):
    """A non-increasing vector with w[-1] = 0, flat on an initial segment.

    Outside the flat segment the slope lies within a factor 10 of the scale,
    so a crossover never sits in a cell whose values agree to rounding.
    """
    scale = draw(st.floats(min_value=1e-3, max_value=1e3))
    flat = draw(st.integers(min_value=0, max_value=grid_size - 2))
    slopes = draw(arrays(np.float64, grid_size - 1, elements=st.floats(0.1, 1.0)))
    drops = scale * slopes / (grid_size - 1)
    drops[:flat] = 0.0
    return np.append(np.cumsum(drops[::-1])[::-1], 0.0)


@st.composite
def operand_pairs(draw):
    grid_size = draw(st.integers(min_value=3, max_value=201))
    w = draw(non_increasing(grid_size))
    v = draw(non_increasing(grid_size))
    return _bellman.uniform_grid(grid_size), w, v


def _rounding(*vectors):
    return 1e-12 * (1.0 + max(float(np.max(np.abs(x))) for x in vectors))


@settings(deadline=None)
@given(operands=operand_pairs(), rho=RHO)
def test_fused_threshold_matches_the_separate_search(operands, rho):
    ys, w, _ = operands
    tw, f = _bellman.apply_flipped(w, ys, rho)
    assert np.max(np.abs(f - _bellman.threshold_curve(w, ys, rho))) <= 1e-14
    assert np.all((f >= ys) & (f <= 1.0))
    assert tw.shape == f.shape == ys.shape


@settings(deadline=None)
@given(operands=operand_pairs(), rho=RHO)
def test_operator_is_monotone(operands, rho):
    ys, w, v = operands
    lower = np.minimum(w, v)  # non-increasing, below w everywhere
    t_lower, _ = _bellman.apply_flipped(lower, ys, rho)
    t_w, _ = _bellman.apply_flipped(w, ys, rho)
    assert np.all(t_lower <= t_w + _rounding(t_w))


@settings(deadline=None)
@given(operands=operand_pairs(), rho=RHO)
def test_operator_is_a_rho_contraction(operands, rho):
    ys, w, v = operands
    t_w, _ = _bellman.apply_flipped(w, ys, rho)
    t_v, _ = _bellman.apply_flipped(v, ys, rho)
    gap = np.max(np.abs(t_w - t_v))
    assert gap <= rho * np.max(np.abs(w - v)) + _rounding(t_w, t_v)


@settings(deadline=None)
@given(operands=operand_pairs(), rho=RHO)
def test_two_state_operator_keeps_a_reflected_pair_reflected(operands, rho):
    ys, w, _ = operands
    tw, _ = _bellman.apply_flipped(w, ys, rho)
    after_min, after_max = _bellman.apply_two_state(w, w[::-1], ys, rho)
    assert np.max(np.abs(after_min - tw)) <= _rounding(tw)
    assert np.max(np.abs(after_max - tw[::-1])) <= _rounding(tw)


@settings(deadline=None)
@given(
    n=st.integers(min_value=1, max_value=20),
    grid_size=st.integers(min_value=3, max_value=201),
)
def test_finite_thresholds_come_from_the_next_stage(n, grid_size):
    sol = solve_finite(n, grid_size)
    for i in range(1, n + 1):
        reference = _bellman.threshold_curve(sol.value_row(i + 1), sol.ys)
        assert np.max(np.abs(sol.threshold_row(i) - reference)) <= 1e-14


def test_mapped_zeros_are_writable_zeros_of_the_asked_shape():
    for shape in (0, 5, (3, 4), (0, 7)):
        a = _bellman.mapped_zeros(shape)
        assert a.shape == np.empty(shape).shape
        assert a.dtype == np.float64 and a.flags.c_contiguous
        assert not a.any()
        a[...] = 1.5
        assert (a == 1.5).all()


# The kernel before its numpy calls were cut down, kept verbatim (docstrings
# aside) as the reference the kernel must reproduce bit for bit.


def cumulative_integral(g: np.ndarray, step: float) -> np.ndarray:
    out = np.empty_like(g)
    out[0] = 0.0
    np.cumsum((g[1:] + g[:-1]) * (0.5 * step), out=out[1:])
    return out


def integral_to(
    G: np.ndarray, g: np.ndarray, ys: np.ndarray, step: float, m: np.ndarray
) -> np.ndarray:
    j = np.minimum((m / step).astype(np.int64), g.size - 2)
    dm = m - ys[j]
    slope = (g[j + 1] - g[j]) / step
    return G[j] + dm * g[j] + 0.5 * dm * dm * slope


def last_point_at_least(
    g: np.ndarray, ys: np.ndarray, step: float, targets: np.ndarray
) -> np.ndarray:
    M = g.size
    k = np.searchsorted(-g, -targets, side="right") - 1
    k = np.clip(k, 0, M - 1)
    kn = np.minimum(k + 1, M - 1)
    denom = g[k] - g[kn]
    frac = np.where(denom > 0, (g[k] - targets) / np.where(denom > 0, denom, 1.0), 0.0)
    out = np.where(k >= M - 1, 1.0, ys[k] + step * np.clip(frac, 0.0, 1.0))
    return np.where(targets > g[0], 0.0, out)


def _step(
    own: np.ndarray, g: np.ndarray, c: np.ndarray, upper: np.ndarray, ys: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    step = ys[1] - ys[0]
    crossover = last_point_at_least(g, ys, step, c)
    m = np.minimum(crossover, upper)
    G = cumulative_integral(g, step)
    return own + integral_to(G, g, ys, step, m) + (upper - m) * c, crossover


def apply_flipped(
    values: np.ndarray, ys: np.ndarray, rho: float
) -> tuple[np.ndarray, np.ndarray]:
    c = rho * values
    tw, crossover = _step(rho * ys * values, 1.0 + c, c, 1.0 - ys, ys)
    return tw, np.maximum(ys, 1.0 - crossover)


#: Shapes of the kernel's input, from uniform draws w in [0, scale).
SHAPES = {
    "zero": lambda w: 0.0 * w,
    "constant": lambda w: np.full_like(w, w[0]),
    "decreasing": lambda w: np.sort(w)[::-1],
    "stepped": lambda w: np.sort(np.round(w, 1))[::-1],  # flat stretches
    "increasing": np.sort,
    "unordered": lambda w: w,
}


@st.composite
def kernel_inputs(draw):
    grid_size = draw(st.integers(min_value=3, max_value=4001))
    shape = draw(st.sampled_from(sorted(SHAPES)))
    scale = draw(st.floats(min_value=1e-3, max_value=1e3))
    w = scale * seeded_rng(draw(st.integers(0, 2**32 - 1))).random(grid_size)
    return _bellman.uniform_grid(grid_size), np.ascontiguousarray(SHAPES[shape](w))


def assert_same_bits(new, old):
    assert new.shape == old.shape and new.dtype == old.dtype == np.float64
    assert np.array_equal(new.view(np.uint64), old.view(np.uint64))


@settings(deadline=None, max_examples=300)
@given(inputs=kernel_inputs(), rho=RHO | st.sampled_from([5e-324, 1.0]))
@example(inputs=(_bellman.uniform_grid(4001), np.zeros(4001)), rho=5e-324)
def test_kernel_reproduces_its_reference_bit_for_bit(inputs, rho):
    ys, w = inputs
    for new, old in zip(_bellman.apply_flipped(w, ys, rho), apply_flipped(w, ys, rho)):
        assert_same_bits(new, old)
    # the separate search, whose targets are -inf at rho = 5e-324
    new = _bellman.threshold_curve(w, ys, rho)
    step = ys[1] - ys[0]
    old = np.maximum(ys, 1.0 - last_point_at_least(w, ys, step, w - 1.0 / rho))
    assert_same_bits(new, old)


@settings(deadline=None, max_examples=300)
@given(
    inputs=kernel_inputs(),
    node=st.integers(min_value=0),
    offset=st.sampled_from([0.0, 1e-9, -1e-9, -np.inf]) | st.floats(-2e3, 2e3),
)
def test_search_reproduces_its_reference_for_one_target(inputs, node, offset):
    # geometric.py passes a float, finite.threshold_at a one-element array
    ys, w = inputs
    step = ys[1] - ys[0]
    target = w[node % w.size] + offset
    for targets in (target, 0.0, np.asarray([target])):
        new = _bellman.last_point_at_least(w, ys, step, targets)
        assert_same_bits(new, last_point_at_least(w, ys, step, targets))


@given(grid_size=st.integers(min_value=3, max_value=10001))
def test_targets_at_or_below_the_last_value_land_on_exactly_one(grid_size):
    # the search reads the last cell as flat; this gives 1.0 only because
    # the grid ends at exactly 1.0
    ys = _bellman.uniform_grid(grid_size)
    assert ys[-1] == 1.0
    g = 1.0 - ys
    targets = np.array([g[-1], -0.5, -np.inf, g[0], np.nextafter(g[0], 2.0), 1.5])
    u = _bellman.last_point_at_least(g, ys, ys[1] - ys[0], targets)
    assert u.tolist() == [1.0, 1.0, 1.0, 0.0, 0.0, 0.0]


def _sha256(*arrays):
    digest = hashlib.sha256()
    for a in arrays:
        digest.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return digest.hexdigest()


def _value_iteration(rho, sweeps=300, grid_size=2001):
    """Every threshold f of T^k(0), k = 1..sweeps, then T^sweeps(0)."""
    ys = _bellman.uniform_grid(grid_size)
    w, fs = np.zeros(grid_size), []
    for _ in range(sweeps):
        w, f = _bellman.apply_flipped(w, ys, rho)
        fs.append(f)
    return *fs, w


#: sha256 of the float64 bytes, recorded before the kernel's numpy calls were
#: cut down. The geometric rows iterate the operator from zero, as plain value
#: iteration would: solve_flipped's values depend on the BLAS kernel that its
#: least squares runs on, so no digest of them holds across machines.
LONG_SWEEPS = {
    "finite-curve-1000": (
        lambda: [finite.optimal_expected_curve(1000, 2001)],
        "83defecd5fb7ed470e6c63d9cbd07e4d630a867b0ccc95b8c11255d01ef4d246",
    ),
    "finite-thresholds-1000": (
        lambda: [finite.solve_finite(1000, 2001).threshold_table],
        "39d0651e13102aadd46174cd597d7be829412112cb9983935e5904ce7eba330f",
    ),
    "rho-0.5": (
        lambda: _value_iteration(0.5),
        "a8fbb62ec63bb1e05927b84c0d0f38c23531b8e489a7aa1794de9b895e35d86b",
    ),
    "rho-0.9": (
        lambda: _value_iteration(0.9),
        "68443a7ca29efb4ed9961aeee32b897159600809e32434a97b12cf069f9eb80e",
    ),
    "rho-0.999": (
        lambda: _value_iteration(0.999),
        "72719f5b3f2e30cbb16b685986bd9acf9dec93b90c0ca1fd956869c712b57288",
    ),
}


@pytest.mark.parametrize("name", LONG_SWEEPS)
def test_long_sweeps_keep_their_bits(name):
    arrays, digest = LONG_SWEEPS[name]
    assert _sha256(*arrays()) == digest
