"""The fused Bellman step: one crossover search gives the value and the threshold."""

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from altseq import _bellman, solve_finite

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
@given(
    n=st.integers(min_value=1, max_value=20),
    grid_size=st.integers(min_value=3, max_value=201),
)
def test_finite_thresholds_come_from_the_next_stage(n, grid_size):
    sol = solve_finite(n, grid_size)
    for i in range(1, n + 1):
        reference = _bellman.threshold_curve(sol.value_row(i + 1), sol.ys)
        assert np.max(np.abs(sol.threshold_row(i) - reference)) <= 1e-14
