"""On-line selection of alternating subsequences from i.i.d. uniform samples.

Solvers for the geometric (discounted) and fixed-horizon selection problems,
their closed forms, a family of selection policies, and a reproducible Monte
Carlo harness.
"""

from .sequence import (
    ORACLE_MAX_LENGTH,
    is_alternating,
    longest_alternating,
    longest_alternating_oracle,
    permutation_moments,
)
from .geometric import (
    ClosedFormDiagnostics,
    ConvergenceError,
    TwoStateSolution,
    ValueFunctionGrid,
    closed_form_diagnostics,
    fixed_threshold_value,
    solve_flipped,
    solve_two_state,
    value_closed,
    value_flat_form,
    value_slope_interior,
    value_threshold_form,
    xi0_closed,
)
from .finite import (
    FiniteSolution,
    optimal_expected,
    optimal_expected_curve,
    solve_finite,
    solve_finite_two_state,
    threshold_at,
)
from .policies import (
    ConcatenatedPolicy,
    FiniteOptimalPolicy,
    FixedThresholdPolicy,
    GeometricOptimalPolicy,
    Policy,
    stationary_rate,
)
from .montecarlo import (
    RunResult,
    SimulationConfig,
    replicate_rng,
    run_fixed_horizon,
    run_geometric_horizon,
    run_offline,
    sample_horizon,
)

__version__ = "0.1.0"
