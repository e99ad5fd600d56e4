"""Distributed constrained consensus: find a common point of per-node convex sets.

Best-response dynamics and gradient projection over a communication graph,
a centralized cyclic-projections baseline, and the source-localization
experiment harness used to study them.
"""

from .engine import (
    EngineState,
    InvariantError,
    StepSizeWarning,
    Trace,
    TraceRecord,
    consensus_metric,
    dgpc_round,
    dgtc_round,
    initial_state,
    initialize,
    pocs_run,
    run,
)
from .experiments import (
    GenerationError,
    LocalizationInstance,
    SweepRecord,
    ValidationResult,
    make_localization_instance,
    rate_sweep,
    validation_study,
)
from .game import (
    DegenerateInstanceError,
    DegenerateNodeError,
    GameInstance,
    best_response,
    centroid,
    cost_gradient,
    default_step_size,
    lipschitz_constant,
    max_set_distance,
    max_step_size,
    potential,
    update_metric,
    utility,
    utility_gradient,
)
from .graphs import (
    GeometricLayout,
    Graph,
    fiedler_value,
    fiedler_values,
    graph_from_positions,
    is_connected,
    jacobi_eigenvalues,
    laplacian,
)
from .sets import Ball, BallStack, Box, ConvexSet, DimensionError, Halfspace, interval
from .tolerances import DEFAULT, Tolerances

__version__ = "0.1.0"
