"""On-demand information-freshness scheduling for energy-harvesting sensor fleets.

Exact and relaxed average-cost solvers, a relax-then-truncate runtime policy,
a seeded Monte Carlo simulator, and numerical checks of the structural and
asymptotic-optimality properties.
"""

__version__ = "0.1.0"

from .analysis import (
    GapBoundReport,
    OrderingReport,
    SqrtKReport,
    StructureReport,
    check_gap_bound,
    check_ordering,
    check_sqrt_k_mad,
    command_region_map,
    policy_structure_report,
)
from .errors import (
    AoischedError,
    BracketError,
    ConvergenceError,
    MultichainError,
    PolicyFileError,
    SimulationError,
    StateSpaceError,
)
from .exact_solver import (
    JointPolicy,
    RviaResult,
    bellman_residual,
    enumerate_budget_actions,
    solve_exact,
)
from .model import (
    NetworkConfig,
    SensorModel,
    SensorParams,
    request_pmf,
    sensor_classes,
    sensor_model,
    slot_step,
    state_index,
)
from .relaxed_solver import (
    ChainEvaluation,
    LagrangeSolve,
    MixedPolicy,
    PerSensorSolve,
    PolicyTable,
    RelaxedSolution,
    evaluate_per_sensor,
    solve_per_sensor,
    solve_relaxed,
)
from .runtime_policies import (
    ExactFleetPolicy,
    GreedyFleetPolicy,
    RelaxedFleetPolicy,
    build_exact_fleet_policy,
    build_relaxed_fleet_policy,
)
from .simulator import (
    EpisodeMetrics,
    SimConfig,
    SimReport,
    mean_abs_deviation,
    run_episode,
    run_experiment,
)
