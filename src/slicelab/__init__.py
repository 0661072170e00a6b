"""slicelab: a desk-scale lab for online network-slice reconfiguration.

A simulated bandwidth-sliced link feeding a CPU-sliced server, hinge
penalties on QoE violations, and a projected-gradient loop that admits a
new slice by probing the simulator and squeezing lower-priority slices.
"""

from .baseline import (
    InfeasibleDemand,
    SliceAudit,
    audit_allocation,
    evaluate_baseline,
    mm1_demand,
    size_all,
)
from .domain import (
    UNBOUNDED,
    AllocationMatrix,
    AllocationVector,
    InvariantViolation,
    QoeRequirement,
    QoeSample,
    SliceSpec,
    Topology,
    TrafficModel,
    validate_scenario,
)
from .oracle import (
    OracleFailure,
    analytic_mm1_evaluate,
    analytic_parts,
    derive_seed,
    sim_evaluate,
)
from .osra import (
    IterationTrace,
    OsraConfig,
    OsraResult,
    run_osra,
    transfer_step,
)
from .penalty import (
    DegenerateDelta,
    PenaltyModel,
    ProbeMemory,
    analytic_gradient,
    effective_delay,
    mean_statistics,
    penalty,
    penalty_at,
    probed_gradient,
)
from .projection import (
    DimensionMismatch,
    project_capped_simplex,
    project_columns,
)
from .scenario import (
    ScenarioConfig,
    ScenarioError,
    load_scenario,
    reference_scenario,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
    with_overrides,
)
from .simulator import (
    SimConfig,
    SimulationError,
    delay_statistic,
    generate_traffic,
    run_sim,
    simulate_pipeline,
    summarize,
)

__version__ = "0.1.0"
