"""slicelab: a desk-scale lab for online network-slice reconfiguration.

A simulated bandwidth-sliced link feeding a CPU-sliced server, hinge
penalties on QoE violations, and a projected-gradient loop that admits a
new slice by probing the simulator and squeezing lower-priority slices.

The top level holds the entry points and the types a caller builds or
catches; everything else is imported from its module.
"""

from .baseline import audit_allocation, size_all
from .domain import (
    UNBOUNDED,
    AllocationMatrix,
    AllocationVector,
    InvariantViolation,
    QoeRequirement,
    SliceSpec,
    Topology,
    TrafficModel,
)
from .osra import NonFiniteGradient, OsraConfig, ProbeMemory, run_osra
from .projection import project_capped_simplex, project_columns
from .scenario import ScenarioConfig, load_scenario, reference_scenario
from .simulator import SimConfig, run_sim

__version__ = "0.1.0"
