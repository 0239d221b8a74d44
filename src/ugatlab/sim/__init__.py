"""Deterministic microscopic single-intersection simulator.

One parameterization of the vehicle kinematics plays the simulation
environment, another plays the stand-in for reality.
"""

from ugatlab.sim.params import SCENARIOS, SimConfig, VehicleParams
from ugatlab.sim.layout import (
    APPROACHES,
    N_LANES,
    N_MOVEMENTS,
    N_PHASES,
    PHASES,
    STATE_DIM,
    TURNS,
    IntersectionLayout,
    movement_index,
    movement_name,
    movements_compatible,
)
from ugatlab.sim.demand import DemandSchedule, generate_demand, load_demand, save_demand
from ugatlab.sim.engine import (
    ActionError,
    CompletedVehicle,
    ConfigurationError,
    LifecycleError,
    MetricsRecord,
    TrafficSim,
    check_tick,
)

__all__ = [
    "APPROACHES",
    "ActionError",
    "CompletedVehicle",
    "ConfigurationError",
    "DemandSchedule",
    "IntersectionLayout",
    "LifecycleError",
    "MetricsRecord",
    "N_LANES",
    "N_MOVEMENTS",
    "N_PHASES",
    "PHASES",
    "SCENARIOS",
    "STATE_DIM",
    "SimConfig",
    "TURNS",
    "TrafficSim",
    "VehicleParams",
    "check_tick",
    "generate_demand",
    "load_demand",
    "movement_index",
    "movement_name",
    "movements_compatible",
    "save_demand",
]
