"""Vehicle kinematics and simulation timing configuration."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from ugatlab.sim.layout import N_LANES


@dataclass(frozen=True)
class VehicleParams:
    """Kinematic parameter row defining one environment variant."""

    accel: float  # m/s^2
    decel: float  # comfortable braking, m/s^2
    emergency_decel: float  # m/s^2
    startup_delay: float  # s a standing vehicle waits once its path opens
    max_speed: float = 13.89  # m/s
    vehicle_length: float = 5.0  # m
    min_gap: float = 2.5  # m, bumper-to-bumper floor

    def __post_init__(self):
        for f in fields(self):  # the engine's cruise distance needs finite kinematics
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite: {getattr(self, f.name)}")
        if self.accel <= 0:
            raise ValueError(f"accel must be positive: {self.accel}")
        if not 0 < self.decel <= self.emergency_decel:
            raise ValueError(
                f"need 0 < decel <= emergency_decel: {self.decel}, {self.emergency_decel}"
            )
        if self.startup_delay < 0:
            raise ValueError(f"startup_delay must be >= 0: {self.startup_delay}")
        if self.max_speed <= 0:
            raise ValueError(f"max_speed must be positive: {self.max_speed}")
        if self.vehicle_length <= 0 or self.min_gap < 0:
            raise ValueError("vehicle_length must be positive and min_gap >= 0")


# Environment variants: the default row drives the simulation twin, the rest
# are the stand-ins for real-world conditions (heavy vehicles, bad weather).
SCENARIOS: dict[str, VehicleParams] = {
    "Default": VehicleParams(accel=2.60, decel=4.50, emergency_decel=9.00, startup_delay=0.00),
    "V1": VehicleParams(accel=1.00, decel=2.50, emergency_decel=6.00, startup_delay=0.50),
    "V2": VehicleParams(accel=1.00, decel=2.50, emergency_decel=6.00, startup_delay=0.75),
    "V3": VehicleParams(accel=0.75, decel=3.50, emergency_decel=6.00, startup_delay=0.25),
    "V4": VehicleParams(accel=0.50, decel=1.50, emergency_decel=2.00, startup_delay=0.50),
}


@dataclass(frozen=True)
class SimConfig:
    """Timing constants for one episode.

    tick must divide the decision interval and the yellow time, and the
    decision interval must divide the episode length."""

    decision_interval: float = 10.0  # s between controller decisions
    tick: float = 1.0  # s of kinematics integration
    yellow_time: float = 3.0  # all-red interlude on phase change, s
    episode_length: float = 3600.0  # s
    queue_speed_threshold: float = 0.1  # m/s; slower counts as queued
    seed: int = 0  # reserved; the engine itself is deterministic

    def __post_init__(self):
        for name in ("tick", "decision_interval", "episode_length"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive: {value}")
        if not 0 <= self.yellow_time < self.decision_interval:
            raise ValueError("yellow_time must lie in [0, decision_interval)")
        # an episode ends only at a decision, so a length between two of them runs on to the next
        divides = (("tick", "decision_interval"), ("tick", "yellow_time"), ("decision_interval", "episode_length"))
        for part, whole in divides:
            p, w = getattr(self, part), getattr(self, whole)
            if abs(w / p - round(w / p)) > 1e-9:
                raise ValueError(f"{part} {p} must divide {whole} {w}")
        if not self.queue_speed_threshold >= 0:  # NaN fails too
            raise ValueError(f"queue_speed_threshold must be >= 0: {self.queue_speed_threshold}")

    @property
    def ticks_per_decision(self) -> int:
        return round(self.decision_interval / self.tick)

    @property
    def yellow_ticks(self) -> int:
        return round(self.yellow_time / self.tick)

    @property
    def episode_ticks(self) -> int:
        return round(self.episode_length / self.tick)

    @property
    def max_demand_vph(self) -> float:
        """Arrivals per hour the engine can admit: one spawn per lane and tick; more only backs up."""
        return N_LANES * 3600.0 / self.tick
