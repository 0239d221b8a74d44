"""Arrival schedules: seeded generation and the plain-text schedule file."""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ugatlab.sim.layout import APPROACHES, TURNS, movement_index, movement_name

HEADER = "# demand-schedule schema=1"


@dataclass(frozen=True)
class DemandSchedule:
    """Ordered (arrival_time_s, movement) pairs."""

    arrivals: tuple[tuple[float, int], ...]

    def __post_init__(self):
        times = [t for t, _ in self.arrivals]
        if not all(math.isfinite(t) and t >= 0.0 for t in times):
            raise ValueError("arrival times must be finite and >= 0")
        if any(b < a for a, b in zip(times, times[1:])):
            raise ValueError("arrival times must be nondecreasing")
        if any(not 0 <= m < 12 for _, m in self.arrivals):
            raise ValueError("movement index out of range")

    def __len__(self) -> int:
        return len(self.arrivals)


def generate_demand(vehicles_per_hour: float, duration_s: float, seed: int) -> DemandSchedule:
    """Seeded exponential inter-arrivals, movements uniform over the 12 routes."""
    # NaN or inf would keep the arrival loop below from ever ending
    for name, value in (("vehicles_per_hour", vehicles_per_hour), ("duration_s", duration_s)):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and positive: {value}")
    rng = np.random.default_rng(seed)
    rate = vehicles_per_hour / 3600.0
    arrivals = []
    t = 0.0
    while True:
        t += float(rng.exponential(1.0 / rate))
        if t >= duration_s:
            break
        arrivals.append((t, int(rng.integers(12))))
    return DemandSchedule(arrivals=tuple(arrivals))


def save_demand(schedule: DemandSchedule, path: str | Path) -> None:
    lines = [HEADER, "arrival_time_s,entry_approach,movement"]
    for t, m in schedule.arrivals:
        approach, turn = movement_name(m)
        lines.append(f"{t!r},{approach},{turn}")
    Path(path).write_text("\n".join(lines) + "\n")


def load_demand(path: str | Path) -> DemandSchedule:
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0].strip() != HEADER:
        raise ValueError(f"missing or unsupported demand schedule header in {path}")
    if len(lines) < 2 or lines[1].strip() != "arrival_time_s,entry_approach,movement":
        raise ValueError(f"missing column header in {path}")
    arrivals = []
    for i, line in enumerate(lines[2:], start=3):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise ValueError(f"{path}:{i}: expected 3 fields, got {len(parts)}")
        t = float(parts[0])
        approach, turn = parts[1].strip(), parts[2].strip()
        if approach not in APPROACHES or turn not in TURNS:
            raise ValueError(f"{path}:{i}: unknown route {approach!r},{turn!r}")
        arrivals.append((t, movement_index(approach, turn)))
    return DemandSchedule(arrivals=tuple(arrivals))
