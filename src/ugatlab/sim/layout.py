"""Intersection geometry: 4 approaches x 3 lanes, 12 movements, 8 phases."""

from __future__ import annotations

import math
from dataclasses import dataclass

APPROACHES = ("N", "E", "S", "W")
TURNS = ("left", "through", "right")

N_MOVEMENTS = 12  # one movement per (approach, turn), each owning one incoming lane
N_LANES = 12
N_PHASES = 8
STATE_DIM = N_LANES + N_PHASES

_OPPOSITE = {"N": "S", "S": "N", "E": "W", "W": "E"}


def movement_index(approach: str, turn: str) -> int:
    return APPROACHES.index(approach) * 3 + TURNS.index(turn)


def movement_name(movement: int) -> tuple[str, str]:
    return APPROACHES[movement // 3], TURNS[movement % 3]


def movements_compatible(a: int, b: int) -> bool:
    """Whether two movements may share a phase.

    Right turns yield and are compatible with everything; same-approach
    movements never cross; opposite approaches are compatible only for the
    same turn kind (through+through, left+left); perpendicular left/through
    pairs always cross.
    """
    app_a, turn_a = movement_name(a)
    app_b, turn_b = movement_name(b)
    if turn_a == "right" or turn_b == "right":
        return True
    if app_a == app_b:
        return True
    if _OPPOSITE[app_a] == app_b:
        return turn_a == turn_b
    return False


def _phase(*moves: tuple[str, str]) -> frozenset[int]:
    permitted = {movement_index(a, t) for a, t in moves}
    permitted |= {movement_index(a, "right") for a in APPROACHES}
    return frozenset(permitted)


# Standard 8-phase scheme: paired through, paired left, and one split phase
# per approach; right turns are permitted in every phase.
PHASES: tuple[frozenset[int], ...] = (
    _phase(("N", "through"), ("S", "through")),
    _phase(("N", "left"), ("S", "left")),
    _phase(("E", "through"), ("W", "through")),
    _phase(("E", "left"), ("W", "left")),
    _phase(("N", "through"), ("N", "left")),
    _phase(("S", "through"), ("S", "left")),
    _phase(("E", "through"), ("E", "left")),
    _phase(("W", "through"), ("W", "left")),
)

ALL_RED: frozenset[int] = frozenset()


@dataclass(frozen=True)
class IntersectionLayout:
    """Single four-leg intersection; every incoming lane is lane_length long."""

    lane_length: float = 300.0

    def __post_init__(self):
        if not (math.isfinite(self.lane_length) and self.lane_length > 0):
            raise ValueError(f"lane_length must be finite and positive: {self.lane_length}")
