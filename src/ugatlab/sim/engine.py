"""Tick-level vehicle kinematics and the episodic intersection environment.

The car-following rule is a speed-capped safe-braking update. Per tick,
front-to-back within each lane:

- target speed is max_speed unless a stop is required; a stop is required
  when the signal forbids the lane's movement (stop point = stop line) or a
  leader blocks (stop point = leader rear - min_gap);
- with d the distance to the nearest stop point, the desired deceleration is
  v^2 / (2 d); if it is within the comfortable decel the vehicle advances at
  the largest speed that keeps a decel-limited stop feasible next tick
  (never exceeding accel-limited speed-up or max_speed), otherwise it brakes
  at min(desired, emergency_decel);
- a vehicle at rest whose path has just opened first burns a per-vehicle
  startup_delay timer, then accelerates for whatever fraction of the tick
  remains, which lets queue discharge propagate vehicle by vehicle;
- speeds clamp to [0, max_speed] and positions advance by speed * tick.

Vehicles that cross the stop line while their movement is permitted traverse
the intersection instantly and complete at the interpolated crossing time.
A crossing while the movement is forbidden is possible only when physics
forbids stopping; it is logged as a signal violation, never corrected.

A pinned vehicle is at a fixed point: its speed is 0, its timer is re-armed
and pos + 0.0 * tick == pos. So while a lane stays closed, the run of
vehicles at its front that were pinned on the tick before is pinned again
with the same state, and each tick skips it: the update starts behind it,
with the leader stop point taken from its last vehicle. The run grows by
each vehicle that is pinned right behind it, and is dropped when the lane
opens or a vehicle of the lane completes. The min-gap check runs inside the
same loop, on each surviving vehicle against the last survivor ahead; the
gaps within the skipped run are constant, so its violations are kept and
logged again each tick, in lane order and then pair order, as a full scan
would log them.

Speeds never exceed max_speed, so a vehicle whose stop point lies at least
cruise_d ahead is not braked by it: __init__ picks cruise_d just beyond
max_speed^2 / (2 decel) + max_speed * tick and checks in floats that there
the safe speed is >= max_speed and max_speed^2 / (2 d) <= decel. Both sides
are monotone in d, so the check covers every larger d, and such a vehicle
takes min(v + accel * tick, max_speed) without the square root, exactly as
the full rule would. Should the float check fail, cruise_d is infinite and
only an unobstructed vehicle cruises.

Arrivals spawn at the first tick at or after their time, one per lane and
tick, once the lane entry has room. Each lane's arrivals are split off the
(frozen) schedule once, in __init__; a heap holds (next arrival time, lane)
for every lane with arrivals left, so a tick whose clock is below the heap's
top spawns nothing, and a tick that spawns touches only the due lanes. Each
due lane spawns at most one vehicle, then goes back on the heap with its next
arrival, or with the same one if its entry is blocked, so the next tick tries
again. Lanes spawn independently, so the order among due lanes does not
matter.

step runs a decision as at most two segments, the yellow ticks and then the
phase ticks, and _tick(permitted, n) runs the n ticks of one segment in one
loop that loads the constants and the per-lane state once.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from ugatlab.sim.demand import DemandSchedule
from ugatlab.sim.layout import ALL_RED, N_LANES, N_PHASES, PHASES, STATE_DIM, IntersectionLayout
from ugatlab.sim.params import SimConfig, VehicleParams

STOP_EPS = 0.1  # m; closer than this to a stop point counts as pinned


class ConfigurationError(ValueError):
    """Invalid layout/params/demand/config combination."""


class LifecycleError(RuntimeError):
    """Operation called in the wrong episode phase (e.g. step after done)."""


class ActionError(ValueError):
    """Phase index outside 0..7."""


class Vehicle:
    __slots__ = ("vid", "movement", "pos", "speed", "spawn_time", "startup_timer")

    def __init__(self, vid: int, movement: int, pos: float, speed: float, spawn_time: float):
        self.vid = vid
        self.movement = movement
        self.pos = pos
        self.speed = speed
        self.spawn_time = spawn_time
        self.startup_timer = 0.0


@dataclass(frozen=True)
class CompletedVehicle:
    vid: int
    movement: int
    spawn_time: float
    completion_time: float


@dataclass(frozen=True)
class MetricsRecord:
    """Episode metrics; att/tp/delay cover completed vehicles only."""

    att: float  # mean travel time, s
    tp: int  # completed vehicles
    reward_mean: float  # mean per-decision reward (<= 0)
    queue_mean: float  # mean per-decision total queue, vehicles
    delay: float  # mean 1 - free_flow/travel per completed vehicle
    delay_seconds: float  # mean raw delay, s
    spawned: int  # vehicles that entered the network


def _safe_speed(d: float, decel: float, dt: float) -> float:
    """Largest speed this tick that still allows a decel-limited stop within d."""
    if d <= 0.0:
        return 0.0
    bd = decel * dt
    return -bd + math.sqrt(bd * bd + 2.0 * decel * d)


def _cruise_distance(params: VehicleParams, dt: float) -> float:
    """Stop distance at and beyond which no vehicle at or below max_speed is braked."""
    vmax, decel = params.max_speed, params.decel
    d = vmax * vmax / (2.0 * decel) + vmax * dt + 1.0  # 1 m beyond the exact bound
    if _safe_speed(d, decel, dt) >= vmax and vmax * vmax / (2.0 * d) <= decel:
        return d
    return math.inf


class TrafficSim:
    """Deterministic single-intersection episode with a reset/step interface."""

    def __init__(
        self,
        layout: IntersectionLayout,
        params: VehicleParams,
        demand: DemandSchedule,
        config: SimConfig,
    ):
        if params.max_speed * config.tick > layout.lane_length:
            raise ConfigurationError("a vehicle must not traverse a whole lane in one tick")
        self.layout = layout
        self.params = params
        self.demand = demand
        self.config = config
        self._cruise_d = _cruise_distance(params, config.tick)
        self._ticks_per_decision = config.ticks_per_decision
        self._yellow_ticks = config.yellow_ticks
        self._episode_ticks = config.episode_ticks
        # per lane, its (arrival time, vid) pairs in schedule order
        self._backlog: list[list[tuple[float, int]]] = [[] for _ in range(N_LANES)]
        for vid, (t, movement) in enumerate(demand.arrivals):
            self._backlog[movement].append((t, vid))
        self.reset()

    # --- lifecycle -----------------------------------------------------

    def reset(self) -> np.ndarray:
        """Empty network, phase 0, clock 0; returns the all-zero initial state."""
        self.tick_count = 0
        self.phase = 0
        self.pending_phase: int | None = None
        self.lanes: list[list[Vehicle]] = [[] for _ in range(N_LANES)]
        # per closed lane: length of the front run pinned since the last tick,
        # and the min-gap violations between its members (constant while pinned)
        self._settled = [0] * N_LANES
        self._settled_gaps: list[list[float]] = [[] for _ in range(N_LANES)]
        self._backlog_idx = [0] * N_LANES
        # (next pending arrival time, lane) for every lane with arrivals left
        self._due = [(backlog[0][0], lane_idx) for lane_idx, backlog in enumerate(self._backlog) if backlog]
        heapq.heapify(self._due)
        self.spawned = 0
        self.completed: list[CompletedVehicle] = []
        self.gap_violations: list[tuple[float, int, float]] = []
        self.signal_violations: list[tuple[float, int, int]] = []
        self._decision_rewards: list[float] = []
        self._decision_queues: list[int] = []
        self.queues: tuple[int, ...] = (0,) * N_LANES  # lane_queue_counts() at the last decision
        self._done = False
        return self.observe()

    @property
    def time(self) -> float:
        return self.tick_count * self.config.tick

    @property
    def done(self) -> bool:
        return self._done

    # --- observation & metrics ------------------------------------------

    def observe(self) -> np.ndarray:
        """Per-lane vehicle counts plus the controlling-phase one-hot (dim 20)."""
        state = np.zeros(STATE_DIM)
        for i, lane in enumerate(self.lanes):
            state[i] = len(lane)
        display = self.pending_phase if self.pending_phase is not None else self.phase
        state[N_LANES + display] = 1.0
        return state

    def lane_queue_counts(self) -> tuple[int, ...]:
        thr = self.config.queue_speed_threshold
        return tuple(sum(1 for v in lane if v.speed < thr) for lane in self.lanes)

    def finalize_metrics(self) -> MetricsRecord:
        if not self._done:
            raise LifecycleError("finalize_metrics before the episode is done")
        free_flow = self.layout.lane_length / self.params.max_speed
        travels = [c.completion_time - c.spawn_time for c in self.completed]
        att = float(np.mean(travels)) if travels else 0.0
        delay = float(np.mean([1.0 - free_flow / t for t in travels])) if travels else 0.0
        delay_s = float(np.mean([t - free_flow for t in travels])) if travels else 0.0
        return MetricsRecord(
            att=att,
            tp=len(self.completed),
            reward_mean=float(np.mean(self._decision_rewards)) if self._decision_rewards else 0.0,
            queue_mean=float(np.mean(self._decision_queues)) if self._decision_queues else 0.0,
            delay=delay,
            delay_seconds=delay_s,
            spawned=self.spawned,
        )

    # --- control ---------------------------------------------------------

    def step(self, action: int) -> tuple[np.ndarray, float, bool]:
        """Apply a phase for one decision interval; returns (state, reward, done).

        A change of phase inserts a yellow_time all-red interlude before the
        new phase takes effect; reward is -(total queued vehicles) at the
        decision instant.
        """
        if self._done:
            raise LifecycleError("step after the episode is done")
        action = int(action)
        if not 0 <= action < N_PHASES:
            raise ActionError(f"phase index {action} outside 0..{N_PHASES - 1}")
        if action != self.phase:
            self.pending_phase = action
            self._tick(ALL_RED, self._yellow_ticks)
            self.phase = action
            self.pending_phase = None
            self._tick(PHASES[action], self._ticks_per_decision - self._yellow_ticks)
        else:
            self._tick(PHASES[action], self._ticks_per_decision)
        queues = self.queues = self.lane_queue_counts()
        total_queue = sum(queues)
        reward = -float(total_queue)
        self._decision_rewards.append(reward)
        self._decision_queues.append(total_queue)
        if self.tick_count >= self._episode_ticks:
            self._done = True
        return self.observe(), reward, self._done

    # --- internals --------------------------------------------------------

    def _spawn(self, now: float) -> None:
        """Spawn at most one vehicle into each lane whose next arrival is due at now."""
        p = self.params
        due = self._due
        due_lanes = []
        while due and due[0][0] <= now:
            due_lanes.append(heapq.heappop(due)[1])
        entry_clearance = p.vehicle_length + p.min_gap
        for lane_idx in due_lanes:
            backlog = self._backlog[lane_idx]
            i = self._backlog_idx[lane_idx]
            lane = self.lanes[lane_idx]
            # stop point seen from pos 0; a blocked entry keeps the arrival due
            d_entry = lane[-1].pos - entry_clearance if lane else math.inf
            if d_entry >= 0.0:
                speed = min(p.max_speed, _safe_speed(d_entry, p.decel, self.config.tick))
                lane.append(Vehicle(backlog[i][1], lane_idx, 0.0, speed, now))
                i += 1
                self._backlog_idx[lane_idx] = i
                self.spawned += 1
                if i == len(backlog):
                    continue
            heapq.heappush(due, (backlog[i][0], lane_idx))

    def _tick(self, permitted: frozenset[int], n: int) -> None:
        """Run n ticks under one set of permitted movements."""
        p = self.params
        dt = self.config.tick
        accel = p.accel
        accel_dt = accel * dt
        max_speed = p.max_speed
        decel = p.decel
        bd = decel * dt  # safe speed at stop distance d: -bd + sqrt(bd2 + two_decel * d)
        bd2 = bd * bd
        two_decel = 2.0 * decel
        emergency_decel = p.emergency_decel
        startup_delay = p.startup_delay
        cruise_d = self._cruise_d
        sqrt = math.sqrt
        stop_line = self.layout.lane_length
        length = p.vehicle_length
        clearance = length + p.min_gap
        gap_floor = p.min_gap - 1e-9
        inf = math.inf
        lanes = self.lanes
        settled_runs = self._settled
        settled_gaps_per_lane = self._settled_gaps
        due = self._due
        gap_violations = self.gap_violations
        signal_violations = self.signal_violations
        completed = self.completed
        tick_count = self.tick_count

        for _ in range(n):
            now = tick_count * dt
            if due and due[0][0] <= now:
                self._spawn(now)
            tick_count += 1
            stamp = tick_count * dt  # self.time once this tick is counted

            for lane_idx, lane in enumerate(lanes):
                if not lane:
                    continue
                lane_open = lane_idx in permitted
                settled_gaps = settled_gaps_per_lane[lane_idx]
                if lane_open:
                    settled = 0
                    settled_gaps.clear()
                else:
                    settled = settled_runs[lane_idx]
                    if settled_gaps:
                        gap_violations.extend((stamp, lane_idx, gap) for gap in settled_gaps)
                ahead_pos = lane[settled - 1].pos if settled else inf  # last survivor ahead
                leader_stop = ahead_pos - clearance  # stop point imposed by the vehicle ahead
                completed_any = False
                for i in range(settled, len(lane)):
                    veh = lane[i]
                    pos = veh.pos
                    v = veh.speed
                    stop_at = leader_stop
                    if not lane_open and stop_line < stop_at:
                        stop_at = stop_line
                    d = stop_at - pos
                    joins = False

                    # each min(a, b) below is written as "a, unless b < a", which
                    # returns the same float
                    if d <= STOP_EPS:
                        # pinned at a stop point; hold and keep the startup timer armed
                        new_v = 0.0
                        veh.startup_timer = startup_delay
                        joins = i == settled and not lane_open
                        if joins:
                            settled += 1
                    elif v <= 0.0 and veh.startup_timer > 0.0:
                        if veh.startup_timer >= dt:
                            veh.startup_timer -= dt
                            new_v = 0.0
                        else:
                            free = dt - veh.startup_timer
                            veh.startup_timer = 0.0
                            new_v = accel * free
                            if max_speed < new_v:
                                new_v = max_speed
                            if d < cruise_d:
                                safe = -bd + sqrt(bd2 + two_decel * d)
                                if safe < new_v:
                                    new_v = safe
                    elif d >= cruise_d:
                        new_v = v + accel_dt
                        if max_speed < new_v:
                            new_v = max_speed
                    else:
                        desired = v * v / (2.0 * d)
                        if desired <= decel:
                            new_v = v + accel_dt
                            if max_speed < new_v:
                                new_v = max_speed
                            safe = -bd + sqrt(bd2 + two_decel * d)
                            if safe < new_v:
                                new_v = safe
                        else:
                            new_v = v - (emergency_decel if emergency_decel < desired else desired) * dt
                            if new_v < 0.0:
                                new_v = 0.0

                    veh.speed = new_v
                    new_pos = pos + new_v * dt
                    veh.pos = new_pos
                    leader_stop = new_pos - clearance

                    if new_pos >= stop_line:
                        if not lane_open:
                            signal_violations.append((now, lane_idx, veh.vid))
                        crossing = now + (stop_line - pos) / new_v if new_v > 0.0 else now
                        completed.append(CompletedVehicle(veh.vid, veh.movement, veh.spawn_time, crossing))
                        veh.pos = inf  # marks the vehicle for removal below
                        completed_any = True
                        continue
                    gap = ahead_pos - length - new_pos
                    if gap < gap_floor:
                        gap_violations.append((stamp, lane_idx, gap))
                        if joins:
                            settled_gaps.append(gap)
                    ahead_pos = new_pos
                if completed_any:
                    lanes[lane_idx] = [v for v in lane if v.pos != inf]
                    settled = 0
                    settled_gaps.clear()
                settled_runs[lane_idx] = settled

            self.tick_count = tick_count
            active = sum(map(len, lanes))
            if self.spawned != active + len(completed):
                raise RuntimeError(
                    f"conservation broken at t={self.time}: spawned {self.spawned} != "
                    f"active {active} + completed {len(completed)}"
                )

    def state_signature(self) -> str:
        """Stable text fingerprint of the full mutable state (for replay checks)."""
        rows = [f"t={self.tick_count} phase={self.phase} done={self._done}"]
        for i, lane in enumerate(self.lanes):
            for v in lane:
                rows.append(f"{i}:{v.vid}:{v.pos!r}:{v.speed!r}:{v.startup_timer!r}")
        rows.append(f"spawned={self.spawned} completed={len(self.completed)}")
        rows.extend(f"c:{c.vid}:{c.completion_time!r}" for c in self.completed)
        rows.extend(f"r:{r!r}" for r in self._decision_rewards)
        return "\n".join(rows)
