"""Protocol runners: train, ground, gate and evaluate; io reports the gaps."""

from __future__ import annotations

import copy
import hashlib
import math
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from functools import partial
from itertools import repeat
from typing import Callable, Sequence

import numpy as np

from ugatlab.dqn import DqnAgent, EpisodeRecord, ReplayBuffer, Transition, play_episode, train_policy
from ugatlab.experiment import io
from ugatlab.experiment.config import ExperimentConfig
from ugatlab.experiment.io import EvalResult, GapReport, SeedResult, build_gap_report
from ugatlab.grounding import (
    ForwardModel,
    InverseModel,
    UncertainAction,
    gate,
    ground,
    train_forward,
    train_inverse,
)
from ugatlab.sim import (
    SCENARIOS,
    DemandSchedule,
    IntersectionLayout,
    MetricsRecord,
    SimConfig,
    TrafficSim,
    generate_demand,
)

_STREAM_NAMES = ("agent_init", "act", "replay", "rollout", "grounder_init", "grounder_train", "head")


def seed_streams(seed: int) -> dict[str, np.random.Generator]:
    """Independent, reproducible generators for every stochastic component."""
    children = np.random.SeedSequence([927059, seed]).spawn(len(_STREAM_NAMES))
    return {name: np.random.default_rng(c) for name, c in zip(_STREAM_NAMES, children)}


def state_hash(state: np.ndarray) -> str:
    return hashlib.blake2b(np.ascontiguousarray(state).tobytes(), digest_size=8).hexdigest()


# --- evaluation --------------------------------------------------------------


def evaluate(
    agent: DqnAgent,
    params_name: str,
    demands: Sequence[DemandSchedule],
    layout: IntersectionLayout,
    sim_cfg: SimConfig,
    env_tag: str = "",
) -> EvalResult:
    """Greedy episodes of play_episode, one per demand schedule, in params_name."""
    records: list[MetricsRecord] = []
    traj_rows: list[tuple] = []
    veh_rows: list[tuple] = []
    params = SCENARIOS[params_name]
    greedy_rng = np.random.default_rng(0)  # never consumed at epsilon 0
    for ep, demand in enumerate(demands):
        env = TrafficSim(layout, params, demand, sim_cfg)
        for t in play_episode(env, lambda s: agent.act(s, 0.0, greedy_rng)):
            traj_rows.append(
                (env_tag, ep, env.time, *t.state, t.action, t.action, t.reward, *env.queues)
            )
        records.append(env.finalize_metrics())
        veh_rows.extend(
            (env_tag, ep, c.vid, c.movement, c.spawn_time, c.completion_time)
            for c in env.completed
        )
    return EvalResult(episodes=records, trajectory_rows=traj_rows, vehicle_rows=veh_rows)


# --- shared plumbing --------------------------------------------------------------


Schedules = tuple[DemandSchedule, list[DemandSchedule]]


def _demands(cfg: ExperimentConfig) -> Schedules:
    """One training schedule plus held-out evaluation schedules."""
    train = generate_demand(cfg.demand_vph, cfg.sim.episode_length, cfg.demand_seed)
    evals = [
        generate_demand(cfg.demand_vph, cfg.sim.episode_length, cfg.demand_seed + 1000 + i)
        for i in range(cfg.eval_episodes)
    ]
    return train, evals


def _training_env(cfg: ExperimentConfig, params_name: str, demand: DemandSchedule):
    return partial(TrafficSim, cfg.layout, SCENARIOS[params_name], demand, cfg.training_sim)


def rollout(
    env_factory: Callable[[], TrafficSim],
    episodes: int,
    agent: DqnAgent,
    epsilon: float,
    rng: np.random.Generator,
) -> list[Transition]:
    """Ungrounded epsilon-greedy episodes of play_episode; stores the executed action."""
    return [
        t for _ in range(episodes) for t in play_episode(env_factory(), lambda s: agent.act(s, epsilon, rng))
    ]


def _seed_result(cfg, seed, state: PolicyState, eval_demands, audit_rows=None, alpha_trace=None):
    agent = state.agent
    sim_eval = evaluate(agent, "Default", eval_demands, cfg.layout, cfg.sim, env_tag="sim")
    real_eval = evaluate(agent, cfg.scenario, eval_demands, cfg.layout, cfg.sim, env_tag="real")
    return SeedResult(seed, sim_eval, real_eval, state.curve, audit_rows or [], alpha_trace or [], agent)


# --- pretraining, shared by every arm of a seed ---------------------------------------


@dataclass
class PolicyState:
    """A seed's policy in training: its streams, agent, replay buffer and curve.

    first_rollouts, when set, holds the grounded loop's iteration-1 (d_sim,
    d_real), collected ahead by run_arms; the rollout stream then stands
    after them. A copy (copy.deepcopy, or pickling to a worker) shares
    nothing with the original, so each arm can continue its own copy of one
    seed's start.
    """

    streams: dict[str, np.random.Generator]
    agent: DqnAgent
    buffer: ReplayBuffer
    curve: list[EpisodeRecord] = field(default_factory=list)
    first_rollouts: tuple[list[Transition], list[Transition]] | None = None

    def train(self, env_factory, episodes: int, step_hook=None) -> None:
        """train_policy on this state; the curve numbers its episodes on from the last."""
        trained = train_policy(
            env_factory, episodes, self.agent, self.buffer, self.streams["act"], step_hook=step_hook
        )
        for r in trained:
            self.curve.append(replace(r, episode=len(self.curve)))


def pretrain(cfg: ExperimentConfig, seed: int, train_demand: DemandSchedule, episodes: int) -> PolicyState:
    """A fresh policy for seed, trained for episodes in the sim twin.

    Every arm of a seed starts here: the arms of a battery with
    cfg.pretrain_episodes, a direct arm that trains alone with none.
    """
    streams = seed_streams(seed)
    state = PolicyState(
        streams,
        DqnAgent(cfg.dqn, streams["agent_init"]),
        ReplayBuffer(cfg.dqn.replay_capacity, streams["replay"]),
    )
    state.train(_training_env(cfg, "Default", train_demand), episodes)
    return state


def train_direct_policy(cfg: ExperimentConfig, seed: int, train_demand: DemandSchedule):
    """seed's direct-transfer (agent, curve), trained from scratch: the bytes of its arm in run_arms."""
    state = pretrain(cfg, seed, train_demand, cfg.direct_episodes)
    return state.agent, state.curve


# --- grounded training (vanilla and uncertainty-gated) --------------------------------


class Grounder:
    """Bundles the forward/inverse pair behind fit() and ground().

    Every fit() re-initializes both models and trains them afresh on the
    current datasets, so the transformation (and its uncertainty) re-
    calibrates to whatever data exists at that iteration instead of
    accumulating training epochs across the whole run.
    """

    def __init__(self, cfg: ExperimentConfig, init_rng: np.random.Generator, head_rng: np.random.Generator):
        self.cfg = cfg
        self._init_rng = init_rng
        self._head_rng = head_rng
        # the first fit() replaces these unused; they stay only because building
        # them draws from the grounder_init stream, which fixes every grounded
        # run's bytes
        self.forward_model = ForwardModel(cfg.grounding, init_rng)
        self.inverse_model = InverseModel(cfg.grounding, cfg.head, init_rng)

    def fit(self, d_real: Sequence[Transition], d_sim: Sequence[Transition], rng: np.random.Generator):
        g = self.cfg.grounding
        self.forward_model = ForwardModel(g, self._init_rng)
        self.inverse_model = InverseModel(g, self.cfg.head, self._init_rng)
        train_forward(self.forward_model, d_real, g.train_epochs, g.batch_size, rng)
        train_inverse(self.inverse_model, d_sim, g.train_epochs, g.batch_size, rng)

    def ground(self, state: np.ndarray, action: int) -> UncertainAction:
        return ground(state, action, self.forward_model, self.inverse_model, self._head_rng)


def collect_rollouts(
    cfg: ExperimentConfig, state: PolicyState, train_demand: DemandSchedule
) -> tuple[list[Transition], list[Transition]]:
    """One grounding iteration's sim and real rollouts of state's policy.

    Both draw from the rollout stream, sim first; the agent is only read.
    """
    args = (cfg.rollout_episodes, state.agent, cfg.rollout_epsilon, state.streams["rollout"])
    return tuple(rollout(_training_env(cfg, name, train_demand), *args) for name in ("Default", cfg.scenario))


def run_ugat(cfg: ExperimentConfig, seed: int, start: PolicyState, schedules: Schedules) -> SeedResult:
    """One seed of the grounded-training loop, continuing start in place.

    start is this seed's state after cfg.pretrain_episodes, with iteration
    1's sim and real rollouts in first_rollouts. Per iteration: take those
    rollouts (collect fresh ones from iteration 2 on), refit the
    transformation models, run E grounded policy-training episodes of T steps
    (gating every step on u < alpha, learning every step, logging each step
    as an audit row), and finally, under the dynamic rule, set alpha to the
    mean u of this iteration's audit rows. ugat starts alpha at +inf; gat
    pins it there and ugat_static at its constant.
    """
    if cfg.algorithm == "direct":
        raise ValueError("run_ugat needs a grounding algorithm (gat/ugat/ugat_static)")
    train_demand, eval_demands = schedules
    streams = start.streams
    sim_factory = _training_env(cfg, "Default", train_demand)
    rollouts, start.first_rollouts = start.first_rollouts, None

    grounder = Grounder(cfg, streams["grounder_init"], streams["head"])
    alpha = float(cfg.static_alpha) if cfg.algorithm == "ugat_static" else math.inf
    d_sim: list[Transition] = []
    d_real: list[Transition] = []
    audit_rows: list[tuple] = []
    alpha_trace: list[tuple[int, float]] = []

    def grounded_step(state: np.ndarray, action: int) -> int:
        grounded = grounder.ground(state, action)
        executed, accepted = gate(action, grounded, alpha)
        u = grounded.uncertainty
        audit_rows.append((len(audit_rows), state_hash(state), action, grounded.action, u, alpha, accepted))
        return executed

    for iteration in range(1, cfg.iterations + 1):
        if iteration > 1:
            rollouts = collect_rollouts(cfg, start, train_demand)
        d_sim.extend(rollouts[0])
        d_real.extend(rollouts[1])
        grounder.fit(d_real, d_sim, streams["grounder_train"])

        first_row = len(audit_rows)
        start.train(sim_factory, cfg.epochs_per_iteration, step_hook=grounded_step)
        if cfg.algorithm == "ugat":
            alpha = float(np.mean([row[4] for row in audit_rows[first_row:]]))
        alpha_trace.append((iteration, alpha))

    return _seed_result(cfg, seed, start, eval_demands, audit_rows, alpha_trace)


# --- batteries: ablation, sweep, head comparison ----------------------------------------

# every config field a seed's start reads: the schedules, the pretraining and iteration 1's rollouts
_START_FIELDS = (
    "seeds", "demand_vph", "demand_seed", "eval_episodes", "sim", "steps_per_episode", "layout", "dqn",
    "pretrain_episodes", "scenario", "rollout_episodes", "rollout_epsilon",
)


def _start(cfg: ExperimentConfig, seed: int, train_demand: DemandSchedule, collect: bool) -> PolicyState:
    """seed's pretraining; with collect, iteration 1's rollouts are collected into it in place."""
    state = pretrain(cfg, seed, train_demand, cfg.pretrain_episodes)
    if collect:
        state.first_rollouts = collect_rollouts(cfg, state, train_demand)
    return state


def _trains_alone(cfg: ExperimentConfig) -> bool:
    """A direct arm whose budget is below the pretraining, so it cannot continue the start."""
    return cfg.algorithm == "direct" and cfg.direct_episodes < cfg.pretrain_episodes


def _run_seed(
    cfg: ExperimentConfig, seed: int, start: PolicyState | None, schedules: Schedules
) -> SeedResult:
    """One (arm, seed) task on its own copy of seed's start (None: a fresh, untrained one).

    A grounded arm runs run_ugat; a direct arm continues the copy in the sim
    twin to cfg.direct_episodes, the bytes of train_direct_policy.
    """
    train_demand, eval_demands = schedules
    start = pretrain(cfg, seed, train_demand, 0) if start is None else copy.deepcopy(start)
    if cfg.algorithm != "direct":
        return run_ugat(cfg, seed, start, schedules)
    start.train(_training_env(cfg, "Default", train_demand), cfg.direct_episodes - len(start.curve))
    return _seed_result(cfg, seed, start, eval_demands)


def run_arms(arms: Sequence[tuple[str, ExperimentConfig]], jobs: int = 1) -> list[tuple[str, GapReport]]:
    """Run labelled protocol arms, one task per (arm, seed), on up to `jobs` worker processes.

    The arms share one output root. Their labels must be distinct, since a
    label names the arm's rows of the report, and they must agree on every
    field in _START_FIELDS, so every arm of a seed starts the same way; a
    battery that breaks either is rejected before anything is written. What
    the arms share runs once, first, and every task
    continues its own copy, so the bytes are those of each arm run alone:
    - the demand schedules, generated once and handed to the demands/
      writer, the starts and every task;
    - each seed's start: its pretraining and, when any arm grounds, the
      grounded loop's iteration-1 sim and real rollouts and the rollout
      stream after them. A direct arm reads neither, so it continues the
      same start to its budget; one whose budget is below the pretraining
      continues a fresh, untrained start of its own instead.
    The pool holds at most one worker per task.

    The tasks only compute; this is the one writer of the run tree. The
    shared demands/ directory is written first. Each arm's seed directories
    follow in arm and seed order, and its GapReport is built from its seeds
    in that order, so the tree is the same for any `jobs` and no two
    processes write one file.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1: {jobs}")
    labels = [label for label, _ in arms]
    if len(set(labels)) < len(labels):
        raise ValueError(f"the arms of a battery need distinct labels: {', '.join(labels)}")
    configs = [cfg for _, cfg in arms]
    base = configs[0]
    differ = [name for name in _START_FIELDS if any(getattr(c, name) != getattr(base, name) for c in configs)]
    if differ:
        raise ValueError(f"the arms of a battery must agree on {', '.join(differ)}")
    schedules = _demands(base)
    if base.out_dir is not None:
        io.write_demands(base.out_dir, *schedules)
    grounds = any(cfg.algorithm != "direct" for cfg in configs)
    seeds = () if all(map(_trains_alone, configs)) else base.seeds
    tasks = [(cfg, seed) for cfg in configs for seed in base.seeds]
    parallel = jobs > 1 and len(tasks) > 1
    rows = []
    if parallel:
        # concurrent.futures.process loads multiprocessing, subprocess and
        # socket; only a battery that starts a pool should pay for them
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(max_workers=min(jobs, len(tasks)))
    else:
        pool = nullcontext()
    with pool:
        mapper = pool.map if parallel else map
        starts = dict(zip(seeds, mapper(_start, repeat(base), seeds, repeat(schedules[0]), repeat(grounds))))
        task_starts = [None if _trains_alone(cfg) else starts[seed] for cfg, seed in tasks]
        results = mapper(_run_seed, *zip(*tasks), task_starts, repeat(schedules))
        for label, cfg in arms:
            per_seed = [next(results) for _ in base.seeds]
            if base.out_dir is not None:
                for result in per_seed:
                    io.write_seed_run(cfg, cfg.protocol_label, result)
            rows.append((label, build_gap_report(cfg.protocol_label, cfg.scenario, per_seed)))
    return rows


def run_ablation(cfg: ExperimentConfig, jobs: int = 1) -> list[tuple[str, GapReport]]:
    """UGAT, fixed alpha 0.5, vanilla grounding, and no grounding; shared seeds.

    Every battery starts from the dynamic ugat arm: a static rate belongs only
    to the arms that set one, so no other arm's manifest echoes it.
    """
    base = replace(cfg, algorithm="ugat", static_alpha=None)
    arms = [
        ("ugat", base),
        ("no_dynamic_alpha", replace(base, algorithm="ugat_static", static_alpha=0.5)),
        ("no_alpha_no_uncertainty", replace(base, algorithm="gat", head="logits")),
        ("no_grounding", replace(base, algorithm="direct")),
    ]
    return run_arms(arms, jobs)


def sweep_static_alpha(
    cfg: ExperimentConfig, alphas: Sequence[float], jobs: int = 1
) -> list[tuple[str, GapReport]]:
    if not alphas:
        raise ValueError("alphas must be nonempty")
    base = replace(cfg, algorithm="ugat", static_alpha=None)
    arms = [("dynamic", base)] + [
        (f"alpha_{a:g}", replace(base, algorithm="ugat_static", static_alpha=float(a))) for a in alphas
    ]
    return run_arms(arms, jobs)


def compare_uncertainty_methods(cfg: ExperimentConfig, jobs: int = 1) -> list[tuple[str, GapReport]]:
    base = replace(cfg, algorithm="ugat", static_alpha=None)
    arms = [(h, replace(base, head=h)) for h in ("edl", "dropout", "ensemble")]
    arms.append(("gat", replace(base, algorithm="gat", head="logits")))
    return run_arms(arms, jobs)
