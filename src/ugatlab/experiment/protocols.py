"""Protocol runners: train, ground, gate, evaluate, and report the gaps."""

from __future__ import annotations

import hashlib
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Sequence

import numpy as np

from ugatlab.dqn import DqnAgent, EpisodeRecord, ReplayBuffer, Transition, play_episode, train_policy
from ugatlab.experiment.config import ExperimentConfig
from ugatlab.grounding import (
    ForwardModel,
    GroundingRate,
    InverseModel,
    UncertainAction,
    gate,
    ground,
    train_forward,
    train_inverse,
    update_alpha,
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

# report key -> MetricsRecord field; the field names are the metrics.csv columns
METRIC_FIELDS = {"ATT": "att", "TP": "tp", "Reward": "reward_mean", "Queue": "queue_mean", "Delay": "delay"}
METRIC_KEYS = tuple(METRIC_FIELDS)

_STREAM_NAMES = ("agent_init", "act", "replay", "rollout", "grounder_init", "grounder_train", "head")


def seed_streams(seed: int) -> dict[str, np.random.Generator]:
    """Independent, reproducible generators for every stochastic component."""
    children = np.random.SeedSequence([927059, seed]).spawn(len(_STREAM_NAMES))
    return {name: np.random.default_rng(c) for name, c in zip(_STREAM_NAMES, children)}


def state_hash(state: np.ndarray) -> str:
    return hashlib.blake2b(np.ascontiguousarray(state).tobytes(), digest_size=8).hexdigest()


def metric_values(record) -> dict[str, float]:
    if isinstance(record, MetricsRecord):
        return {k: float(getattr(record, f)) for k, f in METRIC_FIELDS.items()}
    return {k: float(record[k]) for k in METRIC_KEYS}


def compute_gap(real, sim) -> dict[str, float]:
    """Per-metric transfer gap: value in the real twin minus the sim twin."""
    r, s = metric_values(real), metric_values(sim)
    return {k: r[k] - s[k] for k in METRIC_KEYS}


# --- evaluation --------------------------------------------------------------


@dataclass
class EvalResult:
    """Greedy-policy evaluation over a set of demand schedules.

    mean/std aggregate per metric over episodes; std is the population
    standard deviation (a single episode evaluates to std 0).
    """

    episodes: list[MetricsRecord]
    trajectory_rows: list[tuple] = field(default_factory=list)  # trajectory.csv rows, in column order
    vehicle_rows: list[tuple] = field(default_factory=list)
    mean: dict[str, float] = field(init=False)
    std: dict[str, float] = field(init=False)

    def __post_init__(self):
        self.mean, self.std = aggregate_metrics(self.episodes)


def aggregate_metrics(records: Sequence[MetricsRecord]) -> tuple[dict[str, float], dict[str, float]]:
    """Mean and population std per metric over evaluation episodes."""
    values = {k: np.array([metric_values(r)[k] for r in records]) for k in METRIC_KEYS}
    mean = {k: float(v.mean()) for k, v in values.items()}
    std = {k: float(v.std()) for k, v in values.items()}
    return mean, std


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
                (env_tag, ep, env.time, *t.state, t.action, t.action, t.reward, *env.lane_queue_counts())
            )
        records.append(env.finalize_metrics())
        veh_rows.extend(
            (env_tag, ep, c.vid, c.movement, c.spawn_time, c.completion_time)
            for c in env.completed
        )
    return EvalResult(episodes=records, trajectory_rows=traj_rows, vehicle_rows=veh_rows)


# --- report types --------------------------------------------------------------


@dataclass
class SeedResult:
    """One seed in both twins: per-metric episode means and their gap, real - sim."""

    seed: int
    sim_eval: EvalResult
    real_eval: EvalResult
    training_curve: list[EpisodeRecord] = field(default_factory=list)
    audit_rows: list[tuple] = field(default_factory=list)
    alpha_trace: list[tuple[int, float]] = field(default_factory=list)
    sim: dict[str, float] = field(init=False)
    real: dict[str, float] = field(init=False)
    delta: dict[str, float] = field(init=False)

    def __post_init__(self):
        self.sim, self.real = self.sim_eval.mean, self.real_eval.mean
        self.delta = compute_gap(self.real, self.sim)


@dataclass(frozen=True)
class MetricStats:
    sim_mean: float
    sim_std: float
    real_mean: float
    real_std: float
    delta_mean: float
    delta_std: float


@dataclass
class GapReport:
    protocol: str
    scenario: str
    seeds: tuple[int, ...]
    per_seed: list[SeedResult]
    stats: dict[str, MetricStats]


def _sample_std(values: np.ndarray) -> float:
    return float(values.std(ddof=1)) if len(values) > 1 else 0.0


def build_gap_report(protocol: str, scenario: str, per_seed: list[SeedResult]) -> GapReport:
    """Per-metric mean and sample std over seeds."""
    stats = {}
    for k in METRIC_KEYS:
        sim = np.array([r.sim[k] for r in per_seed])
        real = np.array([r.real[k] for r in per_seed])
        delta = np.array([r.delta[k] for r in per_seed])
        stats[k] = MetricStats(
            sim_mean=float(sim.mean()),
            sim_std=_sample_std(sim),
            real_mean=float(real.mean()),
            real_std=_sample_std(real),
            delta_mean=float(delta.mean()),
            delta_std=_sample_std(delta),
        )
    return GapReport(
        protocol=protocol,
        scenario=scenario,
        seeds=tuple(r.seed for r in per_seed),
        per_seed=per_seed,
        stats=stats,
    )


# --- shared plumbing --------------------------------------------------------------


def _demands(cfg: ExperimentConfig) -> tuple[DemandSchedule, list[DemandSchedule]]:
    """One training schedule plus held-out evaluation schedules."""
    train = generate_demand(cfg.demand_vph, cfg.sim.episode_length, cfg.demand_seed)
    evals = [
        generate_demand(cfg.demand_vph, cfg.sim.episode_length, cfg.demand_seed + 1000 + i)
        for i in range(cfg.eval_episodes)
    ]
    return train, evals


def _env_factory(cfg: ExperimentConfig, params_name: str, demand: DemandSchedule, sim_cfg: SimConfig):
    return partial(TrafficSim, cfg.layout, SCENARIOS[params_name], demand, sim_cfg)


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


def _seed_result(cfg, seed, agent, eval_demands, curve, audit_rows=None, alpha_trace=None) -> SeedResult:
    sim_eval = evaluate(agent, "Default", eval_demands, cfg.layout, cfg.sim, env_tag="sim")
    real_eval = evaluate(agent, cfg.scenario, eval_demands, cfg.layout, cfg.sim, env_tag="real")
    return SeedResult(seed, sim_eval, real_eval, curve, audit_rows or [], alpha_trace or [])


# --- direct transfer ---------------------------------------------------------------


def train_direct_policy(cfg: ExperimentConfig, seed: int, train_demand: DemandSchedule):
    """Train a policy in the sim twin for the direct-transfer budget."""
    streams = seed_streams(seed)
    agent = DqnAgent(cfg.dqn, streams["agent_init"])
    buffer = ReplayBuffer(cfg.dqn.replay_capacity, streams["replay"])
    factory = _env_factory(cfg, "Default", train_demand, cfg.training_sim)
    return agent, train_policy(factory, cfg.direct_episodes, agent, buffer, streams["act"])


def run_direct_transfer(cfg: ExperimentConfig) -> GapReport:
    train_demand, eval_demands = _demands(cfg)
    per_seed = []
    for seed in cfg.seeds:
        agent, curve = train_direct_policy(cfg, seed, train_demand)
        per_seed.append(_seed_result(cfg, seed, agent, eval_demands, curve))
    return build_gap_report("direct", cfg.scenario, per_seed)


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


def _initial_rate(cfg: ExperimentConfig) -> GroundingRate:
    if cfg.algorithm == "ugat_static":
        return GroundingRate(alpha=float(cfg.static_alpha))
    return GroundingRate()  # +inf until the first dynamic update


def _run_grounded_seed(
    cfg: ExperimentConfig,
    seed: int,
    train_demand: DemandSchedule,
    eval_demands,
) -> SeedResult:
    """One seed of the grounded-training loop.

    Pre-train the policy, then per iteration: collect sim and real rollouts,
    refit the transformation models, clear the uncertainty log, run E
    grounded policy-training episodes of T steps (gating every step, learning
    every step), and finally update alpha under the dynamic rule. gat pins
    alpha at +inf and ugat_static at its constant; both skip the update.
    """
    streams = seed_streams(seed)
    agent = DqnAgent(cfg.dqn, streams["agent_init"])
    buffer = ReplayBuffer(cfg.dqn.replay_capacity, streams["replay"])
    sim_factory = _env_factory(cfg, "Default", train_demand, cfg.training_sim)
    real_factory = _env_factory(cfg, cfg.scenario, train_demand, cfg.training_sim)

    curve = train_policy(sim_factory, cfg.pretrain_episodes, agent, buffer, streams["act"])

    grounder = Grounder(cfg, streams["grounder_init"], streams["head"])
    rate = _initial_rate(cfg)
    d_sim: list[Transition] = []
    d_real: list[Transition] = []
    audit_rows: list[tuple] = []
    alpha_trace: list[tuple[int, float]] = []

    def grounded_step(state: np.ndarray, action: int) -> int:
        grounded = grounder.ground(state, action)
        executed, accepted = gate(action, grounded, rate)
        audit_rows.append(
            (
                len(audit_rows),
                state_hash(state),
                action,
                grounded.action,
                grounded.uncertainty,
                rate.alpha,
                accepted,
            )
        )
        return executed

    for iteration in range(1, cfg.iterations + 1):
        d_sim.extend(rollout(sim_factory, cfg.rollout_episodes, agent, cfg.rollout_epsilon, streams["rollout"]))
        d_real.extend(rollout(real_factory, cfg.rollout_episodes, agent, cfg.rollout_epsilon, streams["rollout"]))
        grounder.fit(d_real, d_sim, streams["grounder_train"])

        rate.logged.clear()
        trained = train_policy(
            sim_factory, cfg.epochs_per_iteration, agent, buffer, streams["act"], step_hook=grounded_step
        )
        for r in trained:
            curve.append(replace(r, episode=len(curve)))
        if cfg.algorithm == "ugat":
            update_alpha(rate)
        alpha_trace.append((iteration, rate.alpha))

    return _seed_result(cfg, seed, agent, eval_demands, curve, audit_rows, alpha_trace)


def run_ugat(cfg: ExperimentConfig) -> GapReport:
    if cfg.algorithm == "direct":
        raise ValueError("run_ugat needs a grounding algorithm (gat/ugat/ugat_static)")
    train_demand, eval_demands = _demands(cfg)
    per_seed = [_run_grounded_seed(cfg, seed, train_demand, eval_demands) for seed in cfg.seeds]
    return build_gap_report(cfg.protocol_label, cfg.scenario, per_seed)


# --- batteries: ablation, sweep, head comparison ----------------------------------------


def _run_arm(cfg: ExperimentConfig) -> GapReport:
    return run_direct_transfer(cfg) if cfg.algorithm == "direct" else run_ugat(cfg)


def run_arms(arms: Sequence[tuple[str, ExperimentConfig]], jobs: int = 1) -> list[tuple[str, GapReport]]:
    """Run labelled protocol arms on up to `jobs` worker processes.

    The runners only compute; this is the one writer of the run tree. The arms
    share one output root and one demand configuration, so the shared
    demands/ directory is written first. Each arm's seed directories follow
    in arm order as its report arrives, so the tree is the same for any
    `jobs` and no two processes write one file.
    """
    from ugatlab.experiment import io  # io imports this module

    _, first = arms[0]
    out_dir = first.out_dir
    if out_dir is not None:
        io.write_demands(out_dir, *_demands(first))
    parallel = jobs > 1 and len(arms) > 1
    rows = []
    with ProcessPoolExecutor(max_workers=jobs) if parallel else nullcontext() as pool:
        reports = (pool.map if parallel else map)(_run_arm, [cfg for _, cfg in arms])
        for (label, cfg), report in zip(arms, reports):
            if out_dir is not None:
                for result in report.per_seed:
                    io.write_seed_run(cfg, report.protocol, result)
            rows.append((label, report))
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
