"""Protocol runners: train, ground, gate, evaluate, and report the gaps."""

from __future__ import annotations

import copy
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
                (env_tag, ep, env.time, *t.state, t.action, t.action, t.reward, *env.queues)
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


def _train_demand(cfg: ExperimentConfig) -> DemandSchedule:
    return generate_demand(cfg.demand_vph, cfg.sim.episode_length, cfg.demand_seed)


def _demands(cfg: ExperimentConfig) -> tuple[DemandSchedule, list[DemandSchedule]]:
    """One training schedule plus held-out evaluation schedules."""
    train = _train_demand(cfg)
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


# --- pretraining, shared by every arm of a seed ---------------------------------------


@dataclass
class PolicyState:
    """A seed's policy in training: its streams, agent, replay buffer and curve.

    A copy (copy.deepcopy, or pickling to a worker) shares nothing with the
    original, so each arm can continue its own copy of one pretraining.
    """

    streams: dict[str, np.random.Generator]
    agent: DqnAgent
    buffer: ReplayBuffer
    curve: list[EpisodeRecord] = field(default_factory=list)

    def train(self, env_factory, episodes: int, step_hook=None) -> None:
        """train_policy on this state; the curve numbers its episodes on from the last."""
        trained = train_policy(
            env_factory, episodes, self.agent, self.buffer, self.streams["act"], step_hook=step_hook
        )
        for r in trained:
            self.curve.append(replace(r, episode=len(self.curve)))


def _sim_factory(cfg: ExperimentConfig, train_demand: DemandSchedule):
    return _env_factory(cfg, "Default", train_demand, cfg.training_sim)


def pretrain(cfg: ExperimentConfig, seed: int, train_demand: DemandSchedule, episodes: int) -> PolicyState:
    """A fresh policy for seed, trained for episodes in the sim twin.

    Every arm of a seed starts here: the grounded arms with
    cfg.pretrain_episodes, direct transfer with all of its budget.
    """
    streams = seed_streams(seed)
    state = PolicyState(
        streams,
        DqnAgent(cfg.dqn, streams["agent_init"]),
        ReplayBuffer(cfg.dqn.replay_capacity, streams["replay"]),
    )
    state.train(_sim_factory(cfg, train_demand), episodes)
    return state


# --- direct transfer ---------------------------------------------------------------


def train_direct_policy(
    cfg: ExperimentConfig, seed: int, train_demand: DemandSchedule, pretrained: PolicyState | None = None
):
    """Train a policy in the sim twin for the direct-transfer budget.

    pretrained, when given, is this seed's state after its first episodes of
    the same training; it is continued in place for the rest of the budget.
    """
    if pretrained is None:
        state = pretrain(cfg, seed, train_demand, cfg.direct_episodes)
    elif len(pretrained.curve) > cfg.direct_episodes:
        raise ValueError(f"pretrained state is past the direct_episodes budget of {cfg.direct_episodes}")
    else:
        state = pretrained
        state.train(_sim_factory(cfg, train_demand), cfg.direct_episodes - len(state.curve))
    return state.agent, state.curve


def run_direct_transfer(cfg: ExperimentConfig, pretrained: dict[int, PolicyState] | None = None) -> GapReport:
    train_demand, eval_demands = _demands(cfg)
    pretrained = pretrained or {}
    per_seed = []
    for seed in cfg.seeds:
        agent, curve = train_direct_policy(cfg, seed, train_demand, pretrained.get(seed))
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
    pretrained: PolicyState | None = None,
) -> SeedResult:
    """One seed of the grounded-training loop.

    Pre-train the policy (or continue pretrained, this seed's state after
    cfg.pretrain_episodes, in place), then per iteration: collect sim and
    real rollouts, refit the transformation models, clear the uncertainty
    log, run E grounded policy-training episodes of T steps (gating every
    step, learning every step), and finally update alpha under the dynamic
    rule. gat pins alpha at +inf and ugat_static at its constant; both skip
    the update.
    """
    state = pretrained if pretrained is not None else pretrain(cfg, seed, train_demand, cfg.pretrain_episodes)
    streams, agent = state.streams, state.agent
    sim_factory = _sim_factory(cfg, train_demand)
    real_factory = _env_factory(cfg, cfg.scenario, train_demand, cfg.training_sim)

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
        state.train(sim_factory, cfg.epochs_per_iteration, step_hook=grounded_step)
        if cfg.algorithm == "ugat":
            update_alpha(rate)
        alpha_trace.append((iteration, rate.alpha))

    return _seed_result(cfg, seed, agent, eval_demands, state.curve, audit_rows, alpha_trace)


def run_ugat(cfg: ExperimentConfig, pretrained: dict[int, PolicyState] | None = None) -> GapReport:
    """The grounded protocol; pretrained maps a seed to its state to continue in place."""
    if cfg.algorithm == "direct":
        raise ValueError("run_ugat needs a grounding algorithm (gat/ugat/ugat_static)")
    train_demand, eval_demands = _demands(cfg)
    pretrained = pretrained or {}
    per_seed = [
        _run_grounded_seed(cfg, seed, train_demand, eval_demands, pretrained.get(seed)) for seed in cfg.seeds
    ]
    return build_gap_report(cfg.protocol_label, cfg.scenario, per_seed)


# --- batteries: ablation, sweep, head comparison ----------------------------------------


def _pretraining_key(cfg: ExperimentConfig, seed: int) -> tuple | None:
    """Everything that feeds a seed's pretraining; None when the arm has none to share.

    A direct arm continues the pretraining only when its budget covers it.
    """
    short_direct = cfg.algorithm == "direct" and cfg.direct_episodes < cfg.pretrain_episodes
    if cfg.pretrain_episodes == 0 or short_direct:
        return None
    return (
        cfg.dqn,
        cfg.training_sim,
        cfg.layout,
        cfg.demand_vph,
        cfg.demand_seed,
        cfg.sim.episode_length,
        seed,
        cfg.pretrain_episodes,
    )


def _shared_pretrainings(configs: Sequence[ExperimentConfig]) -> dict[tuple, tuple[ExperimentConfig, int]]:
    """Each pretraining that more than one arm starts from, with a (cfg, seed) that makes it."""
    users: dict[tuple, list[tuple[ExperimentConfig, int]]] = {}
    for cfg in configs:
        for seed in cfg.seeds:
            key = _pretraining_key(cfg, seed)
            if key is not None:
                users.setdefault(key, []).append((cfg, seed))
    return {key: found[0] for key, found in users.items() if len(found) > 1}


def _pretrain_shared(maker: tuple[ExperimentConfig, int]) -> PolicyState:
    cfg, seed = maker
    return pretrain(cfg, seed, _train_demand(cfg), cfg.pretrain_episodes)


def _run_arm(cfg: ExperimentConfig, pretrained: dict[int, PolicyState]) -> GapReport:
    """One arm's report; it continues its own copy of each shared pretrained state."""
    own = copy.deepcopy(pretrained)
    return run_direct_transfer(cfg, own) if cfg.algorithm == "direct" else run_ugat(cfg, own)


def run_arms(arms: Sequence[tuple[str, ExperimentConfig]], jobs: int = 1) -> list[tuple[str, GapReport]]:
    """Run labelled protocol arms on up to `jobs` worker processes.

    A pretraining that several arms start from (same seed, DQN, training
    sim and demand, and episode count) runs once, first, and every such arm
    continues its own copy: the bytes are those of each arm run alone.

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
    configs = [cfg for _, cfg in arms]
    shared = _shared_pretrainings(configs)
    parallel = jobs > 1 and len(arms) > 1
    rows = []
    with ProcessPoolExecutor(max_workers=jobs) if parallel else nullcontext() as pool:
        mapper = pool.map if parallel else map
        states = dict(zip(shared, mapper(_pretrain_shared, shared.values())))
        per_arm = [
            {seed: states[key] for seed in cfg.seeds if (key := _pretraining_key(cfg, seed)) in states}
            for cfg in configs
        ]
        reports = mapper(_run_arm, configs, per_arm)
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
