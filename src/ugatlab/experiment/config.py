"""Resolved configuration for one protocol run."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ugatlab.dqn import DqnConfig
from ugatlab.grounding import HEAD_KINDS, GroundingConfig
from ugatlab.sim import N_LANES, N_PHASES, SCENARIOS, IntersectionLayout, SimConfig

ALGORITHMS = ("direct", "gat", "ugat", "ugat_static")

FORMAT_VERSION = 1

NESTED_SECTIONS = ("dqn", "grounding", "sim", "layout")
# ExperimentConfig fields that are no [experiment] key: the nested configs have
# their own sections, and out_dir is where a run is written, not what it runs
NON_EXPERIMENT_KEYS = (*NESTED_SECTIONS, "out_dir")


@dataclass(frozen=True)
class ExperimentConfig:
    scenario: str = "V1"  # which variant plays the stand-in for reality
    algorithm: str = "ugat"
    head: str = "edl"
    static_alpha: float | None = None  # required when algorithm == ugat_static
    seeds: tuple[int, ...] = (1, 2, 3)
    pretrain_episodes: int = 100  # policy episodes before grounding starts
    iterations: int = 10  # grounding iterations
    epochs_per_iteration: int = 5  # policy-training episodes per iteration
    steps_per_episode: int = 120  # decision steps per training episode
    rollout_episodes: int = 2  # data-collection episodes per env per iteration
    rollout_epsilon: float = 0.05
    eval_episodes: int = 5  # held-out demand schedules for final evaluation
    direct_episodes: int = 300  # training budget of the direct-transfer baseline
    demand_vph: float = 2600.0  # binding demand; lighter loads mask the dynamics gap
    demand_seed: int = 7
    dqn: DqnConfig = field(default_factory=DqnConfig)
    grounding: GroundingConfig = field(default_factory=GroundingConfig)
    sim: SimConfig = field(default_factory=SimConfig)
    layout: IntersectionLayout = field(default_factory=IntersectionLayout)
    out_dir: str | None = None  # run-tree root; of the protocols only run_arms reads it

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ValueError(f"unknown scenario {self.scenario!r}; pick from {sorted(SCENARIOS)}")
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}; pick from {ALGORITHMS}")
        if self.head not in HEAD_KINDS:
            raise ValueError(f"unknown head {self.head!r}; pick from {HEAD_KINDS}")
        if not self.seeds:
            raise ValueError("seeds must be nonempty")
        if self.algorithm == "ugat_static" and self.static_alpha is None:
            raise ValueError("ugat_static needs static_alpha")
        if self.static_alpha is not None and not self.static_alpha >= 0.0:  # NaN and -inf fail
            raise ValueError(f"static_alpha must be >= 0 or +inf: {self.static_alpha}")
        if self.algorithm != "direct":
            if self.iterations < 1 or self.epochs_per_iteration < 1:
                raise ValueError("grounding algorithms need iterations >= 1 and epochs >= 1")
        if self.steps_per_episode < 1 or self.eval_episodes < 1 or self.rollout_episodes < 1:
            raise ValueError("episode/rollout counts must be >= 1")
        if self.dqn.state_scale is None:
            # lane counts scaled as the grounding models scale them, phase one-hot
            # untouched; the derived scale is then explicit, so
            # replace(cfg, grounding=...) keeps it
            scale = (1.0 / self.grounding.count_scale,) * N_LANES + (1.0,) * N_PHASES
            object.__setattr__(self, "dqn", replace(self.dqn, state_scale=scale))

    @property
    def training_sim(self) -> SimConfig:
        """Training/rollout episodes run steps_per_episode decision intervals."""
        return replace(self.sim, episode_length=self.steps_per_episode * self.sim.decision_interval)

    @property
    def protocol_label(self) -> str:
        if self.algorithm == "ugat_static":
            return f"ugat_static_{self.static_alpha:g}"
        return self.algorithm
