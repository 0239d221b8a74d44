"""The three benchmark workloads: per-seed set-up and one fixed-size timed pass.

A run's seed expands into a few sub-seeds; each sub-seed is a full input set
(demand schedules and protocol seed), and a pass runs the protocol slice once
per sub-seed. Averaging over sub-seeds inside every pass keeps the cost of a
pass from hinging on one seed's traffic or one policy's congestion. A pass is
the same work every time it runs, so it yields the same bytes; the benchmark
repeats passes until its time is up and digests each one.

Sizes are slices of the acceptance suite's protocols: ``direct_policies``
maps to ``direct_train`` plus ``eval_transfer``, ``grounded_reports`` to
``compare_heads``.
"""

from __future__ import annotations

import hashlib
import shutil
from dataclasses import replace
from pathlib import Path

HEADS = ("edl", "dropout", "ensemble", "logits")


def sub_seeds(seed: int, count: int) -> list[int]:
    """The disjoint block of input seeds that one run seed stands for."""
    return [seed * count + j for j in range(count)]


def _hash_records(h, records) -> None:
    for r in records:
        h.update(repr(r).encode())
        h.update(b"\n")


def _hash_policy(h, agent, clock) -> None:
    """Violation counts per episode, final state_signature(), Q-network bytes."""
    h.update(repr(clock.violations).encode())
    if clock.last_env is None:
        raise RuntimeError("no episode finished")
    h.update(clock.last_env.state_signature().encode())
    for a in (*agent.q_model.weights, *agent.q_model.biases):
        h.update(a.tobytes())


def tree_digest(root: Path) -> str:
    """SHA-256 over every file's relative path and bytes, in sorted order."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
        h.update(b"\0")
    return h.hexdigest()


def tree_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


class Workload:
    """Set-up per sub-seed, then fixed-size passes; subclasses set name and subseeds."""

    name = ""
    subseeds = 1

    def __init__(self, seed: int, workdir: Path, clock):
        self.seeds = sub_seeds(seed, self.subseeds)
        self.workdir = workdir
        self.clock = clock
        self.inputs = []

    def setup(self, j: int) -> None:
        raise NotImplementedError

    def unit(self) -> str:
        """Run one pass over every sub-seed; return the hex digest of its outputs."""
        raise NotImplementedError

    def io_bytes(self) -> int:
        """Bytes the last pass wrote to disk."""
        return 0

    def close(self) -> None:
        pass


class DirectTrain(Workload):
    """Direct-transfer training phase in the Default twin: one learn() per decision."""

    name = "direct_train"
    subseeds = 6
    episodes = 4  # 120-decision episodes per sub-seed and pass

    def setup(self, j: int) -> None:
        from ugatlab.dqn import DqnAgent
        from ugatlab.experiment import ExperimentConfig
        from ugatlab.experiment.protocols import seed_streams
        from ugatlab.sim import generate_demand

        seed = self.seeds[j]
        cfg = ExperimentConfig(
            scenario="V1",
            algorithm="direct",
            seeds=(seed,),
            demand_seed=seed,
            direct_episodes=self.episodes,
        )
        demand = generate_demand(cfg.demand_vph, cfg.sim.episode_length, cfg.demand_seed)
        # model initialisation is timed as set-up; each pass builds its own agent
        DqnAgent(cfg.dqn, seed_streams(seed)["agent_init"])
        self.inputs.append((cfg, seed, demand))

    def unit(self) -> str:
        from ugatlab.experiment import protocols

        h = hashlib.sha256()
        for cfg, seed, demand in self.inputs:
            self.clock.restart()
            agent, records = protocols.train_direct_policy(cfg, seed, demand)
            _hash_records(h, records)
            _hash_policy(h, agent, self.clock)
        return h.hexdigest()


class EvalTransfer(Workload):
    """Greedy evaluation of set-up-trained policies on held-out 3600 s schedules."""

    name = "eval_transfer"
    subseeds = 3
    pretrain_episodes = 40
    eval_episodes = 1
    scenarios = ("Default", "V4")

    def setup(self, j: int) -> None:
        from ugatlab.experiment import ExperimentConfig, protocols
        from ugatlab.sim import generate_demand

        seed = self.seeds[j]
        cfg = ExperimentConfig(
            scenario="V4",
            algorithm="direct",
            seeds=(seed,),
            demand_seed=seed,
            direct_episodes=self.pretrain_episodes,
            eval_episodes=self.eval_episodes,
        )
        duration = cfg.sim.episode_length
        train = generate_demand(cfg.demand_vph, duration, cfg.demand_seed)
        demands = [
            generate_demand(cfg.demand_vph, duration, cfg.demand_seed + 1000 + i)
            for i in range(cfg.eval_episodes)
        ]
        agent, _ = protocols.train_direct_policy(cfg, seed, train)
        self.inputs.append((cfg, agent, demands))

    def unit(self) -> str:
        from ugatlab.experiment import protocols

        h = hashlib.sha256()
        for cfg, agent, demands in self.inputs:
            self.clock.restart()
            for scenario in self.scenarios:
                result = protocols.evaluate(
                    agent, scenario, demands, cfg.layout, cfg.sim, env_tag=scenario
                )
                _hash_records(h, result.episodes)
            _hash_policy(h, agent, self.clock)
        return h.hexdigest()


class CompareHeads(Workload):
    """``ugatlab compare-uncertainty`` in-process: the only grounding and io workload."""

    name = "compare_heads"
    subseeds = 2
    # written to each sub-seed's config file; evaluation episodes last as
    # long as training episodes (120 decisions)
    sizes = {
        "experiment": {
            "pretrain_episodes": 2,
            "iterations": 2,
            "epochs_per_iteration": 1,
            "rollout_episodes": 1,
            "eval_episodes": 1,
        },
        "sim": {"episode_length": 1200.0},
    }
    scenario = "V1"
    _bytes = 0

    def _config(self, seed: int) -> Path:
        return self.workdir / f"seed{seed}.ini"

    def _argv(self, seed: int, out: Path) -> list[str]:
        return [
            "compare-uncertainty",
            "--config", str(self._config(seed)),
            "--out", str(out),
            "--seeds", str(seed),
            "--scenario", self.scenario,
            "--jobs", "1",
            "--quiet",
        ]

    def setup(self, j: int) -> None:
        from ugatlab import cli
        from ugatlab.dqn import DqnAgent
        from ugatlab.experiment.protocols import Grounder, seed_streams
        from ugatlab.sim import generate_demand

        seed = self.seeds[j]
        self.workdir.mkdir(parents=True, exist_ok=True)
        lines = []
        for section, values in self.sizes.items():
            lines.append(f"[{section}]")
            if section == "experiment":
                lines.append(f"demand_seed = {seed}")
            lines += [f"{k} = {v}" for k, v in values.items()]
        self._config(seed).write_text("\n".join(lines) + "\n")
        args = cli.make_parser().parse_args(self._argv(seed, self.workdir / "unused"))
        cfg = cli.build_experiment_config(args, "ugat")
        duration = cfg.sim.episode_length
        generate_demand(cfg.demand_vph, duration, cfg.demand_seed)
        for i in range(cfg.eval_episodes):
            generate_demand(cfg.demand_vph, duration, cfg.demand_seed + 1000 + i)
        streams = seed_streams(seed)
        DqnAgent(cfg.dqn, streams["agent_init"])
        for head in HEADS:
            Grounder(replace(cfg, head=head), streams["grounder_init"], streams["head"])

    def unit(self) -> str:
        from ugatlab import cli

        h = hashlib.sha256()
        self._bytes = 0
        for seed in self.seeds:
            out = self.workdir / f"run-seed{seed}"
            shutil.rmtree(out, ignore_errors=True)
            try:
                code = cli.main(self._argv(seed, out))
                if code != 0:
                    raise RuntimeError(f"compare-uncertainty exited {code}")
                self._bytes += tree_bytes(out)
                h.update(tree_digest(out).encode())
            finally:
                shutil.rmtree(out, ignore_errors=True)
        return h.hexdigest()

    def io_bytes(self) -> int:
        return self._bytes

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (DirectTrain, CompareHeads, EvalTransfer)}
