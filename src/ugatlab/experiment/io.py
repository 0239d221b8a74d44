"""The gap report: its types, its writers and reader, and the run-directory layout.

A SeedResult holds one seed's per-metric means in both twins and their gap,
real - sim; build_gap_report aggregates an arm's seeds into a GapReport. A
protocol's SeedResult also keeps the DqnAgent it evaluated (agent), so a
caller can evaluate that policy elsewhere without training it again; no
writer reads it, and a SeedResult read back from metrics.csv has none.

Layout under the output root:

    <protocol>/<scenario>/seed<k>/
        manifest.txt         resolved config echo + format version
        training_curve.csv   episode,return,mean_td_loss,epsilon
        grounding_audit.csv  step,state_hash,policy_action,grounded_action,...
        alpha_trace.csv      iteration,alpha
        trajectory.csv       per evaluation decision step
        vehicles.csv         per completed vehicle
        metrics.csv          per evaluation episode and environment: env,episode,
                             then the MetricsRecord fields in order
    demands/                 training + held-out evaluation schedules, written
                             once per run before any arm's seed directories
    gap_report.csv           one row per (label, metric): label,protocol,scenario,
                             metric,sim_mean,sim_std,real_mean,real_std,
                             delta_mean,delta_std,seeds
    summary.txt              side-by-side table of real(gap) +/- std

protocols.run_arms writes demands/ and then each arm's seed directories in
arm and seed order, its worker processes only computing, one (arm, seed)
task each, so the tree is the same for any --jobs; cli.cmd_protocol then
writes gap_report.csv and summary.txt.

Every command writes gap_report.csv in this one schema: the MetricStats
fields sit between metric and seeds. gap-report reads each metrics.csv back
into MetricsRecords and aggregates them as the protocols do, over the seeds
in ascending order (it reads seed10 before seed2), so on a protocol's run
directory it reproduces that protocol's rows exactly except the label,
which it sets to <protocol>/<scenario>. compare-uncertainty runs
its edl, dropout and ensemble arms under the same ugat/<scenario>/seed<k>/
directory, so only the last head's (ensemble's) per-seed files survive there.
"""

from __future__ import annotations

import csv
import dataclasses
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence, get_type_hints

import numpy as np

from ugatlab.dqn import DqnAgent, EpisodeRecord
from ugatlab.experiment.config import (
    FORMAT_VERSION,
    NESTED_SECTIONS,
    NON_EXPERIMENT_KEYS,
    ExperimentConfig,
)
from ugatlab.sim import N_LANES, STATE_DIM, DemandSchedule, MetricsRecord, save_demand

_RECORD_TYPES = get_type_hints(MetricsRecord)  # field -> type, to read metrics.csv back

# report key -> MetricsRecord field; the field names are the metrics.csv columns
METRIC_FIELDS = {"ATT": "att", "TP": "tp", "Reward": "reward_mean", "Queue": "queue_mean", "Delay": "delay"}
METRIC_KEYS = tuple(METRIC_FIELDS)


def compute_gap(real: dict[str, float], sim: dict[str, float]) -> dict[str, float]:
    """Per-metric transfer gap: value in the real twin minus the sim twin."""
    return {k: real[k] - sim[k] for k in METRIC_KEYS}


@dataclass
class EvalResult:
    """Greedy-policy evaluation over a set of demand schedules; mean is per metric over episodes."""

    episodes: list[MetricsRecord]
    trajectory_rows: list[tuple] = field(default_factory=list)  # trajectory.csv rows, in column order
    vehicle_rows: list[tuple] = field(default_factory=list)
    mean: dict[str, float] = field(init=False)

    def __post_init__(self):
        self.mean = {
            k: float(np.array([float(getattr(r, f)) for r in self.episodes]).mean())
            for k, f in METRIC_FIELDS.items()
        }


@dataclass
class SeedResult:
    """One seed in both twins: per-metric episode means and their gap, real - sim."""

    seed: int
    sim_eval: EvalResult
    real_eval: EvalResult
    training_curve: list[EpisodeRecord] = field(default_factory=list)
    audit_rows: list[tuple] = field(default_factory=list)
    alpha_trace: list[tuple[int, float]] = field(default_factory=list)
    agent: DqnAgent | None = field(default=None, compare=False, repr=False)
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
    """Per-metric mean and sample std over seeds.

    The stats aggregate the seeds in ascending order, so any order of the
    same seeds gives the same bytes; seeds and per_seed keep the given order.
    """
    ordered = sorted(per_seed, key=lambda r: r.seed)
    stats = {}
    for k in METRIC_KEYS:
        sim = np.array([r.sim[k] for r in ordered])
        real = np.array([r.real[k] for r in ordered])
        delta = np.array([r.delta[k] for r in ordered])
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


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):  # includes np.float64; repr round-trips
        return repr(float(value))
    return str(value)


def _write_csv(path: Path, header: Sequence[str], rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def seed_dir(out_dir: str | Path, protocol: str, scenario: str, seed: int) -> Path:
    return Path(out_dir) / protocol / scenario / f"seed{seed}"


def write_manifest(path: Path, cfg: ExperimentConfig, seed: int) -> None:
    lines = [
        "[run]",
        f"format_version = {FORMAT_VERSION}",
        f"protocol = {cfg.protocol_label}",
        f"scenario = {cfg.scenario}",
        f"seed = {seed}",
    ]
    for section, obj in [("experiment", cfg), *((s, getattr(cfg, s)) for s in NESTED_SECTIONS)]:
        lines.append(f"[{section}]")
        for f in dataclasses.fields(obj):
            # nested configs get their own sections; out_dir is where the
            # manifest lives and would break byte-identical relocated runs
            if f.name in NON_EXPERIMENT_KEYS:
                continue
            lines.append(f"{f.name} = {getattr(obj, f.name)}")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")


def write_demands(
    out_dir: str | Path, train_demand: DemandSchedule, eval_demands: Sequence[DemandSchedule]
) -> None:
    demand_dir = Path(out_dir) / "demands"
    demand_dir.mkdir(parents=True, exist_ok=True)
    save_demand(train_demand, demand_dir / "train.csv")
    for i, d in enumerate(eval_demands):
        save_demand(d, demand_dir / f"eval{i}.csv")


def write_seed_run(cfg: ExperimentConfig, result: SeedResult) -> Path:
    run = seed_dir(cfg.out_dir, cfg.protocol_label, cfg.scenario, result.seed)
    run.mkdir(parents=True, exist_ok=True)
    write_manifest(run / "manifest.txt", cfg, result.seed)

    _write_csv(
        run / "training_curve.csv",
        ("episode", "return", "mean_td_loss", "epsilon"),
        ((r.episode, r.return_, r.mean_td_loss, r.epsilon) for r in result.training_curve),
    )
    _write_csv(
        run / "grounding_audit.csv",
        ("step", "state_hash", "policy_action", "grounded_action", "uncertainty", "alpha", "accepted"),
        result.audit_rows,
    )
    _write_csv(run / "alpha_trace.csv", ("iteration", "alpha"), result.alpha_trace)

    traj_header = (
        ["env", "episode", "time"]
        + [f"s{i}" for i in range(STATE_DIM)]
        + ["action", "grounded_action", "reward"]
        + [f"queue{i}" for i in range(N_LANES)]
    )
    traj_rows = [*result.sim_eval.trajectory_rows, *result.real_eval.trajectory_rows]
    _write_csv(run / "trajectory.csv", traj_header, traj_rows)

    _write_csv(
        run / "vehicles.csv",
        ("env", "episode", "vehicle", "movement", "spawn_time", "completion_time"),
        [*result.sim_eval.vehicle_rows, *result.real_eval.vehicle_rows],
    )

    _write_csv(
        run / "metrics.csv",
        ("env", "episode", *(f.name for f in dataclasses.fields(MetricsRecord))),
        [
            (env_tag, ep, *dataclasses.astuple(rec))
            for env_tag, res in (("sim", result.sim_eval), ("real", result.real_eval))
            for ep, rec in enumerate(res.episodes)
        ],
    )
    return run


def write_gap_reports(out_dir: str | Path, rows: Sequence[tuple[str, GapReport]]) -> Path:
    path = Path(out_dir) / "gap_report.csv"
    stats = (f.name for f in dataclasses.fields(MetricStats))
    _write_csv(
        path,
        ("label", "protocol", "scenario", "metric", *stats, "seeds"),
        [
            (label, report.protocol, report.scenario, metric)
            + dataclasses.astuple(report.stats[metric])
            + (len(report.seeds),)
            for label, report in rows
            for metric in METRIC_KEYS
        ],
    )
    return path


def write_summary(out_dir: str | Path, rows: Sequence[tuple[str, GapReport]]) -> Path:
    """Human-readable table: per protocol, real(gap) +/- std per metric."""
    path = Path(out_dir) / "summary.txt"
    lines = []
    for label, report in rows:
        lines.append(f"{label} [{report.scenario}] seeds={list(report.seeds)}")
        cells = []
        for metric in METRIC_KEYS:
            s = report.stats[metric]
            cells.append(f"{metric} {s.real_mean:.2f}({s.delta_mean:.2f})+/-{s.delta_std:.2f}")
        lines.append("  " + "  ".join(cells))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")
    return path


def read_metrics_csv(path: str | Path) -> dict[str, list[MetricsRecord]]:
    """A metrics.csv read back into its MetricsRecords, one list per env in file order.

    A missing column, a row whose length differs from the header's or a value
    that does not parse raises a ValueError that names the file and line."""
    episodes: dict[str, list[MetricsRecord]] = {}
    with Path(path).open() as fh:
        reader = csv.DictReader(fh)
        missing = [f for f in ("env", *_RECORD_TYPES) if f not in (reader.fieldnames or ())]
        if missing:
            raise ValueError(f"{path}: line 1: missing column(s) {', '.join(missing)}")
        for row in reader:
            try:
                if None in row or None in row.values():  # DictReader's marks of a long or short row
                    raise ValueError(f"row length differs from the header's {len(reader.fieldnames)} columns")
                record = MetricsRecord(**{f: ftype(row[f]) for f, ftype in _RECORD_TYPES.items()})
            except ValueError as exc:
                raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
            episodes.setdefault(row["env"], []).append(record)
    return episodes
