"""Run-directory layout and CSV/report writers.

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

protocols.run_arms is the one writer of a protocol run. Its worker processes
only compute, one (arm, seed) task each; it writes demands/ first, then each
arm's seed directories in arm and seed order, so the tree is the same for any
--jobs.

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
from pathlib import Path
from typing import Sequence, get_type_hints

from ugatlab.experiment.config import (
    FORMAT_VERSION,
    NESTED_SECTIONS,
    NON_EXPERIMENT_KEYS,
    ExperimentConfig,
)
from ugatlab.experiment.protocols import METRIC_KEYS, GapReport, MetricStats, SeedResult
from ugatlab.sim import N_LANES, STATE_DIM, DemandSchedule, MetricsRecord, save_demand

_RECORD_TYPES = get_type_hints(MetricsRecord)  # field -> type, to read metrics.csv back


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


def write_manifest(path: Path, cfg: ExperimentConfig, protocol: str, seed: int) -> None:
    lines = [
        "[run]",
        f"format_version = {FORMAT_VERSION}",
        f"protocol = {protocol}",
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


def write_seed_run(cfg: ExperimentConfig, protocol: str, result: SeedResult) -> Path:
    run = seed_dir(cfg.out_dir, protocol, cfg.scenario, result.seed)
    run.mkdir(parents=True, exist_ok=True)
    write_manifest(run / "manifest.txt", cfg, protocol, result.seed)

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
    """A metrics.csv read back into its MetricsRecords, one list per env in file order."""
    episodes: dict[str, list[MetricsRecord]] = {}
    with Path(path).open() as fh:
        for row in csv.DictReader(fh):
            record = MetricsRecord(**{f: ftype(row[f]) for f, ftype in _RECORD_TYPES.items()})
            episodes.setdefault(row["env"], []).append(record)
    return episodes
