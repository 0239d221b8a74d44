"""Run-directory layout and CSV/report writers.

Layout under the output root:

    <protocol>/<scenario>/seed<k>/
        manifest.txt         resolved config echo + format version
        training_curve.csv   episode,return,mean_td_loss,epsilon
        grounding_audit.csv  step,state_hash,policy_action,grounded_action,...
        alpha_trace.csv      iteration,alpha
        trajectory.csv       per evaluation decision step
        vehicles.csv         per completed vehicle
        metrics.csv          per evaluation episode and environment
    demands/                 training + held-out evaluation schedules
    gap_report.csv           one row per (label, metric): label,protocol,scenario,
                             metric,sim_mean,sim_std,real_mean,real_std,
                             delta_mean,delta_std,seeds
    summary.txt              side-by-side table of real(gap) +/- std

Every command writes gap_report.csv in this one schema; gap-report labels
its rows <protocol>/<scenario>. compare-uncertainty runs its edl, dropout and
ensemble arms under the same ugat/<scenario>/seed<k>/ directory, so only the
last head's per-seed files survive there.
"""

from __future__ import annotations

import csv
import dataclasses
from pathlib import Path
from typing import Sequence

from ugatlab.experiment.config import FORMAT_VERSION, ExperimentConfig
from ugatlab.experiment.protocols import METRIC_KEYS, GapReport, SeedResult
from ugatlab.sim import N_LANES, STATE_DIM, DemandSchedule, save_demand


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
    for section, obj in (
        ("experiment", cfg),
        ("dqn", cfg.dqn),
        ("grounding", cfg.grounding),
        ("sim", cfg.sim),
        ("layout", cfg.layout),
    ):
        lines.append(f"[{section}]")
        for f in dataclasses.fields(obj):
            # nested configs get their own sections; out_dir is where the
            # manifest lives and would break byte-identical relocated runs
            if f.name in ("dqn", "grounding", "sim", "layout", "out_dir"):
                continue
            lines.append(f"{f.name} = {getattr(obj, f.name)}")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")


def write_seed_run(
    cfg: ExperimentConfig,
    protocol: str,
    result: SeedResult,
    train_demand: DemandSchedule,
    eval_demands: Sequence[DemandSchedule],
) -> Path:
    root = Path(cfg.out_dir)
    run = seed_dir(root, protocol, cfg.scenario, result.seed)
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
    rows = []
    for res in (result.sim_eval, result.real_eval):
        for env_tag, ep, t, state, action, grounded, reward, queues in res.trajectory_rows:
            rows.append([env_tag, ep, t, *state, action, grounded, reward, *queues])
    _write_csv(run / "trajectory.csv", traj_header, rows)

    _write_csv(
        run / "vehicles.csv",
        ("env", "episode", "vehicle", "movement", "spawn_time", "completion_time"),
        [*result.sim_eval.vehicle_rows, *result.real_eval.vehicle_rows],
    )

    metric_rows = []
    for env_tag, res in (("sim", result.sim_eval), ("real", result.real_eval)):
        for ep, rec in enumerate(res.episodes):
            metric_rows.append(
                (
                    env_tag,
                    ep,
                    rec.att,
                    rec.tp,
                    rec.reward_mean,
                    rec.queue_mean,
                    rec.delay,
                    rec.delay_seconds,
                    rec.spawned,
                )
            )
    _write_csv(
        run / "metrics.csv",
        ("env", "episode", "att", "tp", "reward_mean", "queue_mean", "delay", "delay_seconds", "spawned"),
        metric_rows,
    )

    demand_dir = root / "demands"
    if not (demand_dir / "train.csv").exists():
        demand_dir.mkdir(parents=True, exist_ok=True)
        save_demand(train_demand, demand_dir / "train.csv")
        for i, d in enumerate(eval_demands):
            save_demand(d, demand_dir / f"eval{i}.csv")
    return run


def write_gap_reports(out_dir: str | Path, rows: Sequence[tuple[str, GapReport]]) -> Path:
    path = Path(out_dir) / "gap_report.csv"
    csv_rows = []
    for label, report in rows:
        for metric in METRIC_KEYS:
            s = report.stats[metric]
            csv_rows.append(
                (
                    label,
                    report.protocol,
                    report.scenario,
                    metric,
                    s.sim_mean,
                    s.sim_std,
                    s.real_mean,
                    s.real_std,
                    s.delta_mean,
                    s.delta_std,
                    len(report.seeds),
                )
            )
    _write_csv(
        path,
        (
            "label",
            "protocol",
            "scenario",
            "metric",
            "sim_mean",
            "sim_std",
            "real_mean",
            "real_std",
            "delta_mean",
            "delta_std",
            "seeds",
        ),
        csv_rows,
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


def read_metrics_csv(path: str | Path) -> list[dict]:
    with Path(path).open() as fh:
        return [dict(row) for row in csv.DictReader(fh)]


def seed_mean_metrics(metrics_rows: list[dict], env: str) -> dict[str, float]:
    """Per-metric mean over one run's evaluation episodes for one environment."""
    wanted = [r for r in metrics_rows if r["env"] == env]
    if not wanted:
        raise ValueError(f"no rows for env {env!r}")
    cols = {"ATT": "att", "TP": "tp", "Reward": "reward_mean", "Queue": "queue_mean", "Delay": "delay"}
    return {
        metric: sum(float(r[col]) for r in wanted) / len(wanted) for metric, col in cols.items()
    }
