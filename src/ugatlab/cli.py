"""Command-line front end: binds configs to protocols and writes reports.

Exit codes: 0 success, 1 validation error (flags, config schema), 2 runtime
failure. Diagnostics go to stderr as single machine-parsable lines of the
form "ugatlab: error: <category>: <message>".
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import os
import sys
import typing
from pathlib import Path
from types import UnionType

import numpy as np

from ugatlab.dqn import DqnConfig
from ugatlab.experiment import (
    EvalResult,
    ExperimentConfig,
    SeedResult,
    compare_uncertainty_methods,
    io,
    run_ablation,
    sweep_static_alpha,
)
from ugatlab.experiment.config import NON_EXPERIMENT_KEYS
from ugatlab.experiment.protocols import build_gap_report, run_arms
from ugatlab.grounding import GroundingConfig
from ugatlab.numnet import gradcheck, random_cases
from ugatlab.sim import N_LANES, SimConfig, generate_demand, save_demand

DEFAULT_ALPHAS = (0.2, 0.4, 0.5, 0.6, 0.8)

_SECTIONS = {
    "experiment": ExperimentConfig,
    "dqn": DqnConfig,
    "grounding": GroundingConfig,
    "sim": SimConfig,
}
# algorithm is owned by the subcommand
_EXPERIMENT_SKIP = {*NON_EXPERIMENT_KEYS, "algorithm"}


class ValidationFailure(Exception):
    pass


def _fail(category: str, message: str, code: int) -> int:
    print(f"ugatlab: error: {category}: {message}", file=sys.stderr)
    return code


def _parse_value(raw: str, ftype):
    """Parse one config value as `ftype`; `X | None` parses as X, a tuple from a comma list."""
    raw = raw.strip()
    if isinstance(ftype, UnionType):
        (ftype,) = (t for t in typing.get_args(ftype) if t is not type(None))
    if typing.get_origin(ftype) is tuple:
        item = typing.get_args(ftype)[0]
        return tuple(item(v) for v in raw.split(",") if v.strip())
    return ftype(raw)


def load_config_file(path: str) -> dict[str, dict]:
    """Parse the line-oriented section/key=value config; unknown keys fail."""
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ValidationFailure(f"config file not readable: {path}")
    overrides: dict[str, dict] = {}
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ValidationFailure(
                f"unknown section [{section}] (known: {', '.join(sorted(_SECTIONS))})"
            )
        field_types = typing.get_type_hints(_SECTIONS[section])
        if section == "experiment":
            field_types = {k: v for k, v in field_types.items() if k not in _EXPERIMENT_SKIP}
        section_values = {}
        for key, raw in parser.items(section):
            if key not in field_types:
                raise ValidationFailure(f"unknown key {key!r} in section [{section}]")
            try:
                section_values[key] = _parse_value(raw, field_types[key])
            except ValueError as exc:
                raise ValidationFailure(f"bad value for {section}.{key}: {exc}") from exc
        overrides[section] = section_values
    return overrides


def resolve_out_dir(args) -> str:
    if getattr(args, "out", None):
        return args.out
    return os.environ.get("UGATLAB_OUT", "runs")


def build_experiment_config(args, algorithm: str) -> ExperimentConfig:
    overrides = load_config_file(args.config) if args.config else {}
    grounding = GroundingConfig(**overrides.get("grounding", {}))
    dqn = DqnConfig(**overrides.get("dqn", {}))
    sim = SimConfig(**overrides.get("sim", {}))
    exp = dict(overrides.get("experiment", {}))
    exp["algorithm"] = algorithm
    if args.scenario:
        exp["scenario"] = args.scenario
    if args.seeds:
        exp["seeds"] = tuple(int(s) for s in args.seeds.split(","))
    if getattr(args, "head", None):
        exp["head"] = args.head
    if exp.get("static_alpha") is not None and algorithm == "ugat":
        exp["algorithm"] = "ugat_static"
    return ExperimentConfig(dqn=dqn, grounding=grounding, sim=sim, out_dir=resolve_out_dir(args), **exp)


def _emit(rows, out_dir: str, quiet: bool) -> None:
    io.write_gap_reports(out_dir, rows)
    summary = io.write_summary(out_dir, rows)
    if not quiet:
        sys.stdout.write(summary.read_text())


# --- subcommand handlers ------------------------------------------------------


def cmd_train_direct(args) -> int:
    cfg = build_experiment_config(args, "direct")
    _emit(run_arms([("direct", cfg)]), cfg.out_dir, args.quiet)
    return 0


def cmd_train_ugat(args) -> int:
    cfg = build_experiment_config(args, "ugat")
    if args.alpha:
        if "," in args.alpha:
            raise ValidationFailure(f"train-ugat --alpha takes one rate, got {args.alpha!r}")
        cfg = dataclasses.replace(cfg, algorithm="ugat_static", static_alpha=float(args.alpha))
    _emit(run_arms([(cfg.protocol_label, cfg)]), cfg.out_dir, args.quiet)
    return 0


def cmd_ablate(args) -> int:
    cfg = build_experiment_config(args, "ugat")
    _emit(run_ablation(cfg, args.jobs), cfg.out_dir, args.quiet)
    return 0


def cmd_sweep_alpha(args) -> int:
    cfg = build_experiment_config(args, "ugat")
    alphas = tuple(float(v) for v in args.alpha.split(",")) if args.alpha else DEFAULT_ALPHAS
    _emit(sweep_static_alpha(cfg, alphas, args.jobs), cfg.out_dir, args.quiet)
    return 0


def cmd_compare_uncertainty(args) -> int:
    cfg = build_experiment_config(args, "ugat")
    _emit(compare_uncertainty_methods(cfg, args.jobs), cfg.out_dir, args.quiet)
    return 0


def cmd_gap_report(args) -> int:
    """Merge per-seed metrics.csv files from completed run dirs."""
    incomplete = []
    rows = []
    for run_dir in args.run_dirs:
        base = Path(run_dir)
        per_seed = []
        for sd in sorted(base.glob("seed*")):
            seed = sd.name.removeprefix("seed")
            metrics = sd / "metrics.csv"
            episodes = io.read_metrics_csv(metrics) if seed.isdigit() and metrics.exists() else {}
            if not {"sim", "real"} <= episodes.keys():
                incomplete.append(str(sd))
                continue
            sim, real = (EvalResult(episodes[env]) for env in ("sim", "real"))
            per_seed.append(SeedResult(int(seed), sim, real))
        if not per_seed:
            incomplete.append(str(base))
            continue
        label = f"{base.parent.name}/{base.name}" if base.parent.name else base.name
        rows.append((label, build_gap_report(base.parent.name, base.name, per_seed)))
    path = io.write_gap_reports(resolve_out_dir(args), rows)
    if not args.quiet:
        print(f"wrote {path}")
    if incomplete:
        for d in incomplete:
            print(f"ugatlab: error: gap-report: incomplete run dir skipped: {d}", file=sys.stderr)
        return 1
    return 0


def cmd_gradcheck(args) -> int:
    """Randomized gradient checks of the MLP kernel under all three losses."""
    worst = 0.0
    cases = skipped = 0
    for model, loss, x in random_cases(np.random.default_rng(args.seed), args.cases):
        res = gradcheck(model, loss, x, tolerance=args.tolerance)
        worst = max(worst, res.max_rel_error)
        cases += 1
        skipped += res.skipped
        if not res.passed:
            return _fail("gradcheck", f"rel error {res.max_rel_error:g} at {res.worst}", 2)
    if not args.quiet:
        print(
            f"gradcheck: {cases} cases, max relative error {worst:.3g} < {args.tolerance:g}, "
            f"{skipped} coordinates skipped at a relu kink"
        )
    return 0


def cmd_demand_gen(args) -> int:
    max_vph = SimConfig().max_demand_vph
    if args.vph > max_vph:
        raise ValidationFailure(f"--vph must be <= {max_vph:g} ({N_LANES} lanes, one spawn a tick): {args.vph}")
    schedule = generate_demand(args.vph, args.duration, args.seed)
    save_demand(schedule, args.out_file)
    if not args.quiet:
        print(f"wrote {len(schedule)} arrivals to {args.out_file}")
    return 0


# --- parser ------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser, head: bool = False, alpha: bool = False, jobs: bool = False):
    p.add_argument("--config", help="structured-text config file")
    p.add_argument("--out", help="output directory (default $UGATLAB_OUT or ./runs)")
    p.add_argument("--seeds", help="comma-separated seed list, e.g. 1,2,3")
    p.add_argument("--scenario", help="environment variant playing reality (Default..V4)")
    p.add_argument("--quiet", action="store_true")
    if jobs:
        p.add_argument("--jobs", type=int, default=1, help="parallel protocol arms")
    if head:
        p.add_argument("--head", help="uncertainty head: edl, dropout, ensemble, logits")
    if alpha:
        p.add_argument("--alpha", help="static grounding rate (comma list for sweep-alpha)")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ugatlab",
        description="Sim-to-real transfer laboratory for RL traffic signal control",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train-direct", help="train in the sim twin, evaluate in both")
    _add_common(p)
    p.set_defaults(handler=cmd_train_direct)

    p = sub.add_parser("train-ugat", help="grounded training with uncertainty gating")
    _add_common(p, head=True, alpha=True)
    p.set_defaults(handler=cmd_train_ugat)

    p = sub.add_parser("ablate", help="ugat / fixed-alpha / vanilla / no-grounding table")
    _add_common(p, head=True, jobs=True)
    p.set_defaults(handler=cmd_ablate)

    p = sub.add_parser("sweep-alpha", help="static grounding rates vs the dynamic rule")
    _add_common(p, head=True, alpha=True, jobs=True)
    p.set_defaults(handler=cmd_sweep_alpha)

    p = sub.add_parser("compare-uncertainty", help="edl vs dropout vs ensemble vs vanilla")
    _add_common(p, jobs=True)
    p.set_defaults(handler=cmd_compare_uncertainty)

    p = sub.add_parser("gap-report", help="merge completed run dirs into a gap table")
    p.add_argument("run_dirs", nargs="+", help="<protocol>/<scenario> directories")
    p.add_argument("--out", help="output directory")
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(handler=cmd_gap_report)

    p = sub.add_parser("gradcheck", help="finite-difference check of the numeric kernel")
    p.add_argument("--cases", type=int, default=25)
    p.add_argument("--tolerance", type=float, default=1e-4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(handler=cmd_gradcheck)

    p = sub.add_parser("demand-gen", help="materialize a seeded arrival schedule")
    p.add_argument("--vph", type=float, default=2600.0)
    p.add_argument("--duration", type=float, default=3600.0)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--out-file", required=True)
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(handler=cmd_demand_gen)

    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ValidationFailure, ValueError, TypeError) as exc:
        return _fail("config", str(exc), 1)
    except OSError as exc:
        return _fail("io", str(exc), 2)
    except Exception as exc:  # noqa: BLE001 - surface anything else as runtime
        return _fail("runtime", f"{type(exc).__name__}: {exc}", 2)


if __name__ == "__main__":
    sys.exit(main())
