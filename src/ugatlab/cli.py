"""Command-line front end: binds configs to protocols and writes reports.

The five protocol subcommands are rows of one table, _PROTOCOLS, and share
one handler, cmd_protocol: it builds the config, runs the row's battery and
writes the gap report and summary. gap-report, gradcheck and demand-gen
have handlers of their own.

Exit codes: 0 success, 1 validation error (flags, config schema), 2 runtime
failure. Diagnostics go to stderr as single machine-parsable lines of the
form "ugatlab: error: <category>: <message>".
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import math
import os
import sys
import typing
from pathlib import Path
from types import UnionType

import numpy as np

from ugatlab.dqn import DqnConfig
from ugatlab.experiment import (
    ExperimentConfig,
    compare_uncertainty_methods,
    io,
    run_ablation,
    sweep_static_alpha,
)
from ugatlab.experiment.config import NON_EXPERIMENT_KEYS
from ugatlab.experiment.protocols import run_arms
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
        items = raw.split(",")
        if not all(map(str.strip, items)):
            raise ValueError(f"empty item in {raw!r}")
        return tuple(map(item, items))
    return ftype(raw)


def load_config_file(path: str) -> dict[str, dict]:
    """Parse the line-oriented section/key=value config; unknown sections and keys fail.

    A [DEFAULT] key fails as an unknown section, and a file configparser
    cannot parse or interpolate fails with its error folded onto one line.
    """
    parser = configparser.ConfigParser()
    try:
        read = parser.read(path)
        # items() would hand a [DEFAULT] key to every section: it fails below as a section
        sections = ([parser.default_section] if parser.defaults() else []) + parser.sections()
        items = {section: parser.items(section) for section in sections}  # interpolates each value
    except configparser.Error as exc:
        raise ValidationFailure(f"cannot parse config file: {' '.join(str(exc).split())}") from exc
    if not read:
        raise ValidationFailure(f"config file not readable: {path}")
    overrides: dict[str, dict] = {}
    for section, pairs in items.items():
        if section not in _SECTIONS:
            raise ValidationFailure(
                f"unknown section [{section}] (known: {', '.join(sorted(_SECTIONS))})"
            )
        field_types = typing.get_type_hints(_SECTIONS[section])
        if section == "experiment":
            field_types = {k: v for k, v in field_types.items() if k not in _EXPERIMENT_SKIP}
        section_values = {}
        for key, raw in pairs:
            if key not in field_types:
                raise ValidationFailure(f"unknown key {key!r} in section [{section}]")
            try:
                section_values[key] = _parse_value(raw, field_types[key])
            except ValueError as exc:
                raise ValidationFailure(f"bad value for {section}.{key}: {exc}") from exc
        overrides[section] = section_values
    return overrides


def resolve_out_dir(args) -> str:
    out = getattr(args, "out", None)
    if out == "":
        raise ValidationFailure("--out must not be empty")
    if out is None:
        out = os.environ.get("UGATLAB_OUT", "runs")
        if out == "":
            raise ValidationFailure("$UGATLAB_OUT must not be empty")
    return out


def build_experiment_config(args, algorithm: str) -> ExperimentConfig:
    overrides = load_config_file(args.config) if args.config is not None else {}
    nested = {name: _SECTIONS[name](**overrides.get(name, {})) for name in ("grounding", "dqn", "sim")}
    exp = dict(overrides.get("experiment", {}))
    exp["algorithm"] = algorithm
    if args.scenario is not None:
        exp["scenario"] = args.scenario
    if args.seeds is not None:
        try:
            exp["seeds"] = _parse_value(args.seeds, tuple[int, ...])
        except ValueError as exc:
            raise ValidationFailure(f"bad value for --seeds: {exc}") from exc
    if getattr(args, "head", None) is not None:
        exp["head"] = args.head
    return ExperimentConfig(**nested, out_dir=resolve_out_dir(args), **exp)


# --- subcommand handlers ------------------------------------------------------


def _train_one(cfg: ExperimentConfig, args):
    """One arm: train-direct, or train-ugat at the dynamic rate or at one --alpha."""
    alpha = getattr(args, "alpha", None)
    if alpha is not None:
        if "," in alpha:
            raise ValidationFailure(f"train-ugat --alpha takes one rate, got {alpha!r}")
        cfg = dataclasses.replace(cfg, algorithm="ugat_static", static_alpha=float(alpha))
    return run_arms([(cfg.protocol_label, cfg)])


def _ablate(cfg: ExperimentConfig, args):
    return run_ablation(cfg, args.jobs)


def _sweep(cfg: ExperimentConfig, args):
    alphas = tuple(float(v) for v in args.alpha.split(",")) if args.alpha is not None else DEFAULT_ALPHAS
    return sweep_static_alpha(cfg, alphas, args.jobs)


def _compare(cfg: ExperimentConfig, args):
    return compare_uncertainty_methods(cfg, args.jobs)


# The protocol subcommands: name, help, algorithm, _add_common flags and the
# battery(cfg, args) that returns the report rows. A battery looks its runner
# up in this module when it runs, so a runner patched here is the one called.
_PROTOCOLS = (
    ("train-direct", "train in the sim twin, evaluate in both", "direct", (), _train_one),
    ("train-ugat", "grounded training with uncertainty gating", "ugat", ("head", "alpha"), _train_one),
    ("ablate", "ugat / fixed-alpha / vanilla / no-grounding table", "ugat", ("head", "jobs"), _ablate),
    ("sweep-alpha", "static grounding rates vs the dynamic rule", "ugat", ("head", "alpha", "jobs"), _sweep),
    ("compare-uncertainty", "edl vs dropout vs ensemble vs vanilla", "ugat", ("jobs",), _compare),
)


def cmd_protocol(args) -> int:
    """Build the config, run the subcommand's battery and write its gap report and summary."""
    cfg = build_experiment_config(args, args.algorithm)
    rows = args.battery(cfg, args)
    io.write_gap_reports(cfg.out_dir, rows)
    summary = io.write_summary(cfg.out_dir, rows)
    if not args.quiet:
        sys.stdout.write(summary.read_text())
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
            try:
                episodes = io.read_metrics_csv(metrics) if seed.isdigit() and metrics.exists() else {}
            except ValueError as exc:
                incomplete.append(f"{sd} ({exc})")
                continue
            if not {"sim", "real"} <= episodes.keys():
                incomplete.append(str(sd))
                continue
            sim, real = (io.EvalResult(episodes[env]) for env in ("sim", "real"))
            per_seed.append(io.SeedResult(int(seed), sim, real))
        if not per_seed:
            incomplete.append(str(base))
            continue
        # named from its absolute path, so "." and ".." name the directory they stand for
        named = Path(os.path.abspath(base))
        label = f"{named.parent.name}/{named.name}" if named.parent.name else named.name
        rows.append((label, io.build_gap_report(named.parent.name, named.name, per_seed)))
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
    if args.out_file == "":
        raise ValidationFailure("--out-file must not be empty")
    max_vph = SimConfig().max_demand_vph
    if args.vph > max_vph:
        raise ValidationFailure(f"--vph must be <= {max_vph:g} ({N_LANES} lanes, one spawn a tick): {args.vph}")
    schedule = generate_demand(args.vph, args.duration, args.seed)
    save_demand(schedule, args.out_file)
    if not args.quiet:
        print(f"wrote {len(schedule)} arrivals to {args.out_file}")
    return 0


# --- parser ------------------------------------------------------------------


def _int_at_least(low: int):
    """An argparse type: an integer >= low."""

    def parse(raw: str) -> int:
        try:
            value = int(raw)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {raw!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}: {value}")
        return value

    return parse


def _positive_float(raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {raw!r}") from None
    if not 0.0 < value < math.inf:  # NaN fails too
        raise argparse.ArgumentTypeError(f"must be finite and > 0: {raw}")
    return value


def _add_common(p: argparse.ArgumentParser, flags: tuple[str, ...]):
    p.add_argument("--config", help="structured-text config file")
    p.add_argument("--out", help="output directory (default $UGATLAB_OUT or ./runs)")
    p.add_argument("--seeds", help="comma-separated seed list, e.g. 1,2,3")
    p.add_argument("--scenario", help="environment variant playing reality (Default..V4)")
    p.add_argument("--quiet", action="store_true")
    if "jobs" in flags:
        p.add_argument("--jobs", type=_int_at_least(1), default=1, help="parallel protocol arms (>= 1)")
    if "head" in flags:
        p.add_argument("--head", help="uncertainty head: edl, dropout, ensemble, logits")
    if "alpha" in flags:
        p.add_argument("--alpha", help="static grounding rate (comma list for sweep-alpha)")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ugatlab",
        description="Sim-to-real transfer laboratory for RL traffic signal control",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text, algorithm, flags, battery in _PROTOCOLS:
        p = sub.add_parser(name, help=help_text)
        _add_common(p, flags)
        p.set_defaults(handler=cmd_protocol, algorithm=algorithm, battery=battery)

    p = sub.add_parser("gap-report", help="merge completed run dirs into a gap table")
    p.add_argument("run_dirs", nargs="+", help="<protocol>/<scenario> directories")
    p.add_argument("--out", help="output directory")
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(handler=cmd_gap_report)

    p = sub.add_parser("gradcheck", help="finite-difference check of the numeric kernel")
    p.add_argument("--cases", type=_int_at_least(1), default=25)
    p.add_argument("--tolerance", type=_positive_float, default=1e-4)
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(handler=cmd_gradcheck)

    p = sub.add_parser("demand-gen", help="materialize a seeded arrival schedule")
    p.add_argument("--vph", type=float, default=2600.0)
    p.add_argument("--duration", type=float, default=3600.0)
    p.add_argument("--seed", type=_int_at_least(0), default=7)
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
