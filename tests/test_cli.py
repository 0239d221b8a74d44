import argparse
import configparser
import csv
import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import ugatlab
from ugatlab.cli import (
    build_experiment_config,
    load_config_file,
    main,
    make_parser,
)
from ugatlab.experiment import protocols
from ugatlab.sim import N_LANES, N_PHASES, load_demand

TINY = """
[experiment]
scenario = V1
seeds = 1
pretrain_episodes = 1
iterations = 1
epochs_per_iteration = 1
steps_per_episode = 3
rollout_episodes = 1
eval_episodes = 2
direct_episodes = 2
demand_vph = 600
demand_seed = 3

[dqn]
batch_size = 4
replay_capacity = 64

[grounding]
train_epochs = 1
batch_size = 8

[sim]
episode_length = 60.0
"""


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY)
    return str(path)


def tiny_with(path, settings):
    """Write TINY with {(section, key): value} settings replacing or adding keys."""
    parser = configparser.ConfigParser()
    parser.read_string(TINY)
    for (section, key), value in settings.items():
        parser[section][key] = value
    with path.open("w") as fh:
        parser.write(fh)
    return str(path)


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "ugatlab" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["train-direct", "train-ugat"])
def test_single_arm_commands_reject_jobs(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--jobs", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err


@pytest.mark.parametrize("jobs", ["0", "-1"])
@pytest.mark.parametrize("command", ["ablate", "sweep-alpha", "compare-uncertainty"])
def test_battery_commands_reject_jobs_below_one(command, jobs, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--jobs", jobs, "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert f"argument --jobs: must be >= 1: {jobs}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


COMMON_OPTIONS = {"-h", "--help", "--config", "--out", "--seeds", "--scenario", "--quiet"}


@pytest.mark.parametrize(
    "command, options",
    [
        ("train-direct", set()),
        ("train-ugat", {"--head", "--alpha"}),
        ("ablate", {"--head", "--jobs"}),
        ("sweep-alpha", {"--head", "--alpha", "--jobs"}),
        ("compare-uncertainty", {"--jobs"}),
    ],
)
def test_each_protocol_subcommand_takes_its_own_options(command, options):
    (subparsers,) = (a for a in make_parser()._actions if isinstance(a, argparse._SubParsersAction))
    taken = {s for action in subparsers.choices[command]._actions for s in action.option_strings}
    assert taken == COMMON_OPTIONS | options


def exit_code(argv):
    """main(argv)'s exit code, also when argparse exits."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (["train-direct", "--config", "{bad}", "--out", "{out}"], 1, "config: demand_seed must be >= 0: -1"),
        (["demand-gen", "--seed", "-1", "--out-file", "{out}"], 2, "argument --seed: must be >= 0: -1"),
        (["gradcheck", "--seed", "-1"], 2, "argument --seed: must be >= 0: -1"),
    ],
)
def test_a_negative_seed_fails_naming_its_input(argv, code, message, tmp_path, capsys):
    bad = tiny_with(tmp_path / "bad.cfg", {("experiment", "demand_seed"): "-1"})
    out = tmp_path / "out"
    assert exit_code([a.format(bad=bad, out=out) for a in argv]) == code
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_a_tick_that_crosses_a_whole_lane_fails_before_anything_is_written(tmp_path, capsys):
    settings = {
        ("sim", "tick"): "25",
        ("sim", "decision_interval"): "25",
        ("sim", "yellow_time"): "0",
        ("sim", "episode_length"): "250",
        ("experiment", "demand_vph"): "1000",
        ("experiment", "steps_per_episode"): "2",
    }
    cfg = tiny_with(tmp_path / "bad.cfg", settings)
    out = tmp_path / "out"
    assert main(["train-direct", "--config", cfg, "--out", str(out), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err == "ugatlab: error: config: a vehicle must not traverse a whole lane in one tick\n"
    assert not out.exists()


def test_unknown_key_is_named_in_diagnostic(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[experiment]\nalhpa = 0.5\n")
    code = main(["train-ugat", "--config", str(bad), "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert "alhpa" in err
    assert err.startswith("ugatlab: error:")


def typed(value):
    items = value if isinstance(value, tuple) else (value,)
    return value, [type(v) for v in items]


def test_config_values_parse_as_their_field_types(tmp_path):
    path = tmp_path / "types.cfg"
    path.write_text(
        "[experiment]\nscenario = V2\nstatic_alpha = 0.5\nseeds = 4, 5\n"
        "rollout_epsilon = 1\niterations = 3\n"
        "[dqn]\nstate_scale = 0.5,1\n"
        "[grounding]\nforward_hidden = 8,8\n"
        "[sim]\ntick = 2\n"
    )
    parsed = load_config_file(str(path))
    expected = {
        "experiment": {
            "scenario": "V2",  # str
            "static_alpha": 0.5,  # float | None
            "seeds": (4, 5),  # tuple[int, ...]
            "rollout_epsilon": 1.0,  # float
            "iterations": 3,  # int
        },
        "dqn": {"state_scale": (0.5, 1.0)},  # tuple[float, ...] | None
        "grounding": {"forward_hidden": (8, 8)},
        "sim": {"tick": 2.0},
    }
    assert parsed == expected
    for section, values in expected.items():
        for key, value in values.items():
            assert typed(parsed[section][key]) == typed(value), (section, key)


@pytest.mark.parametrize("value", ["", "64,,64"])
def test_an_empty_list_item_fails_as_a_bad_value(tmp_path, capsys, value):
    cfg = tiny_with(tmp_path / "bad.cfg", {("dqn", "hidden_sizes"): value})
    code = main(["train-direct", "--config", cfg, "--out", str(tmp_path / "out"), "--quiet"])
    assert code == 1
    assert capsys.readouterr().err.startswith("ugatlab: error: config: bad value for dqn.hidden_sizes:")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["train-direct", "--seeds", ""],
        ["train-direct", "--scenario", ""],
        ["train-direct", "--config", ""],
        ["train-direct", "--out", ""],
        ["train-ugat", "--alpha", ""],
        ["train-ugat", "--head", ""],
        ["sweep-alpha", "--alpha", ""],
        ["gap-report", "missing", "--out", ""],
    ],
)
def test_an_empty_flag_value_fails_as_a_config_error(argv, tiny_config, tmp_path, monkeypatch, capsys):
    # an empty value is a value, not an absent flag: no default stands in for it
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("UGATLAB_OUT", str(tmp_path / "env_out"))
    before = sorted(tmp_path.iterdir())
    config = [] if "--config" in argv or argv[0] == "gap-report" else ["--config", tiny_config]
    out = [] if "--out" in argv else ["--out", str(tmp_path / "out")]
    assert main([*argv, *config, *out, "--quiet"]) == 1
    assert capsys.readouterr().err.startswith("ugatlab: error: config:")
    assert sorted(tmp_path.iterdir()) == before


def test_missing_config_file_fails_validation(tmp_path, capsys):
    code = main(["train-direct", "--config", str(tmp_path / "nope.cfg")])
    assert code == 1
    assert "not readable" in capsys.readouterr().err


@pytest.mark.parametrize("rest", ["", TINY], ids=["alone", "before the sections"])
def test_a_default_section_key_fails_as_an_unknown_section(rest, tmp_path, capsys):
    # configparser would hand a [DEFAULT] key to every section, or to none if there is none
    path = tmp_path / "default.cfg"
    path.write_text("[DEFAULT]\nepisode_length = 60\n" + rest)
    assert main(["train-direct", "--config", str(path), "--out", str(tmp_path / "out"), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err == "ugatlab: error: config: unknown section [DEFAULT] (known: dqn, experiment, grounding, sim)\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "text",
    [
        "[sim]\ntick = 1\ntick = 2\n",
        "episode_length = 60\n",
        "[sim]\nepisode_length\n",
        "[sim]\nepisode_length = 60%\n",
    ],
    ids=["duplicate key", "no section header", "key without value", "bare interpolation sign"],
)
def test_an_unparsable_config_file_fails_on_one_config_line(text, tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    assert main(["train-direct", "--config", str(path), "--out", str(tmp_path / "out"), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("ugatlab: error: config: cannot parse config file: ")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert not (tmp_path / "out").exists()


def test_demand_gen_round_trips(tmp_path):
    out = tmp_path / "demand.csv"
    assert main(["demand-gen", "--vph", "1200", "--duration", "120", "--seed", "5",
                 "--out-file", str(out), "--quiet"]) == 0
    schedule = load_demand(out)
    assert len(schedule) > 10


@pytest.mark.parametrize(
    "flag, value", [("--vph", "nan"), ("--vph", "inf"), ("--duration", "nan"), ("--vph", "1e8")]
)
def test_demand_gen_rejects_a_non_finite_rate_or_duration(tmp_path, capsys, flag, value):
    out = tmp_path / "demand.csv"
    settings = {"--vph": "1200", "--duration": "120", flag: value}
    argv = [x for item in settings.items() for x in item]
    assert main(["demand-gen", *argv, "--out-file", str(out), "--quiet"]) == 1
    assert capsys.readouterr().err.startswith("ugatlab: error: config:")
    assert not out.exists()


def test_demand_gen_rejects_an_empty_out_file(tmp_path, monkeypatch, capsys):
    # demand-gen takes no --config or --out, so the empty-flag test above cannot run it
    monkeypatch.chdir(tmp_path)
    assert main(["demand-gen", "--vph", "1200", "--duration", "120", "--out-file", "", "--quiet"]) == 1
    assert capsys.readouterr().err == "ugatlab: error: config: --out-file must not be empty\n"
    assert list(tmp_path.iterdir()) == []


def test_gradcheck_passes(capsys):
    assert main(["gradcheck", "--cases", "3"]) == 0
    assert "max relative error" in capsys.readouterr().out
    # the defaults draw cases with dead hidden relus, whose kink coordinates are skipped
    # and both counts move if random_cases' draws move; the error may differ between BLAS builds
    assert main(["gradcheck"]) == 0
    assert re.fullmatch(
        r"gradcheck: 75 cases, max relative error \S+ < 0\.0001, 4 coordinates skipped at a relu kink\n",
        capsys.readouterr().out,
    )


@pytest.mark.parametrize("cases", ["0", "-3"])
def test_gradcheck_rejects_fewer_than_one_case(cases, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gradcheck", "--cases", cases])
    assert exc.value.code == 2
    assert f"argument --cases: must be >= 1: {cases}" in capsys.readouterr().err


@pytest.mark.parametrize("tolerance", ["nan", "0", "-1", "inf"])
def test_gradcheck_rejects_a_tolerance_that_is_not_finite_and_positive(tolerance, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gradcheck", "--tolerance", tolerance])
    assert exc.value.code == 2
    assert f"argument --tolerance: must be finite and > 0: {tolerance}" in capsys.readouterr().err


# a fresh interpreter, so modules that other tests imported do not count
IMPORT_PROBE = """
import sys
from ugatlab.cli import main
assert main(sys.argv[1:]) == 0
print("scipy.special" in sys.modules, "multiprocessing" in sys.modules)
"""


@pytest.mark.parametrize(
    "command, loaded",
    [
        (["train-direct"], [False, False]),
        (["train-ugat", "--head", "edl"], [True, False]),
        (["ablate", "--jobs", "1"], [True, False]),
        (["ablate", "--jobs", "2"], [False, True]),  # the workers compute, the parent only writes
    ],
)
def test_scipy_special_loads_only_when_the_evidential_loss_runs(command, loaded, tiny_config, tmp_path):
    src = str(Path(ugatlab.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = [*command, "--config", tiny_config, "--out", str(tmp_path / "out"), "--quiet"]
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, *argv], capture_output=True, text=True, env=env, check=True
    )
    assert proc.stdout.split() == [str(x) for x in loaded]


def test_train_ugat_produces_run_layout(tiny_config, tmp_path):
    out = tmp_path / "out"
    code = main(["train-ugat", "--config", tiny_config, "--out", str(out), "--quiet"])
    assert code == 0
    run = out / "ugat" / "V1" / "seed1"
    for name in (
        "manifest.txt",
        "training_curve.csv",
        "grounding_audit.csv",
        "alpha_trace.csv",
        "trajectory.csv",
        "vehicles.csv",
        "metrics.csv",
    ):
        assert (run / name).exists(), name
    assert (out / "demands" / "train.csv").exists()
    assert (out / "demands" / "eval0.csv").exists()
    assert (out / "gap_report.csv").exists()
    assert (out / "summary.txt").exists()
    manifest = (run / "manifest.txt").read_text()
    assert "format_version = 1" in manifest
    assert "scenario = V1" in manifest


def test_seed_override_via_flag(tiny_config, tmp_path):
    out = tmp_path / "out"
    code = main(
        ["train-direct", "--config", tiny_config, "--out", str(out), "--seeds", "7,8", "--quiet"]
    )
    assert code == 0
    assert (out / "direct" / "V1" / "seed7").is_dir()
    assert (out / "direct" / "V1" / "seed8").is_dir()


@pytest.mark.parametrize(
    "seeds, reason",
    [("1,,2", "empty item in '1,,2'"), ("1,x", "invalid literal for int() with base 10: 'x'")],
)
def test_a_malformed_seeds_flag_names_the_flag(seeds, reason, tiny_config, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["train-direct", "--config", tiny_config, "--out", str(out), "--seeds", seeds, "--quiet"])
    assert code == 1
    assert capsys.readouterr().err == f"ugatlab: error: config: bad value for --seeds: {reason}\n"
    assert not out.exists()


@pytest.mark.parametrize("seeds", ["-1", "1,1", "2,-1"])
def test_negative_or_repeated_seeds_fail_before_anything_is_written(seeds, tiny_config, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["train-direct", "--config", tiny_config, "--out", str(out), "--seeds", seeds, "--quiet"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("ugatlab: error: config:")
    assert "seeds" in err
    assert not out.exists()


def test_env_var_supplies_default_out_dir(tiny_config, tmp_path, monkeypatch):
    monkeypatch.setenv("UGATLAB_OUT", str(tmp_path / "envout"))
    assert main(["train-direct", "--config", tiny_config, "--quiet"]) == 0
    assert (tmp_path / "envout" / "direct" / "V1" / "seed1").is_dir()


def test_an_empty_env_var_out_dir_fails_as_a_config_error(tmp_path, monkeypatch, capsys):
    # like --out "": no output directory is named, so nothing lands in the current one
    monkeypatch.setenv("UGATLAB_OUT", "")
    monkeypatch.chdir(tmp_path)
    assert main(["gap-report", "missing_dir", "--quiet"]) == 1
    assert capsys.readouterr().err == "ugatlab: error: config: $UGATLAB_OUT must not be empty\n"
    assert list(tmp_path.iterdir()) == []


def read_gap_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def test_gap_report_matches_raw_csv_recomputation(tiny_config, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["train-direct", "--config", tiny_config, "--out", str(out), "--quiet"]) == 0
    report_out = tmp_path / "merged"
    code = main(
        ["gap-report", str(out / "direct" / "V1"), "--out", str(report_out), "--quiet"]
    )
    assert code == 0
    rows = {r["metric"]: r for r in read_gap_csv(report_out / "gap_report.csv")}

    # independent scalar recomputation from the raw per-seed metrics.csv
    with open(out / "direct" / "V1" / "seed1" / "metrics.csv") as fh:
        raw = list(csv.DictReader(fh))
    for metric, col in (("ATT", "att"), ("TP", "tp"), ("Queue", "queue_mean")):
        sim = [float(r[col]) for r in raw if r["env"] == "sim"]
        real = [float(r[col]) for r in raw if r["env"] == "real"]
        sim_mean = sum(sim) / len(sim)
        real_mean = sum(real) / len(real)
        assert float(rows[metric]["sim_mean"]) == pytest.approx(sim_mean, abs=1e-12)
        assert float(rows[metric]["real_mean"]) == pytest.approx(real_mean, abs=1e-12)
        assert float(rows[metric]["delta_mean"]) == pytest.approx(real_mean - sim_mean, abs=1e-12)
        assert float(rows[metric]["seeds"]) == 1
        assert float(rows[metric]["delta_std"]) == 0.0  # single run: std 0


def test_gap_report_lists_incomplete_dirs(tmp_path, capsys):
    empty = tmp_path / "direct" / "V1"
    (empty / "seed1").mkdir(parents=True)
    code = main(["gap-report", str(empty), "--out", str(tmp_path / "m"), "--quiet"])
    assert code == 1
    assert "incomplete" in capsys.readouterr().err


METRICS_HEADER = ["env", "episode", "att", "tp", "reward_mean", "queue_mean", "delay", "delay_seconds", "spawned"]


@pytest.mark.parametrize(
    "case, line",
    [
        ("missing column", "line 1: missing column(s) att"),
        ("non-numeric value", "line 3: could not convert string to float: 'oops'"),
        ("short row", "line 2: row length differs from the header's 9 columns"),
    ],
)
def test_gap_report_skips_a_malformed_metrics_csv(tmp_path, capsys, case, line):
    run = tmp_path / "direct" / "V1"
    rows = [METRICS_HEADER, ["sim", "0", "50.0", "10", "-1.0", "2.0", "0.1", "5.0", "12"]]
    rows.append(["real", "0", "60.0", "9", "-1.5", "3.0", "0.2", "6.0", "12"])
    for seed in (1, 2):
        if seed == 2 and case == "missing column":
            rows = [r[:2] + r[3:] for r in rows]
        elif seed == 2 and case == "non-numeric value":
            rows[2][2] = "oops"
        elif seed == 2:
            rows[1] = rows[1][:-1]
        (run / f"seed{seed}").mkdir(parents=True)
        (run / f"seed{seed}" / "metrics.csv").write_text("".join(",".join(r) + "\n" for r in rows))
    assert main(["gap-report", str(run), "--out", str(tmp_path / "m"), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert f"incomplete run dir skipped: {run / 'seed2'} ({run / 'seed2' / 'metrics.csv'}: {line})" in err
    assert str(run / "seed1") not in err
    report = read_gap_csv(tmp_path / "m" / "gap_report.csv")
    assert {r["seeds"] for r in report} == {"1"}
    assert {r["metric"]: float(r["delta_mean"]) for r in report}["ATT"] == 10.0


def test_gap_report_writes_the_protocol_report_schema(tiny_config, tmp_path):
    out = tmp_path / "out"
    assert main(["train-direct", "--config", tiny_config, "--out", str(out), "--quiet"]) == 0
    merged = tmp_path / "merged"
    assert main(["gap-report", str(out / "direct" / "V1"), "--out", str(merged), "--quiet"]) == 0
    with open(out / "gap_report.csv") as fh:
        protocol_header = fh.readline()
    with open(merged / "gap_report.csv") as fh:
        assert fh.readline() == protocol_header
    rows = read_gap_csv(merged / "gap_report.csv")
    assert {(r["label"], r["protocol"], r["scenario"]) for r in rows} == {("direct/V1", "direct", "V1")}



def test_gap_report_names_dot_and_dot_dot_by_the_directory_they_stand_for(tiny_config, tmp_path, monkeypatch):
    out = tmp_path / "out"
    assert main(["train-direct", "--config", tiny_config, "--out", str(out), "--quiet"]) == 0
    run = out / "direct" / "V1"
    assert main(["gap-report", str(run), "--out", str(tmp_path / "full"), "--quiet"]) == 0
    expected = (tmp_path / "full" / "gap_report.csv").read_bytes()
    for cwd, typed, name in ((run, ".", "dot"), (run / "seed1", "..", "dotdot")):
        monkeypatch.chdir(cwd)
        merged = tmp_path / name
        assert main(["gap-report", typed, "--out", str(merged), "--quiet"]) == 0
        assert (merged / "gap_report.csv").read_bytes() == expected

def test_dqn_state_scale_from_config_file_is_echoed(tmp_path):
    cfg = tmp_path / "scale.cfg"
    scale = ",".join(["0.5"] * 20)
    cfg.write_text(TINY.replace("[dqn]\n", f"[dqn]\nstate_scale = {scale}\n"))
    out = tmp_path / "out"
    assert main(["train-direct", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    manifest = (out / "direct" / "V1" / "seed1" / "manifest.txt").read_text()
    assert f"state_scale = {tuple([0.5] * 20)}" in manifest


def resolved_config(tmp_path, text):
    path = tmp_path / "resolve.cfg"
    path.write_text(text)
    args = make_parser().parse_args(["train-direct", "--config", str(path)])
    return build_experiment_config(args, "direct")


def test_grounding_count_scale_sets_the_default_dqn_state_scale(tmp_path):
    cfg = resolved_config(tmp_path, "[grounding]\ncount_scale = 25\n")
    assert cfg.grounding.count_scale == 25.0
    assert cfg.dqn.state_scale == (1.0 / 25.0,) * N_LANES + (1.0,) * N_PHASES
    explicit = ",".join(["0.5"] * 20)
    cfg = resolved_config(
        tmp_path, f"[grounding]\ncount_scale = 25\n[dqn]\nstate_scale = {explicit}\n"
    )
    assert cfg.dqn.state_scale == (0.5,) * 20


# nine evaluation episodes per seed: numpy sums eight or more values pairwise,
# so a mean taken by sequential addition differs in the last digits
GAP_REPORT_CHECK = """
[experiment]
scenario = V4
seeds = 1,2
steps_per_episode = 3
eval_episodes = 9
direct_episodes = 2
demand_vph = 2600
demand_seed = 3

[dqn]
batch_size = 4
replay_capacity = 64

[sim]
episode_length = 600.0
"""


@pytest.mark.parametrize("seeds", ["1,2", "3,1,10"])  # gap-report reads seed10 before seed3
def test_gap_report_reproduces_the_protocol_rows(tmp_path, seeds):
    cfg = tmp_path / "gap.cfg"
    cfg.write_text(GAP_REPORT_CHECK)
    out = tmp_path / "out"
    argv = ["train-direct", "--config", str(cfg), "--seeds", seeds, "--out", str(out), "--quiet"]
    assert main(argv) == 0
    merged = tmp_path / "merged"
    assert main(["gap-report", str(out / "direct" / "V4"), "--out", str(merged), "--quiet"]) == 0
    protocol_rows = read_gap_csv(out / "gap_report.csv")
    merged_rows = read_gap_csv(merged / "gap_report.csv")
    assert {r.pop("label") for r in protocol_rows} == {"direct"}
    assert {r.pop("label") for r in merged_rows} == {"direct/V4"}
    assert merged_rows == protocol_rows


def test_negative_infinite_static_alpha_in_config_fails(tmp_path, capsys):
    cfg = tmp_path / "alpha.cfg"
    cfg.write_text(TINY.replace("[experiment]\n", "[experiment]\nstatic_alpha = -inf\n"))
    code = main(["train-ugat", "--config", str(cfg), "--out", str(tmp_path / "out"), "--quiet"])
    assert code == 1
    assert "static_alpha" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("grounding", "count_scale", "0"),
        ("grounding", "count_scale", "-50"),
        ("grounding", "train_epochs", "0"),
        ("grounding", "batch_size", "0"),
        ("grounding", "learning_rate", "-1.0"),
        ("grounding", "inverse_hidden", "0"),
        ("grounding", "forward_hidden", "64,0"),
        ("dqn", "hidden_sizes", "64,0"),
        ("dqn", "state_scale", ",".join(["nan"] + ["1.0"] * 19)),
        ("dqn", "batch_size", "0"),
        ("dqn", "target_sync_period", "0"),
        ("dqn", "learning_rate", "nan"),
        ("dqn", "replay_capacity", "0"),
        ("dqn", "replay_capacity", "3"),
        ("dqn", "epsilon_start", "nan"),
        ("dqn", "epsilon_end", "nan"),
        ("dqn", "epsilon_decay_steps", "0"),
        ("dqn", "n_actions", "9"),
        ("grounding", "dropout_rate", "1.5"),
        ("experiment", "rollout_epsilon", "nan"),
        ("experiment", "direct_episodes", "-3"),
        ("experiment", "pretrain_episodes", "-1"),
        ("experiment", "demand_vph", "inf"),
        ("experiment", "demand_vph", "nan"),
        ("sim", "episode_length", "nan"),
        ("sim", "episode_length", "inf"),
        ("sim", "episode_length", "65"),
        ("sim", "decision_interval", "inf"),
        ("sim", "queue_speed_threshold", "nan"),
    ],
)
def test_out_of_range_learner_setting_fails_as_config_error(tmp_path, capsys, section, key, value):
    cfg = tiny_with(tmp_path / "bad.cfg", {(section, key): value})
    code = main(["train-ugat", "--config", cfg, "--out", str(tmp_path / "out"), "--quiet"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("ugatlab: error: config:")
    assert key in err
    assert not (tmp_path / "out").exists()


def test_demand_above_the_admission_limit_fails_before_any_demand_is_drawn(tmp_path, capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("generate_demand ran")

    monkeypatch.setattr(protocols, "generate_demand", never)
    cfg = tiny_with(tmp_path / "bad.cfg", {("experiment", "demand_vph"): "1e8"})
    code = main(["train-ugat", "--config", cfg, "--out", str(tmp_path / "out"), "--quiet"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("ugatlab: error: config:")
    assert "demand_vph" in err
    assert not (tmp_path / "out").exists()


def test_state_dim_other_than_the_sims_fails_as_config_error(tmp_path, capsys):
    scale = ",".join(["1.0"] * 10)
    cfg = tiny_with(tmp_path / "bad.cfg", {("dqn", "state_dim"): "10", ("dqn", "state_scale"): scale})
    code = main(["train-ugat", "--config", cfg, "--out", str(tmp_path / "out"), "--quiet"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("ugatlab: error: config:")
    assert "state_dim" in err
    assert not (tmp_path / "out").exists()


def test_train_ugat_rejects_an_alpha_list(tiny_config, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["train-ugat", "--config", tiny_config, "--out", str(out), "--alpha", "0.2,0.4", "--quiet"])
    assert code == 1
    assert capsys.readouterr().err.startswith("ugatlab: error: config:")
    assert not out.exists()


def test_sweep_alpha_dynamic_arm_has_no_static_alpha(tiny_config, tmp_path):
    out = tmp_path / "out"
    assert main(["sweep-alpha", "--config", tiny_config, "--out", str(out), "--alpha", "0.5", "--quiet"]) == 0
    dynamic = (out / "ugat" / "V1" / "seed1" / "manifest.txt").read_text()
    assert "algorithm = ugat\n" in dynamic
    assert "static_alpha = None\n" in dynamic
    static = (out / "ugat_static_0.5" / "V1" / "seed1" / "manifest.txt").read_text()
    assert "static_alpha = 0.5\n" in static


@pytest.mark.parametrize("alphas", ["0.4,0.40", "0.1234561,0.1234562"])
def test_sweep_alpha_rejects_rates_that_share_a_label(alphas, tiny_config, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["sweep-alpha", "--config", tiny_config, "--out", str(out), "--alpha", alphas, "--quiet"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("ugatlab: error: config:")
    assert "distinct labels" in err
    assert not out.exists()



def test_sweep_alpha_tree_is_pinned(tmp_path):
    # the dynamic arm accepts every step at alpha = +inf in iteration 1 and
    # rejects every step at alpha ~ 0.524 in iteration 2; static 0.5 rejects
    # and static 0.9 accepts all 240 steps, so the pin covers both gate
    # outcomes under both the dynamic and the static rate
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "[experiment]\npretrain_episodes = 2\niterations = 2\nepochs_per_iteration = 1\n"
        "rollout_episodes = 1\neval_episodes = 1\ndirect_episodes = 2\n[sim]\nepisode_length = 120\n"
    )
    out = tmp_path / "out"
    argv = ["sweep-alpha", "--config", str(cfg), "--alpha", "0.5,0.9", "--seeds", "1", "--out", str(out)]
    assert main([*argv, "--quiet"]) == 0
    digest = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        digest.update(path.relative_to(out).as_posix().encode() + b"\0" + path.read_bytes() + b"\0")
    assert digest.hexdigest() == "004e3929dbbde4178e726252ceca6d13eac59121a91cce1b42f5044816e196e7"

def test_parallel_jobs_smoke(tiny_config, tmp_path):
    out = tmp_path / "out"
    code = main(
        ["ablate", "--config", tiny_config, "--out", str(out), "--jobs", "2", "--quiet"]
    )
    assert code == 0
    rows = read_gap_csv(out / "gap_report.csv")
    assert {r["label"] for r in rows} == {
        "ugat",
        "no_dynamic_alpha",
        "no_alpha_no_uncertainty",
        "no_grounding",
    }


def test_identical_invocations_are_byte_identical(tiny_config, tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["train-ugat", "--config", tiny_config, "--out", str(out), "--quiet"]) == 0
        outs.append(out)
    files = sorted(p.relative_to(outs[0]) for p in outs[0].rglob("*") if p.is_file())
    assert files
    for rel in files:
        assert (outs[0] / rel).read_bytes() == (outs[1] / rel).read_bytes(), rel


def test_compare_uncertainty_tree_is_the_same_for_any_jobs(tmp_path):
    # longer episodes and 400 dropout passes make the dropout arm finish last,
    # after the ensemble arm that shares its seed directory
    cfg = tiny_with(
        tmp_path / "slow_dropout.cfg",
        {
            ("experiment", "steps_per_episode"): "40",
            ("sim", "episode_length"): "200.0",
            ("grounding", "dropout_passes"): "400",
        },
    )
    trees = []
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}"
        assert main(["compare-uncertainty", "--config", cfg, "--out", str(out), "--jobs", jobs, "--quiet"]) == 0
        trees.append({str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()})
    assert "head = ensemble" in trees[0]["ugat/V1/seed1/manifest.txt"].decode()
    assert trees[1] == trees[0]
