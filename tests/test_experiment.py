import math
from dataclasses import astuple, replace

import numpy as np
import pytest

from ugatlab.dqn import DqnConfig
from ugatlab.experiment import (
    ExperimentConfig,
    aggregate_metrics,
    compute_gap,
    run_ablation,
    run_direct_transfer,
    run_ugat,
)
from ugatlab.experiment import io, protocols
from ugatlab.experiment.protocols import _run_grounded_seed, _demands
from ugatlab.grounding import GroundingConfig, UncertainAction
from ugatlab.sim import N_LANES, N_PHASES, MetricsRecord, SimConfig


def tiny_cfg(**kw):
    base = dict(
        scenario="V1",
        algorithm="ugat",
        head="edl",
        seeds=(1,),
        pretrain_episodes=0,
        iterations=2,
        epochs_per_iteration=1,
        steps_per_episode=3,
        rollout_episodes=1,
        eval_episodes=1,
        direct_episodes=2,
        demand_vph=600.0,
        demand_seed=3,
        dqn=DqnConfig(batch_size=4, replay_capacity=64),
        grounding=GroundingConfig(train_epochs=1, batch_size=8),
        sim=SimConfig(episode_length=60.0),
    )
    base.update(kw)
    return ExperimentConfig(**base)


def test_default_state_scale_divides_lane_counts_by_the_count_scale():
    scale = ExperimentConfig().dqn.state_scale
    assert scale == (1.0 / GroundingConfig().count_scale,) * N_LANES + (1.0,) * N_PHASES


def test_grounding_count_scale_sets_the_library_default_state_scale():
    cfg = ExperimentConfig(grounding=GroundingConfig(count_scale=25.0))
    assert cfg.dqn.state_scale == (1.0 / 25.0,) * N_LANES + (1.0,) * N_PHASES
    assert replace(cfg, grounding=GroundingConfig()).dqn.state_scale == cfg.dqn.state_scale
    explicit = ExperimentConfig(
        grounding=GroundingConfig(count_scale=25.0), dqn=DqnConfig(state_scale=(0.5,) * 20)
    )
    assert explicit.dqn.state_scale == (0.5,) * 20


def rec(att=0.0, tp=0, reward=0.0, queue=0.0, delay=0.0):
    return MetricsRecord(
        att=att, tp=tp, reward_mean=reward, queue_mean=queue, delay=delay,
        delay_seconds=0.0, spawned=tp,
    )


# --- gap arithmetic -----------------------------------------------------------


def test_gap_zero_when_equal():
    r = rec(att=10.0, tp=5, reward=-1.0, queue=2.0, delay=0.1)
    assert all(v == 0.0 for v in compute_gap(r, r).values())


def test_gap_matches_published_reference_arithmetic():
    real = rec(att=158.93)
    sim = rec(att=111.24)
    assert compute_gap(real, sim)["ATT"] == pytest.approx(47.69, abs=1e-9)


def test_gap_antisymmetry():
    a = rec(att=5.0, tp=7, reward=-2.0, queue=1.0, delay=0.4)
    b = rec(att=9.0, tp=3, reward=-8.0, queue=6.0, delay=0.2)
    ab, ba = compute_gap(a, b), compute_gap(b, a)
    assert all(ab[k] == -ba[k] for k in ab)


def test_aggregate_uses_population_std():
    records = [rec(att=1.0), rec(att=2.0), rec(att=3.0)]
    mean, std = aggregate_metrics(records)
    assert mean["ATT"] == pytest.approx(2.0)
    assert std["ATT"] == pytest.approx(math.sqrt(2.0 / 3.0), abs=1e-12)


def test_single_episode_std_zero():
    mean, std = aggregate_metrics([rec(att=4.0)])
    assert std["ATT"] == 0.0


# --- mocked Algorithm-1 control flow ------------------------------------------


class ScriptedGrounder:
    """Returns a fixed grounded action with a scripted uncertainty sequence."""

    def __init__(self, uncertainties, action=5):
        self.uncertainties = list(uncertainties)
        self.action = action
        self.calls = 0
        self.fit_calls = 0

    def fit(self, d_real, d_sim, rng):
        self.fit_calls += 1

    def ground(self, state, action):
        u = self.uncertainties[self.calls]
        self.calls += 1
        return UncertainAction(action=self.action, uncertainty=u)


class ScriptedAgent:
    """Always proposes action 0 and never learns."""

    def __init__(self, config):
        self.config = config
        self.decision_steps = 0
        self.learn_steps = 0

    def epsilon(self):
        return 0.0

    def act(self, state, eps, rng):
        return 0

    def learn(self, buffer):
        return None

    def sync_target(self):
        pass


def run_scripted(cfg, uncertainties):
    grounder = ScriptedGrounder(uncertainties)
    train_demand, eval_demands = _demands(cfg)
    result = _run_grounded_seed(
        cfg,
        seed=1,
        train_demand=train_demand,
        eval_demands=eval_demands,
        grounder_factory=lambda c, init_rng, head_rng: grounder,
        agent_factory=lambda c, rng: ScriptedAgent(c.dqn),
    )
    return result, grounder


def test_algorithm_one_hand_trace():
    # I=2, E=1, T=3: iteration 1 runs at alpha=inf (all accepted), the update
    # sets alpha = mean(0.25, 0.5, 0.75) = 0.5 (exact in binary), and
    # iteration 2 rejects u >= 0.5 including the boundary-equal 0.5
    cfg = tiny_cfg()
    us = [0.25, 0.5, 0.75, 0.6, 0.3, 0.5]
    result, grounder = run_scripted(cfg, us)

    assert grounder.fit_calls == 2
    assert grounder.calls == 6  # T*E per iteration, twice
    assert [r[4] for r in result.audit_rows] == us

    accepted = [r[6] for r in result.audit_rows]
    assert accepted == [True, True, True, False, True, False]

    alphas_at_gate = [r[5] for r in result.audit_rows]
    assert alphas_at_gate[:3] == [math.inf] * 3
    assert alphas_at_gate[3:] == [0.5] * 3

    # executed trace: grounded action 5 when accepted, policy action 0 otherwise
    executed = [r[3] if r[6] else r[2] for r in result.audit_rows]
    assert executed == [5, 5, 5, 0, 5, 0]

    assert result.alpha_trace[0] == (1, 0.5)
    assert result.alpha_trace[1][1] == pytest.approx(np.mean([0.6, 0.3, 0.5]), abs=1e-12)


def test_static_alpha_rejects_and_gat_accepts_unit_uncertainty():
    static = tiny_cfg(algorithm="ugat_static", static_alpha=0.5)
    result, _ = run_scripted(static, [1.0] * 6)
    assert all(r[6] is False or r[6] == 0 for r in result.audit_rows)
    assert all(r[5] == 0.5 for r in result.audit_rows)

    gat = tiny_cfg(algorithm="gat")
    result, _ = run_scripted(gat, [1.0] * 6)
    assert all(bool(r[6]) for r in result.audit_rows)
    assert all(r[5] == math.inf for r in result.audit_rows)
    assert [a for _, a in result.alpha_trace] == [math.inf, math.inf]


def test_uncertainty_log_length_is_steps_times_epochs():
    cfg = tiny_cfg(iterations=3, epochs_per_iteration=2, steps_per_episode=4)
    result, grounder = run_scripted(cfg, [0.1] * (3 * 2 * 4))
    assert grounder.calls == 24
    per_iter = 2 * 4
    for i in range(3):
        rows = result.audit_rows[i * per_iter : (i + 1) * per_iter]
        assert len(rows) == per_iter


# --- protocol equivalences -------------------------------------------------------


def seed_trace(report):
    sr = report.per_seed[0]
    return (
        [tuple(r) for r in sr.audit_rows],
        sr.alpha_trace,
        sr.sim,
        sr.real,
        [(r.episode, r.return_, r.mean_td_loss) for r in sr.training_curve],
    )


def test_gat_equals_alpha_pinned_static_ugat():
    gat = run_ugat(tiny_cfg(algorithm="gat", head="logits", pretrain_episodes=1))
    pinned = run_ugat(
        tiny_cfg(
            algorithm="ugat_static",
            static_alpha=math.inf,
            head="logits",
            pretrain_episodes=1,
        )
    )
    g, p = seed_trace(gat), seed_trace(pinned)
    assert g[0] == p[0]
    assert [a for _, a in g[1]] == [a for _, a in p[1]]
    assert g[2] == p[2] and g[3] == p[3] and g[4] == p[4]


def test_ablation_no_grounding_row_equals_direct_transfer():
    cfg = tiny_cfg(algorithm="ugat", pretrain_episodes=1)
    direct = run_direct_transfer(replace(cfg, algorithm="direct"))
    rows = dict(run_ablation(cfg))
    assert seed_trace(rows["no_grounding"]) == seed_trace(direct)
    assert rows["no_grounding"].stats == direct.stats
    assert set(rows) == {"ugat", "no_dynamic_alpha", "no_alpha_no_uncertainty", "no_grounding"}


def run_tree(root):
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_parallel_ablation_equals_serial(tmp_path):
    cfg = tiny_cfg(algorithm="ugat", pretrain_episodes=1)
    serial = run_ablation(replace(cfg, out_dir=str(tmp_path / "serial")))
    parallel = run_ablation(replace(cfg, out_dir=str(tmp_path / "parallel")), jobs=2)
    assert [label for label, _ in parallel] == [label for label, _ in serial]
    for (_, s), (_, p) in zip(serial, parallel):
        assert seed_trace(p) == seed_trace(s)
        assert p.stats == s.stats
    serial_tree = run_tree(tmp_path / "serial")
    assert {"demands/train.csv", "demands/eval0.csv"} <= set(serial_tree)
    assert run_tree(tmp_path / "parallel") == serial_tree


def test_run_arms_writes_the_shared_demands_before_any_arm_starts(tmp_path, monkeypatch):
    cfg = tiny_cfg(algorithm="direct", out_dir=str(tmp_path))
    seen = []

    def fake_arm(arm_cfg):
        seen.append(sorted(p.name for p in (tmp_path / "demands").glob("*")))
        return protocols.GapReport(arm_cfg.algorithm, arm_cfg.scenario, (), [], {})

    monkeypatch.setattr(protocols, "_run_arm", fake_arm)
    protocols.run_arms([("a", cfg), ("b", cfg)])
    assert seen == [["eval0.csv", "train.csv"]] * 2


def test_metrics_csv_reads_back_into_the_evaluated_records(tmp_path):
    cfg = tiny_cfg(
        algorithm="direct",
        seeds=(1, 2),
        eval_episodes=3,
        demand_vph=2600.0,
        sim=SimConfig(episode_length=120.0),
        out_dir=str(tmp_path),
    )
    ((_, report),) = protocols.run_arms([("direct", cfg)])
    for sr in report.per_seed:
        read = io.read_metrics_csv(io.seed_dir(tmp_path, "direct", "V1", sr.seed) / "metrics.csv")
        assert list(read) == ["sim", "real"]
        for env, evaluated in (("sim", sr.sim_eval), ("real", sr.real_eval)):
            assert read[env] == evaluated.episodes
            for got, want in zip(read[env], evaluated.episodes):
                assert [type(v) for v in astuple(got)] == [type(v) for v in astuple(want)]
    assert any(r.tp > 0 and r.att % 1.0 != 0.0 for r in read["real"])


def test_protocol_runners_write_nothing(tmp_path):
    cfg = tiny_cfg(pretrain_episodes=1, out_dir=str(tmp_path))
    run_ugat(cfg)
    run_direct_transfer(replace(cfg, algorithm="direct"))
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "config, field, value",
    [
        (GroundingConfig, "count_scale", 0.0),
        (GroundingConfig, "count_scale", -50.0),
        (GroundingConfig, "count_scale", math.inf),
        (GroundingConfig, "count_scale", math.nan),
        (GroundingConfig, "train_epochs", 0),
        (GroundingConfig, "batch_size", 0),
        (DqnConfig, "batch_size", 0),
        (DqnConfig, "target_sync_period", 0),
    ],
)
def test_out_of_range_learner_settings_fail_at_construction(config, field, value):
    with pytest.raises(ValueError, match=field):
        config(**{field: value})


@pytest.mark.parametrize("alpha", [-math.inf, math.nan, -0.1])
def test_static_alpha_must_be_nonnegative(alpha):
    for algorithm in ("ugat_static", "direct"):
        with pytest.raises(ValueError, match="static_alpha"):
            tiny_cfg(algorithm=algorithm, static_alpha=alpha)
    assert tiny_cfg(algorithm="ugat_static", static_alpha=math.inf).static_alpha == math.inf


def test_alpha_trace_replays_from_audit_log():
    # dynamic alpha after iteration i equals the mean of that iteration's
    # logged uncertainties, replayed from the emitted audit rows
    cfg = tiny_cfg(pretrain_episodes=1, iterations=2, epochs_per_iteration=2)
    report = run_ugat(cfg)
    sr = report.per_seed[0]
    per_iter = cfg.epochs_per_iteration * cfg.steps_per_episode
    for i, (_, alpha) in enumerate(sr.alpha_trace):
        us = [r[4] for r in sr.audit_rows[i * per_iter : (i + 1) * per_iter]]
        assert alpha == pytest.approx(np.mean(us), abs=1e-12)


def test_repeated_run_reproduces_bitwise():
    cfg = tiny_cfg(pretrain_episodes=1)
    a = run_ugat(cfg)
    b = run_ugat(cfg)
    assert seed_trace(a) == seed_trace(b)
    for k in a.stats:
        assert a.stats[k] == b.stats[k]


def test_gap_identity_on_every_report_row():
    report = run_direct_transfer(tiny_cfg(algorithm="direct", seeds=(1, 2)))
    for sr in report.per_seed:
        for k, v in sr.delta.items():
            assert v == sr.real[k] - sr.sim[k]
    for k, s in report.stats.items():
        assert s.delta_mean == pytest.approx(s.real_mean - s.sim_mean, abs=1e-12)


def test_ablation_fixed_alpha_row_gates_at_half_everywhere():
    rows = dict(run_ablation(tiny_cfg(pretrain_episodes=1)))
    audit = rows["no_dynamic_alpha"].per_seed[0].audit_rows
    assert audit
    assert all(r[5] == 0.5 for r in audit)
    assert [a for _, a in rows["no_dynamic_alpha"].per_seed[0].alpha_trace] == [0.5, 0.5]


def test_sweep_contains_nonconstant_dynamic_row_and_matches_single_calls():
    from ugatlab.experiment import sweep_static_alpha

    cfg = tiny_cfg(pretrain_episodes=1, iterations=2)
    rows = dict(sweep_static_alpha(cfg, [0.4]))
    assert set(rows) == {"dynamic", "alpha_0.4"}
    dynamic_alphas = [a for _, a in rows["dynamic"].per_seed[0].alpha_trace]
    assert len(set(dynamic_alphas)) > 1  # the dynamic rate actually moves
    single = run_ugat(replace(cfg, algorithm="ugat_static", static_alpha=0.4))
    assert seed_trace(rows["alpha_0.4"]) == seed_trace(single)


def test_compare_uncertainty_rows_and_gat_equivalence():
    from ugatlab.experiment import compare_uncertainty_methods

    cfg = tiny_cfg(pretrain_episodes=1)
    rows = dict(compare_uncertainty_methods(cfg))
    assert set(rows) == {"edl", "dropout", "ensemble", "gat"}
    for label, report in rows.items():
        assert set(report.stats) == {"ATT", "TP", "Reward", "Queue", "Delay"}
        assert report.per_seed[0].alpha_trace  # per-method alpha traces logged
    standalone = run_ugat(replace(cfg, algorithm="gat", head="logits"))
    assert seed_trace(rows["gat"]) == seed_trace(standalone)
