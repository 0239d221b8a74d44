import concurrent.futures
import hashlib
import math
from dataclasses import astuple, replace

import numpy as np
import pytest

from ugatlab.dqn import DqnConfig
from ugatlab.experiment import EvalResult, ExperimentConfig, compute_gap, run_ablation
from ugatlab.experiment import io, protocols
from ugatlab.experiment.protocols import _demands
from ugatlab.grounding import GroundingConfig
from ugatlab.sim import (
    N_LANES,
    N_PHASES,
    SCENARIOS,
    ConfigurationError,
    IntersectionLayout,
    MetricsRecord,
    SimConfig,
)

from protocol_helpers import run_one, run_scripted, seed_trace


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


def means(*records):
    return EvalResult(list(records)).mean


def test_gap_zero_when_equal():
    r = means(rec(att=10.0, tp=5, reward=-1.0, queue=2.0, delay=0.1))
    assert all(v == 0.0 for v in compute_gap(r, r).values())


def test_gap_matches_published_reference_arithmetic():
    real = means(rec(att=158.93))
    sim = means(rec(att=111.24))
    assert compute_gap(real, sim)["ATT"] == pytest.approx(47.69, abs=1e-9)


def test_gap_antisymmetry():
    a = means(rec(att=5.0, tp=7, reward=-2.0, queue=1.0, delay=0.4))
    b = means(rec(att=9.0, tp=3, reward=-8.0, queue=6.0, delay=0.2))
    ab, ba = compute_gap(a, b), compute_gap(b, a)
    assert all(ab[k] == -ba[k] for k in ab)


def test_eval_mean_is_per_metric_over_episodes():
    mean = means(rec(att=1.0, tp=2, reward=-1.0, queue=0.5, delay=0.1), rec(att=3.0, tp=5, delay=0.3))
    assert mean == pytest.approx({"ATT": 2.0, "TP": 3.5, "Reward": -0.5, "Queue": 0.25, "Delay": 0.2})


# --- mocked Algorithm-1 control flow ------------------------------------------


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


def test_a_static_rate_on_ugat_runs_the_static_rule():
    cfg = ExperimentConfig(algorithm="ugat", static_alpha=0.5)
    assert (cfg.algorithm, cfg.protocol_label) == ("ugat_static", "ugat_static_0.5")
    result, _ = run_scripted(tiny_cfg(static_alpha=0.5), [0.25, 0.75] * 3)
    assert all(r[5] == 0.5 for r in result.audit_rows)  # from iteration 1 on, not +inf
    assert [bool(r[6]) for r in result.audit_rows] == [True, False] * 3


def test_uncertainty_log_length_is_steps_times_epochs():
    cfg = tiny_cfg(iterations=3, epochs_per_iteration=2, steps_per_episode=4)
    result, grounder = run_scripted(cfg, [0.1] * (3 * 2 * 4))
    assert grounder.calls == 24
    per_iter = 2 * 4
    for i in range(3):
        rows = result.audit_rows[i * per_iter : (i + 1) * per_iter]
        assert len(rows) == per_iter


# --- protocol equivalences -------------------------------------------------------


def test_gat_equals_alpha_pinned_static_ugat():
    gat = run_one(tiny_cfg(algorithm="gat", head="logits", pretrain_episodes=1))
    pinned = run_one(
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
    direct = run_one(replace(cfg, algorithm="direct"))
    rows = dict(run_ablation(cfg))
    assert seed_trace(rows["no_grounding"]) == seed_trace(direct)
    assert rows["no_grounding"].stats == direct.stats
    assert set(rows) == {"ugat", "no_dynamic_alpha", "no_alpha_no_uncertainty", "no_grounding"}


def run_tree(root):
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_parallel_ablation_equals_serial(tmp_path):
    # 4 arms x 2 seeds on 2 workers: the (arm, seed) tasks finish out of order
    cfg = tiny_cfg(algorithm="ugat", seeds=(1, 2), pretrain_episodes=1)
    serial = run_ablation(replace(cfg, out_dir=str(tmp_path / "serial")))
    parallel = run_ablation(replace(cfg, out_dir=str(tmp_path / "parallel")), jobs=2)
    assert [label for label, _ in parallel] == [label for label, _ in serial]
    for (_, s), (_, p) in zip(serial, parallel):
        assert p.seeds == s.seeds == (1, 2)
        assert [seed_trace(p, i) for i in range(2)] == [seed_trace(s, i) for i in range(2)]
        assert p.stats == s.stats
    serial_tree = run_tree(tmp_path / "serial")
    assert {"demands/train.csv", "demands/eval0.csv"} <= set(serial_tree)
    assert run_tree(tmp_path / "parallel") == serial_tree


def shared_pretraining_arms():
    cfg = tiny_cfg(seeds=(1, 2), pretrain_episodes=2, direct_episodes=3)
    return [
        ("edl", cfg),
        ("dropout", replace(cfg, head="dropout")),
        ("gat", replace(cfg, algorithm="gat", head="logits")),
        ("direct", replace(cfg, algorithm="direct")),  # continues the shared pretraining
        ("direct_short", replace(cfg, algorithm="direct", direct_episodes=1)),  # trains on its own
    ]


def run_recorded(monkeypatch, fn):
    """fn()'s result and what it called.

    calls["pretrain"] holds the seed of each pretrain(), "rollout" the rollout
    stream's state at each rollout() and "demand" the arguments of each
    generate_demand().
    """
    calls = {"pretrain": [], "rollout": [], "demand": []}
    pretrain, rollout, generate_demand = protocols.pretrain, protocols.rollout, protocols.generate_demand

    def recording_pretrain(cfg, seed, *rest):
        calls["pretrain"].append(seed)
        return pretrain(cfg, seed, *rest)

    def recording_rollout(env_factory, episodes, agent, epsilon, rng):
        calls["rollout"].append(stream_state(rng))
        return rollout(env_factory, episodes, agent, epsilon, rng)

    def recording_generate_demand(*args):
        calls["demand"].append(args)
        return generate_demand(*args)

    with monkeypatch.context() as m:
        m.setattr(protocols, "pretrain", recording_pretrain)
        m.setattr(protocols, "rollout", recording_rollout)
        m.setattr(protocols, "generate_demand", recording_generate_demand)
        result = fn()
    return result, calls


def stream_state(rng):
    state = rng.bit_generator.state["state"]
    return state["inc"], state["state"]


def first_collections(rollout_states, seeds):
    """Per seed, the rollouts that start from its fresh rollout stream: iteration 1's sim rollout."""
    return {s: rollout_states.count(stream_state(protocols.seed_streams(s)["rollout"])) for s in seeds}


def q_bytes(agent):
    """agent's Q and target network bytes."""
    return agent.q_model.params.tobytes() + agent.target_model.params.tobytes()


def arm_fingerprint(report):
    return [
        (
            sr.seed,
            [tuple(r) for r in sr.audit_rows],
            sr.alpha_trace,
            sr.sim,
            sr.real,
            [astuple(r) for r in sr.training_curve],
            q_bytes(sr.agent),
        )
        for sr in report.per_seed
    ]


def run_arms_fingerprints(monkeypatch, arms):
    rows, calls = run_recorded(monkeypatch, lambda: protocols.run_arms(arms))
    return {label: arm_fingerprint(r) for label, r in rows}, calls


def run_alone(monkeypatch, cfg):
    """The fingerprint of cfg's arm run by itself, in a one-arm battery, and what it called."""
    report, calls = run_recorded(monkeypatch, lambda: run_one(cfg))
    return arm_fingerprint(report), calls


def test_shared_pretraining_gives_every_arm_the_bytes_it_gets_alone(monkeypatch):
    arms = shared_pretraining_arms()
    shared, calls = run_arms_fingerprints(monkeypatch, arms)
    # one shared pretraining per seed, then direct_short's own per seed
    assert calls["pretrain"] == [1, 2, 1, 2]
    # one first collection per seed for edl, dropout and gat; each arm collects
    # its iteration 2 (sim and real) on from the shared stream
    assert first_collections(calls["rollout"], (1, 2)) == {1: 1, 2: 1}
    assert len(calls["rollout"]) == 2 * (2 + 3 * 2)
    # the battery's schedules are generated once: training and one evaluation
    assert len(calls["demand"]) == 2
    alone_calls = {"pretrain": [], "rollout": [], "demand": []}
    for label, cfg in arms:
        alone, arm_calls = run_alone(monkeypatch, cfg)
        for name, made in alone_calls.items():
            made += arm_calls[name]
        assert shared[label] == alone, label
    assert len(alone_calls["pretrain"]) == 10
    assert first_collections(alone_calls["rollout"], (1, 2)) == {1: 3, 2: 3}
    assert len(alone_calls["rollout"]) == 3 * 2 * 2 * 2
    assert len(alone_calls["demand"]) == 5 * 2
    assert len(shared["direct"][0][5]) == 3 and len(shared["direct_short"][0][5]) == 1
    assert [r[0] for r in shared["edl"][0][5]] == list(range(4))  # 2 pretrained + 2 grounded

    reversed_order, _ = run_arms_fingerprints(monkeypatch, arms[::-1])
    assert reversed_order == shared


@pytest.mark.parametrize(
    "direct_episodes",
    [
        pytest.param(1, id="below-the-pretraining-trains-alone"),
        pytest.param(3, id="above-the-pretraining-continues-the-start"),
    ],
)
def test_a_direct_arm_trains_the_bytes_of_train_direct_policy(direct_episodes, monkeypatch):
    cfg = tiny_cfg(algorithm="direct", seeds=(1, 2), pretrain_episodes=2, direct_episodes=direct_episodes)
    ((_, report),), calls = run_recorded(monkeypatch, lambda: protocols.run_arms([("direct", cfg)]))
    # one start per seed: the shared pretraining, or the arm's own fresh one and no other beside it
    assert calls["pretrain"] == [1, 2]
    train_demand, _ = _demands(cfg)
    for sr in report.per_seed:
        agent, curve = protocols.train_direct_policy(cfg, sr.seed, train_demand)
        assert [astuple(r) for r in sr.training_curve] == [astuple(r) for r in curve]
        assert q_bytes(sr.agent) == q_bytes(agent)


def test_run_arms_rejects_jobs_below_one():
    for jobs in (0, -1):
        with pytest.raises(ValueError, match="jobs"):
            protocols.run_arms([("a", tiny_cfg())], jobs=jobs)


@pytest.mark.parametrize(
    "differs",
    [
        {"demand_vph": 900.0},
        {"demand_seed": 4},
        {"eval_episodes": 2},
        {"sim": SimConfig(episode_length=90.0)},
        {"scenario": "V4"},
        {"rollout_epsilon": 0.2},
        {"rollout_episodes": 2},
        {"steps_per_episode": 4},
        {"pretrain_episodes": 1},
        {"dqn": DqnConfig(batch_size=8, replay_capacity=64)},
        {"seeds": (1, 2)},
    ],
)
def test_run_arms_rejects_arms_with_other_demands(differs, monkeypatch):
    monkeypatch.setattr(protocols, "generate_demand", None)  # nothing is generated first
    cfg = tiny_cfg()
    ((name, _),) = differs.items()
    with pytest.raises(ValueError, match=f"the arms of a battery must agree on {name}$"):
        protocols.run_arms([("a", cfg), ("b", replace(cfg, **differs))])


@pytest.mark.parametrize("labels", [("a", "a"), ("a", "b", "a")])
def test_run_arms_rejects_repeated_labels_before_anything_is_written(labels, tmp_path, monkeypatch):
    monkeypatch.setattr(protocols, "generate_demand", None)  # nothing is generated first
    cfg = tiny_cfg(out_dir=str(tmp_path / "out"))
    with pytest.raises(ValueError, match="distinct labels"):
        protocols.run_arms([(label, cfg) for label in labels])
    assert not (tmp_path / "out").exists()


def test_run_arms_pool_has_at_most_one_worker_per_arm_or_seed(monkeypatch):
    sizes = []

    class RecordingPool:
        """Records max_workers and runs the tasks in this process."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)  # run_arms imports it per pool
    cfg = tiny_cfg(algorithm="direct")
    two_arms = [("a", cfg), ("b", replace(cfg, direct_episodes=1))]
    protocols.run_arms(two_arms, jobs=64)
    protocols.run_arms([(label, replace(c, seeds=(1, 2, 3))) for label, c in two_arms], jobs=64)
    protocols.run_arms([(label, replace(c, seeds=(1, 2, 3))) for label, c in two_arms], jobs=2)
    run_ablation(cfg, jobs=64)
    protocols.run_arms([("a", cfg)], jobs=64)  # one (arm, seed) task runs in this process
    assert sizes == [2, 6, 2, 4]


def test_run_arms_writes_the_shared_demands_before_any_arm_starts(tmp_path, monkeypatch):
    cfg = tiny_cfg(algorithm="direct", out_dir=str(tmp_path))
    seen = []
    run_seed = protocols._run_seed

    def recording_run_seed(task_cfg, seed, start, schedules):
        seen.append(sorted(p.name for p in (tmp_path / "demands").glob("*")))
        handed.append(schedules)
        return run_seed(task_cfg, seed, start, schedules)

    handed, written = [], []
    write_demands = io.write_demands

    def recording_write_demands(out, *demands):
        written.append(demands)
        write_demands(out, *demands)

    monkeypatch.setattr(protocols, "_run_seed", recording_run_seed)
    monkeypatch.setattr(io, "write_demands", recording_write_demands)
    protocols.run_arms([("a", cfg), ("b", cfg)])
    assert seen == [["eval0.csv", "train.csv"]] * 2
    # every arm gets the very schedules the demands/ directory was written from
    ((train, evals),) = written
    assert [(t is train, e is evals) for t, e in handed] == [(True, True)] * 2


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
    schedules = _demands(cfg)
    start = protocols._start(cfg, 1, schedules[0], collect=True)
    protocols._run_seed(cfg, 1, start, schedules)
    protocols._run_seed(replace(cfg, algorithm="direct"), 1, start, schedules)
    assert list(tmp_path.iterdir()) == []


def experiment_with_dqn(**kw):
    return ExperimentConfig(dqn=DqnConfig(**kw))


@pytest.mark.parametrize(
    "config, field, value",
    [
        (GroundingConfig, "count_scale", 0.0),
        (GroundingConfig, "count_scale", -50.0),
        (GroundingConfig, "count_scale", math.inf),
        (GroundingConfig, "count_scale", math.nan),
        (GroundingConfig, "train_epochs", 0),
        (GroundingConfig, "batch_size", 0),
        (GroundingConfig, "learning_rate", -1.0),
        (GroundingConfig, "learning_rate", 0.0),
        (GroundingConfig, "learning_rate", math.nan),
        (GroundingConfig, "forward_hidden", (64, 0)),
        (GroundingConfig, "inverse_hidden", (0,)),
        (DqnConfig, "hidden_sizes", (64, 0)),
        (DqnConfig, "hidden_sizes", (-1, 64)),
        (DqnConfig, "state_scale", (math.nan,) + (1.0,) * 19),
        (DqnConfig, "state_scale", (1.0,) * 19 + (math.inf,)),
        (DqnConfig, "batch_size", 0),
        (DqnConfig, "target_sync_period", 0),
        (DqnConfig, "learning_rate", math.nan),
        (DqnConfig, "learning_rate", math.inf),
        (DqnConfig, "learning_rate", -1e-3),
        (DqnConfig, "replay_capacity", 0),
        (DqnConfig, "replay_capacity", 10),
        (DqnConfig, "epsilon_start", math.nan),
        (DqnConfig, "epsilon_start", 1.5),
        (DqnConfig, "epsilon_end", math.nan),
        (DqnConfig, "epsilon_end", -0.1),
        (DqnConfig, "epsilon_decay_steps", 0),
        (GroundingConfig, "dropout_rate", 1.0),
        (GroundingConfig, "dropout_rate", -0.1),
        (GroundingConfig, "dropout_rate", math.nan),
        (ExperimentConfig, "rollout_epsilon", math.nan),
        (ExperimentConfig, "rollout_epsilon", 1.5),
        (ExperimentConfig, "rollout_epsilon", -0.1),
        (ExperimentConfig, "direct_episodes", -3),
        (ExperimentConfig, "pretrain_episodes", -1),
        (ExperimentConfig, "seeds", (1, 1)),
        (ExperimentConfig, "seeds", (-1,)),
        (ExperimentConfig, "seeds", (2, 0, -3)),
        (ExperimentConfig, "demand_vph", math.nan),
        (ExperimentConfig, "demand_vph", math.inf),
        (ExperimentConfig, "demand_vph", 0.0),
        (ExperimentConfig, "demand_vph", 1e8),
        (experiment_with_dqn, "n_actions", 9),
        (experiment_with_dqn, "n_actions", 0),
    ],
)
def test_out_of_range_learner_settings_fail_at_construction(config, field, value):
    with pytest.raises(ValueError, match=field):
        config(**{field: value})


def test_demand_vph_bound_is_one_spawn_per_lane_and_tick():
    assert ExperimentConfig(demand_vph=43_200.0).demand_vph == 43_200.0
    with pytest.raises(ValueError, match="demand_vph"):
        ExperimentConfig(demand_vph=43_200.5)
    assert ExperimentConfig(demand_vph=86_400.0, sim=SimConfig(tick=0.5)).demand_vph == 86_400.0


@pytest.mark.parametrize("twin", ["Default", "V4"])
def test_a_tick_that_crosses_a_whole_lane_in_either_twin_fails_at_construction(twin, monkeypatch):
    lane = IntersectionLayout().lane_length
    assert ExperimentConfig(scenario="V4", sim=SimConfig(tick=1.0)).sim.tick == 1.0
    monkeypatch.setitem(SCENARIOS, twin, replace(SCENARIOS[twin], max_speed=lane + 1.0))
    with pytest.raises(ConfigurationError, match="^a vehicle must not traverse a whole lane in one tick$"):
        ExperimentConfig(scenario="V4", sim=SimConfig(tick=1.0))


@pytest.mark.parametrize("alpha", [-math.inf, math.nan, -0.1])
def test_static_alpha_must_be_nonnegative(alpha):
    for algorithm in ("ugat_static", "direct"):
        with pytest.raises(ValueError, match="static_alpha"):
            tiny_cfg(algorithm=algorithm, static_alpha=alpha)
    assert tiny_cfg(algorithm="ugat_static", static_alpha=math.inf).static_alpha == math.inf


def test_alpha_trace_replays_from_audit_log():
    # dynamic alpha after iteration i is exactly the mean of that iteration's
    # logged uncertainties, replayed from the emitted audit rows, and it is
    # the alpha the gate used in iteration i + 1 (+inf in iteration 1)
    cfg = tiny_cfg(pretrain_episodes=1, iterations=2, epochs_per_iteration=2)
    report = run_one(cfg)
    sr = report.per_seed[0]
    per_iter = cfg.epochs_per_iteration * cfg.steps_per_episode
    assert len(sr.audit_rows) == cfg.iterations * per_iter
    gate_alpha = math.inf
    for i, (_, alpha) in enumerate(sr.alpha_trace):
        rows = sr.audit_rows[i * per_iter : (i + 1) * per_iter]
        assert [r[5] for r in rows] == [gate_alpha] * per_iter
        assert alpha == float(np.mean([r[4] for r in rows]))
        gate_alpha = alpha


def test_repeated_run_reproduces_bitwise():
    cfg = tiny_cfg(pretrain_episodes=1)
    a = run_one(cfg)
    b = run_one(cfg)
    assert seed_trace(a) == seed_trace(b)
    for k in a.stats:
        assert a.stats[k] == b.stats[k]


def test_gap_identity_on_every_report_row():
    report = run_one(tiny_cfg(algorithm="direct", seeds=(1, 2)))
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
    single = run_one(replace(cfg, algorithm="ugat_static", static_alpha=0.4))
    assert seed_trace(rows["alpha_0.4"]) == seed_trace(single)


def test_compare_uncertainty_rows_and_gat_equivalence():
    from ugatlab.experiment import compare_uncertainty_methods

    cfg = tiny_cfg(pretrain_episodes=1)
    rows = dict(compare_uncertainty_methods(cfg))
    assert set(rows) == {"edl", "dropout", "ensemble", "gat"}
    for label, report in rows.items():
        assert set(report.stats) == {"ATT", "TP", "Reward", "Queue", "Delay"}
        assert report.per_seed[0].alpha_trace  # per-method alpha traces logged
    standalone = run_one(replace(cfg, algorithm="gat", head="logits"))
    assert seed_trace(rows["gat"]) == seed_trace(standalone)


def test_seventy_default_episodes_of_pretraining_are_pinned():
    # SHA-256 of the Q params, the target params and the (return, TD loss,
    # epsilon) curve after 70 episodes of the default config at seed 1, the
    # one byte check that reaches 16 target syncs and Adam's subnormal regime:
    # without the flush, 878 of adam.m's entries are subnormal by the end.
    # Changes only with a documented change to training's arithmetic or
    # draws (or to the BLAS kernel numpy runs on).
    cfg = ExperimentConfig()
    state = protocols.pretrain(cfg, 1, _demands(cfg)[0], 70)
    agent = state.agent
    assert agent.learn_steps == 8337
    h = hashlib.sha256(agent.q_model.params.tobytes())
    h.update(agent.target_model.params.tobytes())
    h.update(np.array([(r.return_, r.mean_td_loss, r.epsilon) for r in state.curve]).tobytes())
    assert h.hexdigest() == "3ef7f3d12f32bdf05eb5b82e646852210667cd13045c30e9bc4deec3b0154e0d"
