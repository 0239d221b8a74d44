"""Acceptance suite: one test per criterion, one printed verdict line each.

The heavy end-to-end protocols (criteria 6-9) share one run_arms battery, a
module-scoped fixture run on one worker process per CPU: the direct-transfer
arm, the V1 grounded arms and a budget-matched control, all continuing each
seed's one pretraining. The direct arm's policies are also evaluated in V4,
and criterion 9 reads their pretraining curves. Run with -s to watch the
per-criterion lines appear.
"""

import math
import os

import numpy as np
import pytest

from ugatlab.dqn import DqnConfig, FixedCycleController
from ugatlab.experiment import ExperimentConfig, io, run_arms
from ugatlab.experiment.protocols import _demands, build_gap_report, evaluate
from ugatlab.grounding import GroundingConfig, edl_uncertainty
from ugatlab.numnet import gradcheck, random_cases
from ugatlab.sim import (
    SCENARIOS,
    IntersectionLayout,
    SimConfig,
    TrafficSim,
    generate_demand,
)

from protocol_helpers import run_one, run_scripted, seed_trace

pytestmark = pytest.mark.acceptance

SEEDS = (1, 2, 3)


def verdict(criterion: str, passed: bool, detail: str) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] {criterion}: {detail}")


# --- criterion 1: gradient correctness ------------------------------------------


def test_criterion_1_gradient_correctness():
    worst = 0.0
    cases = 0
    for model, loss, x in random_cases(np.random.default_rng(101), 34):
        result = gradcheck(model, loss, x, tolerance=1e-4)
        worst = max(worst, result.max_rel_error)
        cases += 1
    passed = worst < 1e-4
    verdict(
        "criterion 1 (gradient correctness)",
        passed,
        f"{cases} randomized MLP/loss cases, max relative error {worst:.3g} < 1e-4",
    )
    assert passed


# --- criterion 2: EDL algebra -----------------------------------------------------


def test_criterion_2_edl_algebra():
    rng = np.random.default_rng(202)
    exact = in_range = monotone = 0
    n = 10_000
    for _ in range(n):
        e = rng.uniform(0, 40, size=8) * rng.choice([0.0, 1e-3, 1.0, 10.0], size=8)
        u, b = edl_uncertainty(e)
        exact += u + math.fsum(b.tolist()) == 1.0
        in_range += 0.0 < u <= 1.0
        j = int(rng.integers(8))
        bumped = e.copy()
        bumped[j] += rng.uniform(0.25, 4.0)
        u2, _ = edl_uncertainty(bumped)
        monotone += u2 < u
    passed = exact == n and in_range == n and monotone == n
    verdict(
        "criterion 2 (EDL algebra)",
        passed,
        f"{n} vectors: closure exact {exact}/{n}, u in (0,1] {in_range}/{n}, "
        f"strict decrease {monotone}/{n}",
    )
    assert passed


# --- criterion 3: simulator soundness ----------------------------------------------


def run_sounding_episode(params_name: str, ep_seed: int) -> TrafficSim:
    demand = generate_demand(2000, 3600, seed=ep_seed)
    sim = TrafficSim(
        IntersectionLayout(), SCENARIOS[params_name], demand, SimConfig(episode_length=3600.0)
    )
    rng = np.random.default_rng(ep_seed)
    while not sim.done:
        sim.step(int(rng.integers(8)))
    return sim


def test_criterion_3_simulator_soundness():
    gap_violations = 0
    episodes = 0
    for params_name in SCENARIOS:
        for k in range(20):
            sim = run_sounding_episode(params_name, 1000 + 37 * k + episodes)
            # conservation is asserted inside the engine at every tick; a
            # RuntimeError would have propagated. Re-check the final ledger.
            active = sum(len(lane) for lane in sim.lanes)
            assert sim.spawned == active + len(sim.completed)
            gap_violations += len(sim.gap_violations)
            episodes += 1
    replays_equal = all(
        run_sounding_episode(name, 4242).state_signature()
        == run_sounding_episode(name, 4242).state_signature()
        for name in SCENARIOS
    )
    passed = gap_violations == 0 and replays_equal and episodes == 100
    verdict(
        "criterion 3 (simulator soundness)",
        passed,
        f"{episodes} episodes over 5 parameter sets: per-tick conservation held, "
        f"{gap_violations} min-gap violations, byte-exact replay {replays_equal}",
    )
    assert passed


# --- criterion 4: metrics oracle ----------------------------------------------------


def scalar_metrics_from_csvs(run_dir, env: str, episode: int, free_flow: float):
    import csv

    with open(run_dir / "trajectory.csv") as fh:
        steps = [
            r
            for r in csv.DictReader(fh)
            if r["env"] == env and int(r["episode"]) == episode
        ]
    with open(run_dir / "vehicles.csv") as fh:
        vehicles = [
            r
            for r in csv.DictReader(fh)
            if r["env"] == env and int(r["episode"]) == episode
        ]
    rewards = [float(r["reward"]) for r in steps]
    queues = [sum(int(r[f"queue{i}"]) for i in range(12)) for r in steps]
    travels = [float(v["completion_time"]) - float(v["spawn_time"]) for v in vehicles]
    att = sum(travels) / len(travels) if travels else 0.0
    delay = sum(1.0 - free_flow / t for t in travels) / len(travels) if travels else 0.0
    return {
        "ATT": att,
        "TP": float(len(travels)),
        "Reward": sum(rewards) / len(rewards),
        "Queue": sum(queues) / len(queues),
        "Delay": delay,
    }


def test_criterion_4_metrics_log_replay_oracle(tmp_path):
    cfg = ExperimentConfig(
        scenario="V1",
        algorithm="direct",
        seeds=(1,),
        direct_episodes=1,
        pretrain_episodes=0,
        eval_episodes=2,
        out_dir=str(tmp_path),
        dqn=DqnConfig(batch_size=16, state_scale=tuple([1 / 50] * 12 + [1] * 8)),
    )
    ((_, report),) = run_arms([("direct", cfg)])
    (result,) = report.per_seed
    run_dir = io.seed_dir(tmp_path, "direct", "V1", 1)

    free_flow = cfg.layout.lane_length / SCENARIOS["Default"].max_speed
    worst = 0.0
    checks = 0
    for env, eval_res in (("sim", result.sim_eval), ("real", result.real_eval)):
        for ep, record in enumerate(eval_res.episodes):
            recomputed = scalar_metrics_from_csvs(run_dir, env, ep, free_flow)
            reported = {
                "ATT": record.att,
                "TP": float(record.tp),
                "Reward": record.reward_mean,
                "Queue": record.queue_mean,
                "Delay": record.delay,
            }
            for key in reported:
                worst = max(worst, abs(reported[key] - recomputed[key]))
                checks += 1
    passed = worst < 1e-9
    verdict(
        "criterion 4 (metrics oracle)",
        passed,
        f"{checks} metric values recomputed from emitted CSVs, max |diff| {worst:.2e} < 1e-9",
    )
    assert passed


# --- criterion 5: Algorithm-1 fidelity with mocked models -----------------------------


def mock_cfg(**kw):
    base = dict(
        scenario="V1",
        algorithm="ugat",
        seeds=(1,),
        pretrain_episodes=0,
        iterations=2,
        epochs_per_iteration=2,
        steps_per_episode=3,
        rollout_episodes=1,
        eval_episodes=1,
        direct_episodes=1,
        demand_vph=600.0,
        dqn=DqnConfig(batch_size=4),
        grounding=GroundingConfig(train_epochs=1, batch_size=8),
        sim=SimConfig(episode_length=60.0),
    )
    base.update(kw)
    return ExperimentConfig(**base)


def test_criterion_5_algorithm_fidelity():
    # I=2, E=2, T=3: iteration 1 at alpha=inf accepts all six; the update sets
    # alpha = mean(six u's) = 0.5 exactly; iteration 2 rejects u >= 0.5
    # including the boundary-equal value
    cfg = mock_cfg()
    us_iter1 = [0.25, 0.75, 0.5, 0.5, 0.25, 0.75]  # mean exactly 0.5
    us_iter2 = [0.5, 0.3, 0.6, 0.49, 0.51, 0.5]
    result, grounder = run_scripted(cfg, us_iter1 + us_iter2)
    checks = {}
    per_iter = cfg.epochs_per_iteration * cfg.steps_per_episode
    checks["log length T*E per iteration"] = grounder.calls == 2 * per_iter and all(
        len(result.audit_rows[i * per_iter : (i + 1) * per_iter]) == per_iter for i in range(2)
    )
    accepted = [bool(r[6]) for r in result.audit_rows]
    checks["iteration 1 all accepted at alpha=inf"] = accepted[:6] == [True] * 6
    checks["u >= alpha rejected incl. equality"] = accepted[6:] == [
        False,
        True,
        False,
        True,
        False,
        False,
    ]
    checks["alpha update exact mean"] = result.alpha_trace[0] == (1, 0.5) and abs(
        result.alpha_trace[1][1] - np.mean(us_iter2)
    ) < 1e-12
    executed = [r[3] if r[6] else r[2] for r in result.audit_rows]
    expected_executed = [5] * 6 + [0, 5, 0, 5, 0, 0]
    checks["executed-action trace matches hand trace"] = executed == expected_executed

    # protocol equivalences as identical traces
    direct_a = run_one(mock_cfg(algorithm="direct"))
    direct_b = run_one(mock_cfg(algorithm="direct"))
    checks["direct == w/o-grounding (bitwise)"] = seed_trace(direct_a) == seed_trace(direct_b)

    gat = run_one(mock_cfg(algorithm="gat", head="logits", pretrain_episodes=1))
    pinned = run_one(
        mock_cfg(
            algorithm="ugat_static", static_alpha=math.inf, head="logits", pretrain_episodes=1
        )
    )
    checks["gat == alpha-pinned-inf ugat (bitwise)"] = seed_trace(gat) == seed_trace(pinned)

    passed = all(checks.values())
    detail = "; ".join(f"{k}: {'ok' if v else 'FAIL'}" for k, v in checks.items())
    verdict("criterion 5 (Algorithm-1 fidelity)", passed, detail)
    assert passed, detail


# --- criteria 6-8: the heavy shared protocols ---------------------------------------


def desk_cfg(**kw):
    base = dict(scenario="V1", algorithm="direct", seeds=SEEDS)
    base.update(kw)
    return ExperimentConfig(**base)


@pytest.fixture(scope="module")
def v1_battery():
    """V1 reports of one run_arms battery, one worker process per CPU.

    The arms are direct transfer, every uncertainty head, vanilla grounding,
    fixed alpha and a control: sim-only training for the grounded arms'
    budget, the pretraining plus every grounded epoch.
    """
    cfg = desk_cfg()
    budget = cfg.pretrain_episodes + cfg.iterations * cfg.epochs_per_iteration
    arms = [
        (label, desk_cfg(algorithm=algorithm, head=head, static_alpha=alpha))
        for label, algorithm, head, alpha in (
            ("edl", "ugat", "edl", None),
            ("dropout", "ugat", "dropout", None),
            ("ensemble", "ugat", "ensemble", None),
            ("gat", "gat", "logits", None),
            ("static_0.5", "ugat_static", "edl", 0.5),
        )
    ]
    arms += [("direct", desk_cfg()), ("control", desk_cfg(algorithm="direct", direct_episodes=budget))]
    return dict(run_arms(arms, jobs=os.cpu_count() or 1))


@pytest.fixture(scope="module")
def grounded_reports(v1_battery):
    """The battery's grounded arms: every arm but direct and the control, which have no audit rows."""
    return {label: report for label, report in v1_battery.items() if label not in ("direct", "control")}


@pytest.fixture(scope="module")
def direct_policies(v1_battery):
    """The battery's three Default-trained direct policies, evaluated vs V1 and V4.

    The V4 report pairs each seed's Default evaluation from the battery with
    an evaluation in V4 of the policy the battery hands back, trained once.
    """
    cfg = desk_cfg()
    _, eval_demands = _demands(cfg)
    v1 = v1_battery["direct"]
    v4 = [
        io.SeedResult(sr.seed, sr.sim_eval, evaluate(sr.agent, "V4", eval_demands, cfg.layout, cfg.sim, "real"))
        for sr in v1.per_seed
    ]
    return {"V1": v1, "V4": build_gap_report("direct", "V4", v4)}


def test_criterion_6_gap_existence(direct_policies):
    v4 = [sr.delta["ATT"] for sr in direct_policies["V4"].per_seed]
    v1 = [sr.delta["ATT"] for sr in direct_policies["V1"].per_seed]
    v4_pos = sum(1 for d in v4 if d > 0)
    v1_pos = sum(1 for d in v1 if d > 0)
    passed = v4_pos == 3 and v1_pos >= 2
    verdict(
        "criterion 6 (gap existence)",
        passed,
        f"ATT_real > ATT_sim on V4 in {v4_pos}/3 seeds {[round(d, 2) for d in v4]}, "
        f"on V1 in {v1_pos}/3 seeds {[round(d, 2) for d in v1]}",
    )
    assert passed


def test_criterion_7_gap_mitigation(direct_policies, grounded_reports):
    direct = direct_policies["V1"].stats
    ugat = grounded_reports["edl"].stats
    att_ok = ugat["ATT"].delta_mean < direct["ATT"].delta_mean
    tp_ok = ugat["TP"].delta_mean > direct["TP"].delta_mean
    passed = att_ok and tp_ok
    verdict(
        "criterion 7 (gap mitigation)",
        passed,
        f"mean ATT_gap ugat {ugat['ATT'].delta_mean:.3f} vs direct "
        f"{direct['ATT'].delta_mean:.3f} ({'ok' if att_ok else 'FAIL'}); "
        f"mean TP_gap ugat {ugat['TP'].delta_mean:.2f} vs direct "
        f"{direct['TP'].delta_mean:.2f} ({'ok' if tp_ok else 'FAIL'})",
    )
    assert passed


def test_criterion_8_head_interchangeability(direct_policies, grounded_reports):
    gat_att = grounded_reports["gat"].stats["ATT"].delta_mean
    slack = abs(gat_att) * 0.10
    heads = {}
    for head in ("edl", "dropout", "ensemble"):
        att = grounded_reports[head].stats["ATT"].delta_mean
        heads[head] = (att, att <= gat_att + slack)
    passed = all(ok for _, ok in heads.values())
    detail = ", ".join(f"{h} ATT_gap {att:.3f} ({'ok' if ok else 'FAIL'})" for h, (att, ok) in heads.items())
    verdict(
        "criterion 8 (uncertainty-head interchangeability)",
        passed,
        f"vanilla grounding ATT_gap {gat_att:.3f} (+10% slack {slack:.3f}); {detail}",
    )

    # soft, non-blocking: the published full ordering ugat < static < gat < direct
    ordering = [
        ("ugat", grounded_reports["edl"].stats["ATT"].delta_mean),
        ("static_0.5", grounded_reports["static_0.5"].stats["ATT"].delta_mean),
        ("gat", gat_att),
        ("direct", direct_policies["V1"].stats["ATT"].delta_mean),
    ]
    sorted_ok = all(a[1] <= b[1] for a, b in zip(ordering, ordering[1:]))
    print(
        "[SOFT] ablation ATT_gap ordering "
        + " <= ".join(f"{name} {val:.3f}" for name, val in ordering)
        + f" -> {'reproduced' if sorted_ok else 'not reproduced (non-blocking at desk scale)'}"
    )
    assert passed


def test_grounding_activity_by_iteration(grounded_reports):
    """Not a criterion: how much each grounded arm's grounding does, iteration by iteration.

    Per iteration, pooled over the seeds' audit rows: the share of steps whose
    grounded action differs from the policy's, then the share the gate accepted.
    """
    cfg = desk_cfg()
    per_iter = cfg.epochs_per_iteration * cfg.steps_per_episode
    for label, report in grounded_reports.items():
        audits = [sr.audit_rows for sr in report.per_seed]
        assert all(len(rows) == cfg.iterations * per_iter for rows in audits)
        cells = []
        for i in range(cfg.iterations):
            window = [r for rows in audits for r in rows[i * per_iter : (i + 1) * per_iter]]
            changed = sum(r[2] != r[3] for r in window) / len(window)
            accepted = sum(bool(r[6]) for r in window) / len(window)
            cells.append(f"{i + 1} {changed:.2f}/{accepted:.2f}")
        print(
            f"[INFO] {label} per iteration, grounded != policy / accepted over "
            f"{len(audits)} seeds: " + ", ".join(cells)
        )


def test_paired_arm_comparisons(direct_policies, grounded_reports):
    """Not a criterion: the soft ordering's adjacent pairs, seed by seed.

    The arms of a seed share its start, demands and evaluation schedules, so
    a per-seed difference of ATT gaps isolates what grounding did for that
    seed. Per pair: the differences left - right, their mean and sample std,
    and how many seeds favour the left arm (a smaller gap).
    """
    arms = [
        ("ugat", grounded_reports["edl"]),
        ("static_0.5", grounded_reports["static_0.5"]),
        ("gat", grounded_reports["gat"]),
        ("direct", direct_policies["V1"]),
    ]
    for (left, a), (right, b) in zip(arms, arms[1:]):
        print_paired(left, a, right, b)


def print_paired(left, a, right, b):
    """Per-seed ATT gap differences left - right, their mean and sample std, and left's wins."""
    assert a.seeds == b.seeds == SEEDS
    diffs = np.array([x.delta["ATT"] - y.delta["ATT"] for x, y in zip(a.per_seed, b.per_seed)])
    favour = int((diffs < 0).sum())
    print(
        f"[INFO] paired ATT_gap {left} - {right} on seeds {list(SEEDS)}: "
        f"[{', '.join(f'{d:.3f}' for d in diffs)}], mean {diffs.mean():.3f}, "
        f"sample std {diffs.std(ddof=1):.3f}, {left} smaller on {favour}/{len(diffs)} seeds"
    )


def test_paired_against_the_budget_matched_control(v1_battery, grounded_reports):
    """Not a criterion: each grounded arm against sim-only training for the same episodes.

    The control continues its seed's pretraining in the sim twin for as many
    episodes as a grounded arm trains, so a paired difference isolates what
    grounding did, budget for budget. Criterion 7's direct arm trains longer.
    """
    control = v1_battery["control"]
    for c, e in zip(control.per_seed, grounded_reports["edl"].per_seed):
        assert len(c.training_curve) == len(e.training_curve)
    gaps = np.array([sr.delta["ATT"] for sr in control.per_seed])
    print(
        f"[INFO] control ATT_gap ({len(control.per_seed[0].training_curve)} sim episodes) on seeds "
        f"{list(SEEDS)}: [{', '.join(f'{g:.3f}' for g in gaps)}], mean {gaps.mean():.3f}"
    )
    for label, report in grounded_reports.items():
        print_paired(label, report, "control", control)


# --- criterion 9: DQN sanity ----------------------------------------------------------


def test_criterion_9_dqn_beats_fixed_cycle(v1_battery):
    cfg = desk_cfg()
    train_demand, _ = _demands(cfg)
    env = TrafficSim(cfg.layout, SCENARIOS["Default"], train_demand, cfg.training_sim)

    cycle = FixedCycleController(dwell=3)
    env.reset()
    cycle_return = 0.0
    done = False
    while not done:
        _, r, done = env.step(cycle.act())
        cycle_return += r

    # the pretraining is 100 training episodes in this environment, from each seed's streams
    wins = []
    for sr in v1_battery["direct"].per_seed:
        result = sr.training_curve[: cfg.pretrain_episodes]
        assert len(result) == 100
        final10 = float(np.mean([r.return_ for r in result[-10:]]))
        wins.append((final10, final10 > cycle_return))
    passed = all(ok for _, ok in wins)
    verdict(
        "criterion 9 (DQN sanity)",
        passed,
        f"fixed-cycle return {cycle_return:.0f}; final-10 means "
        + ", ".join(f"{v:.0f} ({'ok' if ok else 'FAIL'})" for v, ok in wins),
    )
    assert passed
