import copy
import math
from dataclasses import replace

import numpy as np
import pytest

from ugatlab.dqn import Transition
from ugatlab.experiment import ExperimentConfig
from ugatlab.experiment.protocols import Grounder
from ugatlab.grounding import (
    ForwardModel,
    GroundingConfig,
    InverseModel,
    UncertainAction,
    UntrainedModelError,
    _entropy_uncertainty,
    edl_uncertainty,
    gate,
    ground,
    head_uncertainty,
    normalize_state,
    train_forward,
    train_inverse,
)
from ugatlab.numnet import forward, softmax

CFG = GroundingConfig(train_epochs=5, batch_size=32)


def fit_cfg(epochs, batch):
    """CFG with the epochs and minibatch size a fit reads off its model's config."""
    return replace(CFG, train_epochs=epochs, batch_size=batch)


def make_state(counts, phase):
    s = np.zeros(20)
    s[:12] = counts
    s[12 + phase] = 1.0
    return s


def random_transitions(n, rng, action_rule=None):
    out = []
    for _ in range(n):
        a = int(rng.integers(8))
        s = make_state(rng.integers(0, 30, size=12), int(rng.integers(8)))
        s2 = make_state(rng.integers(0, 30, size=12), a if action_rule is None else a)
        out.append(Transition(s, a, -1.0, s2, False))
    return out


# --- EDL algebra -------------------------------------------------------------


def test_edl_uncertainty_trivial_cases():
    u, b = edl_uncertainty(np.zeros(8))
    assert u == 1.0
    assert np.all(b == 0.0)

    u, b = edl_uncertainty(np.ones(8))
    assert u == 0.5
    np.testing.assert_allclose(b, np.full(8, 1 / 16))

    u, b = edl_uncertainty(np.array([7.0, 0, 0, 0, 0, 0, 0, 0]))
    assert u == pytest.approx(8 / 15, abs=1e-15)
    assert b[0] == pytest.approx(7 / 15, abs=1e-15)


def test_edl_closure_exact_and_u_decreases_with_evidence():
    rng = np.random.default_rng(2)
    for _ in range(2000):
        e = rng.uniform(0, 50, size=8) * rng.choice([0.0, 1e-3, 1.0, 20.0], size=8)
        u, b = edl_uncertainty(e)
        assert 0.0 < u <= 1.0
        assert u + math.fsum(b.tolist()) == 1.0
        j = int(rng.integers(8))
        bumped = e.copy()
        bumped[j] += rng.uniform(0.25, 5.0)
        u2, _ = edl_uncertainty(bumped)
        assert u2 < u


def test_edl_uncertainty_rejects_negative():
    with pytest.raises(ValueError):
        edl_uncertainty(np.array([1.0, -0.5, 0, 0, 0, 0, 0, 0]))


# --- gate / alpha -------------------------------------------------------------


def test_gate_accepts_everything_at_infinite_alpha():
    executed, accepted = gate(3, UncertainAction(5, 0.99), math.inf)
    assert (executed, accepted) == (5, True)


def test_gate_rejects_everything_at_zero_alpha():
    executed, accepted = gate(3, UncertainAction(5, 0.4), 0.0)
    assert (executed, accepted) == (3, False)


def test_gate_rejects_on_equality():
    executed, accepted = gate(1, UncertainAction(6, 0.4), 0.4)
    assert (executed, accepted) == (1, False)
    executed, accepted = gate(1, UncertainAction(6, 0.39999), 0.4)
    assert (executed, accepted) == (6, True)


# --- heads ----------------------------------------------------------------------


def test_dropout_rate_zero_collapses_to_single_softmax_entropy():
    cfg = GroundingConfig(dropout_rate=0.0)
    im = InverseModel(cfg, "dropout", np.random.default_rng(0))
    im.trained_epochs = 1
    x = np.random.default_rng(1).normal(size=40)
    a, u = head_uncertainty(im, x, np.random.default_rng(2))
    logits, _ = forward(im.members[0], x[None])
    p = softmax(logits[0])
    expected_u = float(-(p * np.log(p)).sum() / math.log(8))
    assert a == int(np.argmax(p))
    assert u == pytest.approx(expected_u, abs=1e-12)


def test_unanimous_onehot_ensemble_has_near_zero_uncertainty():
    cfg = GroundingConfig(ensemble_size=3)
    im = InverseModel(cfg, "ensemble", np.random.default_rng(0))
    for m in im.members:
        for w in m.weights:
            w[:] = 0.0
        for b in m.biases:
            b[:] = 0.0
        m.biases[-1][2] = 60.0  # all members certain of class 2
    a, u = head_uncertainty(im, np.zeros(40))
    assert a == 2
    assert u < 1e-20


def test_identical_ensemble_members_match_entropy_oracle():
    cfg = GroundingConfig(ensemble_size=3)
    rng = np.random.default_rng(5)
    im = InverseModel(cfg, "ensemble", rng)
    source = im.members[0]
    for m in im.members[1:]:
        for wd, ws in zip(m.weights, source.weights):
            wd[:] = ws
        for bd, bs in zip(m.biases, source.biases):
            bd[:] = bs
    x = rng.normal(size=40)
    a, u = head_uncertainty(im, x)
    logits, _ = forward(source, x[None])
    p = softmax(logits[0])
    expected = -sum(pi * math.log(pi) for pi in p if pi > 0) / math.log(8)
    assert u == pytest.approx(expected, abs=1e-12)
    assert a == int(np.argmax(p))


def test_dropout_head_matches_scalar_mean_softmax_entropy():
    cfg = GroundingConfig(dropout_passes=10, dropout_rate=0.3)
    im = InverseModel(cfg, "dropout", np.random.default_rng(7))
    x = np.random.default_rng(8).normal(size=40)
    a, u = head_uncertainty(im, x, np.random.default_rng(99))
    # recompute with an identically seeded stream
    rng = np.random.default_rng(99)
    probs = []
    for _ in range(10):
        out, _ = forward(im.members[0], x[None], rng)
        probs.append(softmax(out[0]))
    mean_p = np.mean(probs, axis=0)
    expected = -sum(p * math.log(p) for p in mean_p if p > 0) / math.log(8)
    assert u == pytest.approx(expected, abs=1e-12)
    assert a == int(np.argmax(mean_p))


@pytest.mark.parametrize("passes, rate", [(2, 0.1), (10, 0.1), (400, 0.1), (10, 0.0)])
def test_dropout_head_equals_per_pass_forwards_bit_for_bit(passes, rate):
    # the stacked passes must give the bytes, and leave the stream where, M
    # one-row forward() calls do; a batched (M, h) product would not
    cfg = GroundingConfig(dropout_passes=passes, dropout_rate=rate)
    im = InverseModel(cfg, "dropout", np.random.default_rng(3))
    rng, ref_rng = np.random.default_rng(11), np.random.default_rng(11)
    for x in np.random.default_rng(4).normal(size=(5, 40)):
        a, u = head_uncertainty(im, x, rng)
        mean_p = np.mean([softmax(forward(im.members[0], x[None], ref_rng)[0][0]) for _ in range(passes)], axis=0)
        assert a == int(np.argmax(mean_p))
        assert u == _entropy_uncertainty(mean_p)
        assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_edl_head_zero_evidence_ties_to_action_zero():
    cfg = GroundingConfig()
    im = InverseModel(cfg, "edl", np.random.default_rng(0))
    for w in im.members[0].weights:
        w[:] = 0.0
    for b in im.members[0].biases:
        b[:] = 0.0
    a, u = head_uncertainty(im, np.zeros(40))
    assert (a, u) == (0, 1.0)


def test_head_passes_require_minimums():
    with pytest.raises(ValueError):
        GroundingConfig(dropout_passes=1)
    with pytest.raises(ValueError):
        GroundingConfig(ensemble_size=1)


def test_uniform_softmax_gives_unit_uncertainty():
    cfg = GroundingConfig()
    im = InverseModel(cfg, "logits", np.random.default_rng(0))
    for w in im.members[0].weights:
        w[:] = 0.0
    for b in im.members[0].biases:
        b[:] = 0.0
    _, u = head_uncertainty(im, np.zeros(40))
    assert u == pytest.approx(1.0, abs=1e-12)


def test_logit_head_argmax_invariant_to_positive_rescaling():
    cfg = GroundingConfig()
    im = InverseModel(cfg, "logits", np.random.default_rng(3))
    rng = np.random.default_rng(4)
    for _ in range(20):
        x = rng.normal(size=40)
        a_before, _ = head_uncertainty(im, x)
        im.members[0].weights[-1] *= 3.0
        im.members[0].biases[-1] *= 3.0
        a_after, _ = head_uncertainty(im, x)
        im.members[0].weights[-1] /= 3.0
        im.members[0].biases[-1] /= 3.0
        assert a_before == a_after


# --- training -------------------------------------------------------------------


def test_train_forward_memorizes_a_single_pattern():
    rng = np.random.default_rng(11)
    s = make_state(np.arange(12), 0)
    s2 = make_state(np.arange(12)[::-1], 3)
    data = [Transition(s, 3, -1.0, s2, False)] * 64
    fm = ForwardModel(fit_cfg(300, 32), rng)
    trace = train_forward(fm, data, rng)
    assert trace[-1] < 1e-4
    predicted = fm.predict_next_norm(s, 3)
    np.testing.assert_allclose(predicted, normalize_state(s2, CFG.count_scale), atol=0.02)


def denormalize(s_norm):
    raw = s_norm.copy()
    raw[:12] *= CFG.count_scale
    return raw


def test_train_forward_learns_linear_dynamics_better_than_variance():
    # synthetic linear system in normalized space: s' = A s + B[:, a]
    rng = np.random.default_rng(13)
    amat = rng.normal(scale=0.1, size=(20, 20))
    bmat = rng.normal(scale=0.3, size=(20, 8))
    data = []
    for _ in range(400):
        s_norm = rng.uniform(0, 1, size=20)
        a = int(rng.integers(8))
        s_next_norm = amat @ s_norm + bmat[:, a]
        data.append(Transition(denormalize(s_norm), a, 0.0, denormalize(s_next_norm), False))
    held = data[300:]
    fm = ForwardModel(fit_cfg(200, 64), rng)
    train_forward(fm, data[:300], rng)
    errs, var_ref = [], []
    targets = np.stack([normalize_state(t.next_state, CFG.count_scale) for t in held])
    mean_target = targets.mean(axis=0)
    for t, y in zip(held, targets):
        pred = fm.predict_next_norm(t.state, t.action)
        errs.append(float(np.mean((pred - y) ** 2)))
        var_ref.append(float(np.mean((y - mean_target) ** 2)))
    assert np.mean(errs) * 10.0 <= np.mean(var_ref)


def test_train_forward_loss_trace_nonincreasing_within_jitter():
    rng = np.random.default_rng(17)
    data = random_transitions(200, rng)
    fm = ForwardModel(fit_cfg(30, 32), rng)
    trace = train_forward(fm, data, rng)
    for prev, cur in zip(trace, trace[1:]):
        assert cur <= prev * 1.05


@pytest.mark.parametrize("head", ["edl", "dropout", "ensemble"])
def test_training_continues_from_a_deepcopy_like_the_original(head):
    # the original and a deepcopy continue epoch by epoch in turn, through
    # the workspaces every model of their architecture shares, and both
    # end with the bytes of a copy that ran its epochs in one call; 100
    # transitions make three full minibatches of 32 and one of 4. Each fit
    # runs the epochs its model's config names
    data = random_transitions(100, np.random.default_rng(41))
    cfg = fit_cfg(2, 32)
    fm, im = ForwardModel(cfg, np.random.default_rng(42)), InverseModel(cfg, head, np.random.default_rng(43))
    train_forward(fm, data, np.random.default_rng(44))
    train_inverse(im, data, np.random.default_rng(45))
    pairs = [(fm, im), copy.deepcopy((fm, im)), copy.deepcopy((fm, im))]
    for (f, i), epochs in zip(pairs, (1, 1, 3)):
        f.config = i.config = fit_cfg(epochs, 32)
    rngs = [(np.random.default_rng(46), np.random.default_rng(47)) for _ in pairs]
    traces = [([], []) for _ in pairs]
    for _ in range(3):
        for (f, i), (rf, ri), (tf, ti) in zip(pairs[:2], rngs, traces):
            tf += train_forward(f, data, rf)
            ti += train_inverse(i, data, ri)
    (f, i), (rf, ri) = pairs[2], rngs[2]
    traces[2] = (train_forward(f, data, rf), train_inverse(i, data, ri))
    assert traces[0] == traces[1] == traces[2]
    for f, i in pairs[1:]:
        for model, want in zip((*f.members, *i.members), (*fm.members, *im.members)):
            assert model.params.tobytes() == want.params.tobytes()
            assert not np.shares_memory(model.params, want.params)
        for adam, want in zip((*f.adams, *i.adams), (*fm.adams, *im.adams)):
            assert (adam.m.tobytes(), adam.v.tobytes()) == (want.m.tobytes(), want.v.tobytes())


@pytest.mark.parametrize("head", ["edl", "dropout", "ensemble", "logits"])
def test_grounder_fit_runs_the_epochs_and_minibatches_its_config_names(head):
    # 100 transitions at batch_size 32 make four minibatches an epoch, so
    # three epochs take twelve Adam steps in every member of both models
    cfg = ExperimentConfig(head=head, grounding=GroundingConfig(train_epochs=3, batch_size=32))
    grounder = Grounder(cfg, np.random.default_rng(0), np.random.default_rng(1))
    data = random_transitions(100, np.random.default_rng(2))
    grounder.fit(data, data, np.random.default_rng(3))
    fm, im = grounder.forward_model, grounder.inverse_model
    assert (fm.trained_epochs, im.trained_epochs) == (3, 3)
    assert len(im.adams) == (CFG.ensemble_size if head == "ensemble" else 1)
    assert [adam.step for adam in (*fm.adams, *im.adams)] == [12] * (1 + len(im.adams))


def test_train_forward_empty_dataset_raises():
    fm = ForwardModel(CFG, np.random.default_rng(0))
    with pytest.raises(ValueError):
        train_forward(fm, [], np.random.default_rng(0))


def synthetic_phase_coded_transitions(n, rng):
    # executing action k deterministically sets phase bits of s' to onehot(k)
    out = []
    for _ in range(n):
        a = int(rng.integers(8))
        s = make_state(rng.integers(0, 30, size=12), int(rng.integers(8)))
        s2 = make_state(rng.integers(0, 30, size=12), a)
        out.append(Transition(s, a, -1.0, s2, False))
    return out


@pytest.mark.parametrize("head", ["edl", "dropout", "ensemble", "logits"])
def test_train_inverse_reaches_99_percent_on_separable_data(head):
    rng = np.random.default_rng(23)
    data = synthetic_phase_coded_transitions(600, rng)
    im = InverseModel(fit_cfg(40, 64), head, rng)
    train_inverse(im, data[:500], rng)
    correct = 0
    for t in data[500:]:
        x = np.concatenate(
            [
                normalize_state(t.next_state, CFG.count_scale),
                normalize_state(t.state, CFG.count_scale),
            ]
        )
        a_hat, _ = head_uncertainty(im, x, rng)
        correct += a_hat == t.action
    assert correct / 100 >= 0.99


def test_train_inverse_single_class_uncertainty_decreases():
    rng = np.random.default_rng(29)
    data = [t for t in synthetic_phase_coded_transitions(400, rng) if True]
    data = [Transition(t.state, 4, t.reward, make_state(t.next_state[:12], 4), False) for t in data]
    im = InverseModel(fit_cfg(5, 64), "edl", rng)
    probe = np.concatenate(
        [
            normalize_state(data[0].next_state, CFG.count_scale),
            normalize_state(data[0].state, CFG.count_scale),
        ]
    )
    uncertainties = []
    for _ in range(4):
        train_inverse(im, data, rng)
        a_hat, u = head_uncertainty(im, probe, rng)
        uncertainties.append(u)
    assert a_hat == 4
    assert uncertainties[-1] < uncertainties[0]
    assert uncertainties[-1] < 0.5


def test_train_inverse_empty_dataset_raises():
    im = InverseModel(CFG, "edl", np.random.default_rng(0))
    with pytest.raises(ValueError):
        train_inverse(im, [], np.random.default_rng(0))


# --- ground -----------------------------------------------------------------------


def test_ground_requires_trained_models():
    rng = np.random.default_rng(31)
    fm = ForwardModel(CFG, rng)
    im = InverseModel(CFG, "edl", rng)
    with pytest.raises(UntrainedModelError):
        ground(make_state(np.zeros(12), 0), 2, fm, im)


def test_ground_recovers_action_with_exact_stub_models():
    # forward stub = true phase-coded dynamics, inverse stub = exact decoder:
    # grounding must return the original action for every (s, a)
    rng = np.random.default_rng(37)
    fm = ForwardModel(fit_cfg(60, 64), rng)
    im = InverseModel(fit_cfg(60, 64), "edl", rng)
    data = synthetic_phase_coded_transitions(800, rng)
    train_forward(fm, data, rng)
    train_inverse(im, data, rng)
    agree = 0
    for t in data[:100]:
        ua = ground(t.state, t.action, fm, im, rng)
        agree += ua.action == t.action
        assert 0.0 < ua.uncertainty <= 1.0
    assert agree >= 97
