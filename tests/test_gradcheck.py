import importlib

import numpy as np
import pytest

from ugatlab.numnet import MlpModel, MlpSpec, cce_loss, edl_loss, gradcheck, init_model, mse_loss


def test_linear_mse_is_near_exact():
    model = init_model(MlpSpec(layer_sizes=(3, 2)), np.random.default_rng(1))
    target = np.array([[0.5, -0.5]])
    result = gradcheck(model, lambda y: mse_loss(y, target), np.array([[1.0, 2.0, -0.5]]))
    assert result.max_rel_error < 1e-8
    assert result.passed


def test_two_hidden_relu_net_within_tolerance():
    model = init_model(MlpSpec(layer_sizes=(4, 8, 8, 1)), np.random.default_rng(2))
    target = np.array([[0.3]])
    x = np.random.default_rng(3).normal(size=(1, 4))
    result = gradcheck(model, lambda y: mse_loss(y, target), x, tolerance=1e-4)
    assert result.passed, f"max rel error {result.max_rel_error}"


def test_corrupted_gradient_is_detected():
    model = init_model(MlpSpec(layer_sizes=(3, 4, 2)), np.random.default_rng(5))
    target = np.array([[1.0, -1.0]])

    def skewed(y):
        loss, grad = mse_loss(y, target)
        return loss, 1.05 * grad  # inconsistent with the reported loss

    result = gradcheck(model, skewed, np.array([[0.5, 1.5, -1.0]]), tolerance=1e-4)
    assert not result.passed
    assert result.max_rel_error > result.tolerance


def test_cce_and_edl_heads_pass_on_random_models():
    rng = np.random.default_rng(7)
    for _ in range(3):
        x = rng.normal(size=(1, 5))
        t = int(rng.integers(4))

        logits_model = init_model(MlpSpec(layer_sizes=(5, 6, 4)), rng)
        res = gradcheck(logits_model, lambda y: cce_loss(y, t), x, tolerance=1e-4)
        assert res.passed, f"cce: {res.max_rel_error}"

        edl_model = init_model(
            MlpSpec(layer_sizes=(5, 6, 4), output_activation="relu"), rng
        )
        res = gradcheck(edl_model, lambda y: edl_loss(y, t, anneal=0.5), x, tolerance=1e-4)
        assert res.passed, f"edl: {res.max_rel_error}"


def dead_relu_edl_model():
    # every hidden relu is dead for x = 1, so each relu output's pre-activation
    # is its zero bias: exactly on the output relu's kink
    spec = MlpSpec(layer_sizes=(3, 4, 2), output_activation="relu")
    weights = [np.full((4, 3), -0.5), np.full((2, 4), 0.3)]
    return MlpModel(spec=spec, weights=weights, biases=[np.zeros(4), np.zeros(2)])


def test_coordinates_straddling_a_relu_kink_are_skipped():
    model = dead_relu_edl_model()
    result = gradcheck(model, lambda y: edl_loss(y, 1, anneal=0.5), np.ones((1, 3)))
    assert result.skipped == 2  # the two output biases, whose +-step turns their relu on and off
    assert result.passed, f"max rel error {result.max_rel_error}"


def test_a_wrong_backward_still_fails_beside_skipped_kinks(monkeypatch):
    module = importlib.import_module("ugatlab.numnet.gradcheck")
    right = module.backward

    def wrong(model, cache, loss_grad):
        return right(model, cache, loss_grad) + 1e-3

    monkeypatch.setattr(module, "backward", wrong)
    result = gradcheck(dead_relu_edl_model(), lambda y: edl_loss(y, 1, anneal=0.5), np.ones((1, 3)))
    assert result.skipped == 2
    assert not result.passed


@pytest.mark.parametrize("i", [0, 13, 25])  # the first weight, a W1 weight, the last bias
def test_worst_names_the_one_wrong_coordinate(monkeypatch, i):
    # worst indexes model.params, so it names the right coordinate only while
    # backward's result is laid out like params
    module = importlib.import_module("ugatlab.numnet.gradcheck")
    right = module.backward

    def wrong(model, cache, loss_grad):
        grad = right(model, cache, loss_grad)
        grad[i] += 1e-3
        return grad

    monkeypatch.setattr(module, "backward", wrong)
    model = init_model(MlpSpec(layer_sizes=(3, 4, 2)), np.random.default_rng(5))  # 26 parameters
    target = np.array([[1.0, -1.0]])
    result = gradcheck(model, lambda y: mse_loss(y, target), np.array([[0.5, 1.5, -1.0]]))
    assert result.skipped == 0
    assert result.worst == i
    assert not result.passed
