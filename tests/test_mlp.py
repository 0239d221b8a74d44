import pickle

import numpy as np
import pytest

from ugatlab.numnet import (
    CacheError,
    MlpModel,
    MlpSpec,
    ShapeError,
    backward,
    clone_model,
    forward,
    init_model,
    load_model,
    model_from_dict,
    model_to_dict,
    mse_loss,
    save_model,
    softmax,
)


def make_model(sizes, seed=0, **spec_kw):
    spec = MlpSpec(layer_sizes=tuple(sizes), **spec_kw)
    return init_model(spec, np.random.default_rng(seed))


def test_zero_weight_model_outputs_zero():
    model = make_model([3, 4, 2])
    for w in model.weights:
        w[:] = 0.0
    out, _ = forward(model, np.array([1.0, -2.0, 3.0]))
    assert np.all(out == 0.0)


def test_identity_single_layer_passes_input_through():
    spec = MlpSpec(layer_sizes=(3, 3))
    model = MlpModel(spec=spec, weights=[np.eye(3)], biases=[np.zeros(3)])
    x = np.array([0.5, -1.5, 2.0])
    out, _ = forward(model, x)
    assert np.array_equal(out, x)


def scalar_forward(model, x):
    # brute-force layer-by-layer arithmetic, no numpy matmul
    a = list(x)
    last = len(model.weights) - 1
    for l, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = []
        for i in range(w.shape[0]):
            acc = float(b[i])
            for j in range(w.shape[1]):
                acc += float(w[i, j]) * a[j]
            z.append(acc)
        if l == last:
            a = z
        else:
            a = [max(v, 0.0) for v in z]
    return np.array(a)


def test_forward_matches_scalar_trace_232():
    model = make_model([2, 3, 2], seed=7)
    x = np.array([1.0, 1.0])
    out, _ = forward(model, x)
    np.testing.assert_allclose(out, scalar_forward(model, x), rtol=0, atol=1e-12)


def test_forward_rejects_bad_input_width():
    model = make_model([3, 2])
    with pytest.raises(ShapeError):
        forward(model, np.zeros(4))


def test_batch_forward_matches_per_row():
    # GEMM and GEMV accumulate in different orders; agreement is to rounding
    model = make_model([4, 6, 3], seed=1)
    xs = np.random.default_rng(2).normal(size=(5, 4))
    batch, _ = forward(model, xs)
    for i in range(5):
        row, _ = forward(model, xs[i])
        np.testing.assert_allclose(batch[i], row, rtol=1e-12, atol=1e-14)


def test_dropout_train_mode_expectation_matches_infer():
    # one hidden unit, 1e5 seeded train-mode samples in a single batched call
    spec = MlpSpec(layer_sizes=(1, 1, 1), dropout_rate=0.3)
    model = MlpModel(
        spec=spec,
        weights=[np.array([[2.0]]), np.array([[1.5]])],
        biases=[np.array([0.5]), np.array([0.0])],
    )
    x = np.ones((100_000, 1))
    infer, _ = forward(model, np.ones(1))
    train, _ = forward(model, x, np.random.default_rng(11))
    assert abs(train.mean() - infer[0]) / abs(infer[0]) < 0.01


def test_infer_mode_dropout_is_identity_unless_forced():
    spec = MlpSpec(layer_sizes=(2, 8, 2), dropout_rate=0.5)
    model = init_model(spec, np.random.default_rng(3))
    x = np.array([1.0, -1.0])
    a, _ = forward(model, x)
    b, _ = forward(model, x)
    np.testing.assert_array_equal(a, b)
    rng = np.random.default_rng(4)
    c, _ = forward(model, x, rng)
    d, _ = forward(model, x, rng)
    assert not np.array_equal(c, d)


def test_backward_zero_loss_grad_gives_zero_gradients():
    model = make_model([3, 5, 2], seed=5)
    out, cache = forward(model, np.array([1.0, 2.0, 3.0]))
    grads = backward(model, cache, np.zeros_like(out))
    assert all(np.all(g == 0.0) for g in grads.weights)
    assert all(np.all(g == 0.0) for g in grads.biases)


def test_backward_rejects_foreign_cache():
    a = make_model([3, 2], seed=0)
    b = make_model([3, 2], seed=1)
    out, cache = forward(a, np.ones(3))
    with pytest.raises(CacheError):
        backward(b, cache, np.zeros_like(out))


def test_linear_model_mse_gradient_closed_form():
    # single linear layer, MSE: dL/dW = 2 (y_hat - y) x^T / n
    model = make_model([3, 2], seed=9)
    x = np.array([0.3, -1.2, 2.2])
    y = np.array([1.0, -1.0])
    out, cache = forward(model, x)
    loss, dloss = mse_loss(out, y)
    grads = backward(model, cache, dloss)
    expected_w = np.outer(2.0 * (out - y) / 2.0, x)
    np.testing.assert_allclose(grads.weights[0], expected_w, atol=1e-12)
    np.testing.assert_allclose(grads.biases[0], 2.0 * (out - y) / 2.0, atol=1e-12)


def test_softmax_rows_sum_to_one_and_shift_invariant():
    rng = np.random.default_rng(12)
    for _ in range(200):
        z = rng.normal(scale=5.0, size=8)
        p = softmax(z)
        assert abs(p.sum() - 1.0) < 1e-12
        np.testing.assert_allclose(p, softmax(z + 123.456), atol=1e-9)


def test_checkpoint_round_trip_is_bit_exact(tmp_path):
    model = make_model([4, 7, 3], seed=21, output_activation="softmax", dropout_rate=0.25)
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.spec == model.spec
    x = np.random.default_rng(22).normal(size=4)
    a, _ = forward(model, x)
    b, _ = forward(loaded, x)
    assert np.array_equal(a, b)


def test_checkpoint_with_another_hidden_activation_is_rejected():
    d = model_to_dict(make_model([4, 7, 3], seed=21))
    assert d["hidden_activation"] == "relu"
    d["hidden_activation"] = "tanh"
    with pytest.raises(ValueError, match="hidden activation 'tanh'"):
        model_from_dict(d)


def test_clone_is_independent():
    model = make_model([2, 2], seed=1)
    other = clone_model(model)
    other.weights[0][0, 0] += 1.0
    assert model.weights[0][0, 0] != other.weights[0][0, 0]


def test_weights_and_biases_are_views_of_params():
    model = make_model([3, 4, 2], seed=2)
    model.weights[1][0, 2] = 7.0  # W0 fills params[:12], W1 params[12:20]
    model.biases[0][3] = -5.0  # then b0 at params[20:24]
    assert model.params[14] == 7.0 and model.params[23] == -5.0
    model.params[:] = 0.0
    assert all(np.all(a == 0.0) for a in (*model.weights, *model.biases))
    given = np.eye(3)
    copied = MlpModel(spec=MlpSpec(layer_sizes=(3, 3)), weights=[given], biases=[np.zeros(3)])
    given[0, 0] = 2.0
    assert copied.weights[0][0, 0] == 1.0


def test_clone_shares_no_memory_with_its_source():
    model = make_model([3, 4, 2], seed=1)
    other = clone_model(model)
    assert np.array_equal(other.params, model.params)
    assert not np.shares_memory(other.params, model.params)
    assert all(np.shares_memory(a, other.params) for a in (*other.weights, *other.biases))


def test_unpickled_model_keeps_its_views():
    model = pickle.loads(pickle.dumps(make_model([3, 4, 2], seed=3)))
    model.params[:] = 1.0
    assert all(np.all(a == 1.0) for a in (*model.weights, *model.biases))
