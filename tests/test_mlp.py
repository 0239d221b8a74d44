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
    mse_loss,
    softmax,
    workspace,
)
from ugatlab.numnet.mlp import split


def make_model(sizes, seed=0, **spec_kw):
    spec = MlpSpec(layer_sizes=tuple(sizes), **spec_kw)
    return init_model(spec, np.random.default_rng(seed))


def test_zero_weight_model_outputs_zero():
    model = make_model([3, 4, 2])
    for w in model.weights:
        w[:] = 0.0
    out, _ = forward(model, np.array([[1.0, -2.0, 3.0]]))
    assert out.shape == (1, 2) and np.all(out == 0.0)


def test_identity_single_layer_passes_input_through():
    spec = MlpSpec(layer_sizes=(3, 3))
    model = MlpModel(spec=spec, weights=[np.eye(3)], biases=[np.zeros(3)])
    x = np.array([[0.5, -1.5, 2.0]])
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
    x = np.array([[1.0, 1.0]])
    out, _ = forward(model, x)
    np.testing.assert_allclose(out[0], scalar_forward(model, x[0]), rtol=0, atol=1e-12)


@pytest.mark.parametrize("activation", ["softmax", "tanh"])
def test_spec_rejects_an_output_activation_other_than_identity_or_relu(activation):
    with pytest.raises(ValueError, match="unknown output activation"):
        MlpSpec(layer_sizes=(3, 2), output_activation=activation)


@pytest.mark.parametrize("shape", [(1, 4), (3,)], ids=["bad_width", "vector"])
def test_forward_rejects_anything_but_an_n_by_d_batch(shape):
    model = make_model([3, 2])
    with pytest.raises(ShapeError) as err:
        forward(model, np.zeros(shape))
    assert str(err.value) == f"input must be an (n, d) batch with d = 3, got shape {shape}"


def test_backward_rejects_a_vector_loss_grad_naming_the_batch_shape():
    model = make_model([3, 2])
    _, cache = forward(model, np.zeros((1, 3)))
    with pytest.raises(ShapeError, match=r"loss_grad must be an \(n, d\) batch, got shape \(2,\)"):
        backward(cache, np.zeros(2))


def test_batch_forward_matches_per_row():
    # a one-row and a five-row product accumulate in different orders, so
    # each row of the batch agrees with its one-row batch to rounding
    model = make_model([4, 6, 3], seed=1)
    xs = np.random.default_rng(2).normal(size=(5, 4))
    batch, _ = forward(model, xs)
    for i in range(5):
        row, _ = forward(model, xs[i : i + 1])
        assert row.shape == (1, 3)
        np.testing.assert_allclose(batch[i], row[0], rtol=1e-12, atol=1e-14)


def test_dropout_train_mode_expectation_matches_infer():
    # one hidden unit, 1e5 seeded train-mode samples in a single batched call
    spec = MlpSpec(layer_sizes=(1, 1, 1), dropout_rate=0.3)
    model = MlpModel(
        spec=spec,
        weights=[np.array([[2.0]]), np.array([[1.5]])],
        biases=[np.array([0.5]), np.array([0.0])],
    )
    x = np.ones((100_000, 1))
    infer, _ = forward(model, np.ones((1, 1)))
    train, _ = forward(model, x, np.random.default_rng(11))
    assert abs(train.mean() - infer[0, 0]) / abs(infer[0, 0]) < 0.01


def test_infer_mode_dropout_is_identity_unless_forced():
    spec = MlpSpec(layer_sizes=(2, 8, 2), dropout_rate=0.5)
    model = init_model(spec, np.random.default_rng(3))
    x = np.array([[1.0, -1.0]])
    a, _ = forward(model, x)
    b, _ = forward(model, x)
    np.testing.assert_array_equal(a, b)
    rng = np.random.default_rng(4)
    c, _ = forward(model, x, rng)
    d, _ = forward(model, x, rng)
    assert not np.array_equal(c, d)


def test_backward_zero_loss_grad_gives_zero_gradients():
    model = make_model([3, 5, 2], seed=5)
    out, cache = forward(model, np.array([[1.0, 2.0, 3.0]]))
    grad = backward(cache, np.zeros_like(out))
    assert grad.shape == model.params.shape and np.all(grad == 0.0)


def test_linear_model_mse_gradient_closed_form():
    # single linear layer, MSE: dL/dW = 2 (y_hat - y) x^T / n
    model = make_model([3, 2], seed=9)
    x = np.array([[0.3, -1.2, 2.2]])
    y = np.array([[1.0, -1.0]])
    out, cache = forward(model, x)
    loss, dloss = mse_loss(out, y)
    grads_w, grads_b = split(backward(cache, dloss), model.spec.layer_sizes)
    expected_w = np.outer(2.0 * (out[0] - y[0]) / 2.0, x[0])
    np.testing.assert_allclose(grads_w[0], expected_w, atol=1e-12)
    np.testing.assert_allclose(grads_b[0], 2.0 * (out[0] - y[0]) / 2.0, atol=1e-12)


def test_softmax_rows_sum_to_one_and_shift_invariant():
    rng = np.random.default_rng(12)
    for _ in range(200):
        z = rng.normal(scale=5.0, size=8)
        p = softmax(z)
        assert abs(p.sum() - 1.0) < 1e-12
        np.testing.assert_allclose(p, softmax(z + 123.456), atol=1e-9)


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


def reference_pass(model, x, loss_grad, rng=None):
    """Forward and backward in the allocating form: a new array for every bias
    add, relu, dropout and mask, each layer's pre-activation kept, and the
    gradients concatenated at the end. Returns (output, flat gradients)."""
    a = x
    p = model.spec.dropout_rate
    relu_out = model.spec.output_activation == "relu"
    inputs, preacts, masks = [], [], []
    last = model.spec.n_layers - 1
    for l, (w, b) in enumerate(zip(model.weights, model.biases)):
        inputs.append(a)
        z = a @ w.T + b
        preacts.append(z)
        if l == last:
            a = np.maximum(z, 0.0) if relu_out else z
        else:
            a = np.maximum(z, 0.0)
            keep = rng.random(a.shape) >= p if rng is not None and p > 0.0 else None
            if keep is not None:
                a = a * keep / (1.0 - p)
            masks.append(keep)
    delta = loss_grad * (preacts[-1] > 0.0) if relu_out else loss_grad
    grads_w, grads_b = [None] * (last + 1), [None] * (last + 1)
    for l in range(last, -1, -1):
        grads_w[l] = delta.T @ inputs[l]
        grads_b[l] = delta.sum(axis=0)
        if l > 0:
            da = delta @ model.weights[l]
            if masks[l - 1] is not None:
                da = da * masks[l - 1] / (1.0 - p)
            delta = da * (preacts[l - 1] > 0.0)
    flat = np.concatenate([g.ravel() for g in (*grads_w, *grads_b)])
    return a, flat


@pytest.mark.parametrize("rows", [1, 64])
@pytest.mark.parametrize("activation", ["identity", "relu"])
@pytest.mark.parametrize("dropout", [0.0, 0.3])
def test_in_place_kernels_give_the_bytes_of_the_allocating_reference(rows, activation, dropout):
    rng = np.random.default_rng(17)
    for trial in range(20):
        model = make_model([20, 64, 64, 8], seed=trial, output_activation=activation, dropout_rate=dropout)
        x = rng.normal(size=(rows, 20))
        g = rng.normal(size=(rows, 8))
        g[rng.random(g.shape) < 0.5] = 0.0  # sparse, like the TD step's scattered gradient
        x_bytes, g_bytes = x.tobytes(), g.tobytes()
        seed = int(rng.integers(2**32))
        want_out, want_flat = reference_pass(model, x, g, np.random.default_rng(seed))
        for work in (None, workspace(model.spec.layer_sizes, rows)):
            out, cache = forward(model, x, np.random.default_rng(seed), work=work)
            assert out.tobytes() == want_out.tobytes()
            grad = backward(cache, g)
            assert grad.tobytes() == want_flat.tobytes()
            assert (grad is work.grad) if work is not None else not np.shares_memory(grad, model.params)
            assert x.tobytes() == x_bytes and g.tobytes() == g_bytes  # inputs are only read


def test_workspace_is_one_per_architecture_and_height():
    assert workspace((3, 4, 2), 5) is workspace((3, 4, 2), 5)
    assert workspace((3, 4, 2), 5) is not workspace((3, 4, 2), 6)
    with pytest.raises(ShapeError, match="workspace for 6 rows"):
        forward(make_model([3, 4, 2]), np.ones((5, 3)), work=workspace((3, 4, 2), 6))
    with pytest.raises(ShapeError, match="workspace for 5 rows of \\(3, 4, 2\\)"):
        forward(make_model([3, 5, 2]), np.ones((5, 3)), work=workspace((3, 4, 2), 5))


def test_backward_refuses_a_cache_whose_workspace_a_later_forward_reused():
    model, other = make_model([3, 4, 2], seed=2), make_model([3, 4, 2], seed=4)
    x = np.random.default_rng(3).normal(size=(5, 3))
    g = np.ones((5, 2))
    work = workspace(model.spec.layer_sizes, 5)
    _, stale = forward(model, x, work=work)
    forward(other, x, work=work)  # every model of the architecture shares it
    with pytest.raises(CacheError, match="a later forward\\(\\) overwrote the workspace"):
        backward(stale, g)
    _, cache = forward(model, x, work=work)
    assert backward(cache, g).tobytes() == backward(forward(model, x)[1], g).tobytes()
