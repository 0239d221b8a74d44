import hashlib

import numpy as np
import pytest

from ugatlab.numnet import MlpSpec, ShapeError, adam_step, backward, forward, init_adam, init_model
from ugatlab.numnet.adam import FLUSH_PERIOD
from ugatlab.numnet.mlp import flatten, split


def make_model(seed=0):
    return init_model(MlpSpec(layer_sizes=(2, 3, 1)), np.random.default_rng(seed))


def zero_grads(model):
    return flatten([np.zeros_like(w) for w in model.weights], [np.zeros_like(b) for b in model.biases])


def layers(model, grad):
    # grad's per-layer views, weights then biases, as split() lays them out
    grads_w, grads_b = split(grad, model.spec.layer_sizes)
    return [*grads_w, *grads_b]


def test_zero_gradients_leave_parameters_unchanged():
    model = make_model()
    before = [w.copy() for w in model.weights]
    state = init_adam(model)
    adam_step(model, zero_grads(model), state)
    for w, b in zip(model.weights, before):
        np.testing.assert_array_equal(w, b)
    assert state.step == 1


def test_single_step_matches_bias_corrected_hand_formula():
    # from zero moments: m_hat = g, v_hat = g^2, update = -lr * g/(|g|+eps)
    model = make_model(seed=4)
    lr, eps = 1e-3, 1e-8
    state = init_adam(model, learning_rate=lr)
    grad = zero_grads(model)
    g = np.array([[0.3, -0.7], [1.5, 0.0], [-2.0, 0.25]])
    layers(model, grad)[0][:] = g  # a view into grad, which adam_step reads
    before = model.weights[0].copy()
    adam_step(model, grad, state)
    expected = before - lr * g / (np.abs(g) + eps)
    np.testing.assert_allclose(model.weights[0], expected, atol=1e-15)


def adam_scalar_oracle(theta, gs, lr=1e-3, b1=0.9, b2=0.999, eps=1e-8):
    # plain scalar-loop recomputation over a sequence of gradients
    m = v = 0.0
    for t, g in enumerate(gs, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1**t)
        v_hat = v / (1 - b2**t)
        theta -= lr * m_hat / (v_hat**0.5 + eps)
    return theta


def test_two_steps_match_sequential_scalar_oracle():
    model = make_model(seed=8)
    state = init_adam(model)
    g1, g2 = 0.8, -0.45
    theta0 = float(model.weights[0][0, 0])
    for g in (g1, g2):
        grad = zero_grads(model)
        layers(model, grad)[0][0, 0] = g
        adam_step(model, grad, state)
    expected = adam_scalar_oracle(theta0, [g1, g2])
    assert abs(float(model.weights[0][0, 0]) - expected) < 1e-14
    assert state.step == 2


def test_shape_mismatch_rejected():
    model = make_model()
    state = init_adam(model)
    n = model.params.size
    for grad in (np.zeros(n - 1), np.zeros((1, n))):  # a wrong length, and params' length in 2-D
        with pytest.raises(ShapeError):
            adam_step(model, grad, state)
    assert state.step == 0


def random_grads(model, rng):
    return flatten(
        [rng.normal(size=w.shape) for w in model.weights], [rng.normal(size=b.shape) for b in model.biases]
    )


def per_layer_adam(arrays, grad_steps, lr=1e-3, b1=0.9, b2=0.999, eps=1e-8):
    # reference: the Adam update applied to each layer's array on its own
    arrays = [a.copy() for a in arrays]
    ms = [np.zeros_like(a) for a in arrays]
    vs = [np.zeros_like(a) for a in arrays]
    for t, grads in enumerate(grad_steps, start=1):
        for a, g, m, v in zip(arrays, grads, ms, vs):
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            a -= lr * (m / (1.0 - b1**t)) / (np.sqrt(v / (1.0 - b2**t)) + eps)
    return arrays


def test_five_steps_equal_the_per_layer_update_bit_for_bit():
    model = init_model(MlpSpec(layer_sizes=(4, 6, 5, 3)), np.random.default_rng(5))
    rng = np.random.default_rng(6)
    grad_steps = [random_grads(model, rng) for _ in range(5)]
    expected = per_layer_adam([*model.weights, *model.biases], [layers(model, g) for g in grad_steps])
    state = init_adam(model)
    for grad in grad_steps:
        adam_step(model, grad, state)
    for got, want in zip((*model.weights, *model.biases), expected):
        assert np.array_equal(got, want)


def test_adam_step_leaves_the_gradients_alone():
    model = init_model(MlpSpec(layer_sizes=(4, 6, 5, 3)), np.random.default_rng(5))
    rng = np.random.default_rng(6)
    state = init_adam(model)
    for _ in range(3):
        grad = random_grads(model, rng)
        before = grad.tobytes()
        adam_step(model, grad, state)
        assert grad.tobytes() == before


def test_params_after_adam_steps_are_pinned():
    # SHA-256 of the flat parameter bytes; changes only with a documented
    # change to the init draw order or the Adam arithmetic
    model = init_model(MlpSpec(layer_sizes=(4, 6, 5, 3)), np.random.default_rng(7))
    rng = np.random.default_rng(8)
    state = init_adam(model)
    for _ in range(3):
        adam_step(model, random_grads(model, rng), state)
    digest = hashlib.sha256(model.params.tobytes()).hexdigest()
    assert digest == "dc1e0a0092a93e132c0bd19c9ba99ad73650961fb2dbd4ad6d0d6a6a5451f555"


def reference_adam(params, m, v, step, g, lr=1e-3, b1=0.9, b2=0.999, eps=1e-8):
    # the allocating form: a new array per operation
    m = b1 * m + (1.0 - b1) * g
    v = b2 * v + ((1.0 - b2) * g) * g
    m_hat = m / (1.0 - b1**step)
    v_hat = v / (1.0 - b2**step)
    return params - (lr * m_hat) / (np.sqrt(v_hat) + eps), m, v


def backward_grads(model, rng, rows):
    x = rng.normal(size=(rows, model.spec.layer_sizes[0]))
    out, cache = forward(model, x)
    return backward(cache, rng.normal(size=out.shape) / out.size)


@pytest.mark.parametrize("rows", [1, 64])
def test_adam_step_gives_the_bytes_of_the_allocating_reference(rows):
    model = init_model(MlpSpec(layer_sizes=(20, 64, 64, 8)), np.random.default_rng(3))
    rng = np.random.default_rng(4)
    state = init_adam(model)
    params, m, v = model.params.copy(), state.m.copy(), state.v.copy()
    for step in range(1, 31):
        grad = backward_grads(model, rng, rows)
        flat = grad.tobytes()
        params, m, v = reference_adam(params, m, v, step, grad)
        adam_step(model, grad, state)
        assert grad.tobytes() == flat
        assert model.params.tobytes() == params.tobytes()
        assert state.m.tobytes() == m.tobytes() and state.v.tobytes() == v.tobytes()


def test_subnormal_moments_are_flushed_without_moving_the_params():
    # Some gradient entries turn exactly 0 at step 100, as a dead relu
    # unit's do: "dead" ones for good, "revived" ones until step 7000, and
    # "faint" ones (about 1e-152 before) for good. The textbook form's m then
    # decays into the subnormal range, and the faint entries' v too; the
    # flushed moments end normal or 0, and the params keep the textbook bytes.
    model = init_model(MlpSpec(layer_sizes=(4, 6, 3)), np.random.default_rng(5))
    rng = np.random.default_rng(6)
    state = init_adam(model)
    params, m, v = model.params.copy(), state.m.copy(), state.v.copy()
    group = np.arange(model.params.size) % 4
    dead, revived, faint = group == 1, group == 2, group == 3
    steps = 16 * FLUSH_PERIOD
    for step in range(1, steps + 1):
        grad = rng.normal(size=model.params.size)
        grad[faint] *= 1e-152
        if step >= 100:
            grad[dead | faint] = 0.0
        if 100 <= step < 7000:
            grad[revived] = 0.0
        params, m, v = reference_adam(params, m, v, step, grad)
        adam_step(model, grad, state)
        assert model.params.tobytes() == params.tobytes()

    def subnormal(a):
        return (a != 0.0) & (np.abs(a) < np.finfo(np.float64).tiny)

    assert subnormal(m[dead]).all() and subnormal(m[faint]).all() and subnormal(v[faint]).all()
    assert not subnormal(state.m).any() and not subnormal(state.v).any()
    assert state.m[revived].tobytes() == m[revived].tobytes()
    assert state.v[revived].tobytes() == v[revived].tobytes()
