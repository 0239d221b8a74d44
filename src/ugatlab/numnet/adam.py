"""Adam optimizer with bias-corrected moment estimates."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ugatlab.numnet.mlp import Gradients, MlpModel, ShapeError


@dataclass
class AdamState:
    """Step count and first/second moments, laid out like ``MlpModel.params``."""

    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: np.ndarray = field(default_factory=lambda: np.zeros(0))
    v: np.ndarray = field(default_factory=lambda: np.zeros(0))
    # two work vectors like m, (re)made by adam_step whenever their size is off
    _work: np.ndarray = field(
        default_factory=lambda: np.zeros((2, 0)), init=False, repr=False, compare=False
    )


def init_adam(model: MlpModel, learning_rate: float = 1e-3, eps: float = 1e-8) -> AdamState:
    return AdamState(
        learning_rate=learning_rate,
        eps=eps,
        m=np.zeros_like(model.params),
        v=np.zeros_like(model.params),
    )


def adam_step(model: MlpModel, grads: Gradients, state: AdamState) -> None:
    """One in-place Adam update over model.params; deterministic given inputs.

    It reads the gradient from ``grads.flat``, which is laid out like
    ``params``, and never writes it. Every update writes into ``m``, ``v``,
    ``params`` or the state's two work vectors, so a step allocates nothing
    the size of the parameters. Each element still goes through the same IEEE
    operations in the same order as the textbook form
    ``m = b1*m + (1-b1)*g``, ``v = b2*v + ((1-b2)*g)*g``,
    ``params -= lr*m_hat / (sqrt(v_hat) + eps)``. Elementwise operations round
    each result once whatever array they write to, so the bytes are those of
    the allocating form.
    """
    shapes = [g.shape for g in (*grads.weights, *grads.biases)]
    if shapes != [p.shape for p in (*model.weights, *model.biases)]:
        raise ShapeError(f"gradient shapes {shapes} do not match the model's parameters")
    grad, m, v = grads.flat, state.m, state.v
    if state._work.shape != (2, m.size):
        state._work = np.empty((2, m.size))
    tmp, tmp2 = state._work
    state.step += 1
    m *= state.beta1
    m += np.multiply(1.0 - state.beta1, grad, out=tmp)
    v *= state.beta2
    v += np.multiply(np.multiply(1.0 - state.beta2, grad, out=tmp), grad, out=tmp)
    # tmp holds m_hat and then the step, tmp2 holds v_hat
    m_hat = np.divide(m, 1.0 - state.beta1 ** state.step, out=tmp)
    v_hat = np.divide(v, 1.0 - state.beta2 ** state.step, out=tmp2)
    step = np.multiply(state.learning_rate, m_hat, out=m_hat)
    step /= np.add(np.sqrt(v_hat, out=v_hat), state.eps, out=v_hat)
    model.params -= step
