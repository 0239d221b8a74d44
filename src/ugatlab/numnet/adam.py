"""Adam optimizer with bias-corrected moment estimates."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ugatlab.numnet.mlp import Gradients, MlpModel, ShapeError, flatten


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


def init_adam(
    model: MlpModel,
    learning_rate: float = 1e-3,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> AdamState:
    return AdamState(
        learning_rate=learning_rate,
        beta1=beta1,
        beta2=beta2,
        eps=eps,
        m=np.zeros_like(model.params),
        v=np.zeros_like(model.params),
    )


def adam_step(model: MlpModel, grads: Gradients, state: AdamState) -> None:
    """One in-place Adam update over model.params; deterministic given inputs."""
    shapes = [g.shape for g in (*grads.weights, *grads.biases)]
    if shapes != [p.shape for p in (*model.weights, *model.biases)]:
        raise ShapeError(f"gradient shapes {shapes} do not match the model's parameters")
    grad = flatten(grads.weights, grads.biases)
    m, v = state.m, state.v
    state.step += 1
    m *= state.beta1
    m += (1.0 - state.beta1) * grad
    v *= state.beta2
    v += (1.0 - state.beta2) * grad * grad
    m_hat = m / (1.0 - state.beta1 ** state.step)
    v_hat = v / (1.0 - state.beta2 ** state.step)
    model.params -= state.learning_rate * m_hat / (np.sqrt(v_hat) + state.eps)
