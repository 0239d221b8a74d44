"""Adam optimizer with bias-corrected moment estimates."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ugatlab.numnet.mlp import MlpModel, ShapeError

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    """Learning rate, step count and first/second moments laid out like ``MlpModel.params``."""

    learning_rate: float
    m: np.ndarray
    v: np.ndarray
    step: int = 0
    # two work vectors like m, which adam_step writes its temporaries into
    _work: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._work = np.empty((2, self.m.size))


def init_adam(model: MlpModel, learning_rate: float = 1e-3) -> AdamState:
    return AdamState(learning_rate, m=np.zeros_like(model.params), v=np.zeros_like(model.params))


def adam_step(model: MlpModel, grad: np.ndarray, state: AdamState) -> None:
    """One in-place Adam update over model.params; deterministic given inputs.

    ``grad`` is one float64 vector laid out like ``params``, as backward()
    returns it; adam_step never writes it. Every update writes into ``m``,
    ``v``, ``params`` or the state's two work vectors, so a step allocates
    nothing the size of the parameters. Each element still goes through the
    same IEEE operations in the same order as the textbook form
    ``m = b1*m + (1-b1)*g``, ``v = b2*v + ((1-b2)*g)*g``,
    ``params -= lr*m_hat / (sqrt(v_hat) + eps)``. Elementwise operations round
    each result once whatever array they write to, so the bytes are those of
    the allocating form.
    """
    if grad.shape != model.params.shape:
        raise ShapeError(f"gradient shape {grad.shape} != parameter shape {model.params.shape}")
    m, v = state.m, state.v
    tmp, tmp2 = state._work
    state.step += 1
    m *= BETA1
    m += np.multiply(1.0 - BETA1, grad, out=tmp)
    v *= BETA2
    v += np.multiply(np.multiply(1.0 - BETA2, grad, out=tmp), grad, out=tmp)
    # tmp holds m_hat and then the step, tmp2 holds v_hat
    m_hat = np.divide(m, 1.0 - BETA1**state.step, out=tmp)
    v_hat = np.divide(v, 1.0 - BETA2**state.step, out=tmp2)
    step = np.multiply(state.learning_rate, m_hat, out=m_hat)
    step /= np.add(np.sqrt(v_hat, out=v_hat), EPS, out=v_hat)
    model.params -= step
