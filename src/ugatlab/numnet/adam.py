"""Adam optimizer with bias-corrected moment estimates."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ugatlab.numnet.mlp import MlpModel, ShapeError

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8
FLUSH_PERIOD = 500  # Adam steps between flushes of subnormal moments
TINY = np.finfo(np.float64).tiny  # the smallest normal float64


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

    Every FLUSH_PERIOD steps the moment entries below TINY in magnitude are
    set to 0. A gradient entry that stays exactly 0 (a dead relu unit's)
    decays its m by 0.9 a step into the subnormal range, where the decay
    stalls (0.9 * k * 2**-1074 rounds back to k * 2**-1074 for small k), and
    on subnormal operands a step takes about twice as long. The flush
    cannot move the parameters. From step FLUSH_PERIOD on, m's bias
    correction divides by 1 and v's by more than 0.39, so a subnormal m
    entry's step, lr * m_hat / (sqrt(v_hat) + eps), is below
    lr * 2**-1022 / eps: under half an ulp of any parameter larger than
    lr * 1e-283 in magnitude. A subnormal v entry's sqrt(v_hat) is below
    1e-153, which adding eps rounds away. Once the entry's gradient is
    nonzero again, its moments get the bytes they would have had unflushed,
    unless that gradient is below about 1e-144 in magnitude.
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
    # tmp holds m_hat and then the step, tmp2 v_hat and then the denominator.
    # Once a bias correction rounds to 1 (m's from about step 350 on),
    # dividing by it gives the moment's own bytes, so the moment is read as is
    c1, c2 = 1.0 - BETA1**state.step, 1.0 - BETA2**state.step
    m_hat = m if c1 == 1.0 else np.divide(m, c1, out=tmp)
    v_hat = v if c2 == 1.0 else np.divide(v, c2, out=tmp2)
    step = np.multiply(state.learning_rate, m_hat, out=tmp)
    step /= np.add(np.sqrt(v_hat, out=tmp2), EPS, out=tmp2)
    model.params -= step
    if state.step % FLUSH_PERIOD == 0:
        for moment in (m, v):
            moment[np.abs(moment) < TINY] = 0.0
