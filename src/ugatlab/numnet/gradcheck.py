"""Central finite-difference check of analytic parameter gradients."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ugatlab.numnet.mlp import MlpModel, backward, flatten, forward

LossFn = Callable[[np.ndarray], tuple[float, np.ndarray]]


@dataclass
class GradCheckResult:
    max_rel_error: float
    tolerance: float
    passed: bool
    worst: int  # index into model.params of the largest relative error


def gradcheck(
    model: MlpModel,
    loss_fn: LossFn,
    x: np.ndarray,
    tolerance: float = 1e-4,
    step: float = 1e-5,
) -> GradCheckResult:
    """Compare backward() against central differences for every parameter.

    loss_fn maps the network output to (scalar loss, d loss / d output).
    Dropout is excluded (forwards without an rng) so both routes see the
    same deterministic function.
    """
    out, cache = forward(model, x)
    _, dloss = loss_fn(out)
    grads = backward(model, cache, dloss)
    analytic = flatten(grads.weights, grads.biases)
    params = model.params
    worst, max_rel = 0, 0.0
    for i in range(params.size):
        orig = params[i]
        params[i] = orig + step
        plus, _ = loss_fn(forward(model, x)[0])
        params[i] = orig - step
        minus, _ = loss_fn(forward(model, x)[0])
        params[i] = orig
        num = (plus - minus) / (2.0 * step)
        ana = float(analytic[i])
        rel = abs(ana - num) / (abs(ana) + abs(num) + 1e-12)
        if rel > max_rel:
            max_rel, worst = rel, i
    return GradCheckResult(
        max_rel_error=max_rel, tolerance=tolerance, passed=max_rel < tolerance, worst=worst
    )
