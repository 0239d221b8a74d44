"""Central finite-difference check of analytic parameter gradients."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ugatlab.numnet.mlp import MlpModel, backward, forward

LossFn = Callable[[np.ndarray], tuple[float, np.ndarray]]


@dataclass
class GradCheckResult:
    max_rel_error: float
    tolerance: float
    passed: bool
    worst: tuple[int, str, tuple[int, ...]]  # layer index, "weight"|"bias", element index


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
    analytic = backward(model, cache, dloss)

    def numeric_at(param: np.ndarray, idx) -> float:
        orig = param[idx]
        param[idx] = orig + step
        plus, _ = loss_fn(forward(model, x)[0])
        param[idx] = orig - step
        minus, _ = loss_fn(forward(model, x)[0])
        param[idx] = orig
        return (plus - minus) / (2.0 * step)

    worst = (0, "weight", (0, 0))
    max_rel = 0.0
    for l in range(model.spec.n_layers):
        for kind, param, grad in (
            ("weight", model.weights[l], analytic.weights[l]),
            ("bias", model.biases[l], analytic.biases[l]),
        ):
            for idx in np.ndindex(param.shape):
                num = numeric_at(param, idx)
                ana = float(grad[idx])
                rel = abs(ana - num) / (abs(ana) + abs(num) + 1e-12)
                if rel > max_rel:
                    max_rel = rel
                    worst = (l, kind, idx)
    return GradCheckResult(
        max_rel_error=max_rel, tolerance=tolerance, passed=max_rel < tolerance, worst=worst
    )
