"""Central finite-difference check of analytic parameter gradients."""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterator

import numpy as np

from ugatlab.numnet.losses import cce_loss, edl_loss, mse_loss
from ugatlab.numnet.mlp import MlpModel, MlpSpec, backward, forward, init_model

LossFn = Callable[[np.ndarray], tuple[float, np.ndarray]]


@dataclass
class GradCheckResult:
    max_rel_error: float
    tolerance: float
    passed: bool
    worst: int  # index into model.params of the largest relative error
    skipped: int  # coordinates whose +-step straddles a relu kink


def gradcheck(
    model: MlpModel,
    loss_fn: LossFn,
    x: np.ndarray,
    tolerance: float = 1e-4,
    step: float = 1e-5,
) -> GradCheckResult:
    """Compare backward() against central differences for every parameter.

    x is an (n, d) batch, as forward() takes it. loss_fn maps the (n, k)
    network output to (scalar loss, d loss / d output).
    Dropout is excluded (forwards without an rng) so both routes see the
    same deterministic function. A coordinate whose +step and -step forwards
    switch a different set of relus on (hidden layers, and a relu output) is
    skipped: there the loss has a kink between the two probes, so the central
    difference measures neither one-sided derivative.
    """
    out, cache = forward(model, x)
    _, dloss = loss_fn(out)
    analytic = backward(model, cache, dloss)
    params = model.params
    relu_layers = model.spec.n_layers - (model.spec.output_activation != "relu")

    def probe() -> tuple[float, list[np.ndarray]]:
        out, cache = forward(model, x)
        relus = (*cache.inputs[1:], cache.preact)[:relu_layers]
        return loss_fn(out)[0], [a > 0.0 for a in relus]

    worst, max_rel, skipped = 0, 0.0, 0
    for i in range(params.size):
        orig = params[i]
        params[i] = orig + step
        plus, plus_on = probe()
        params[i] = orig - step
        minus, minus_on = probe()
        params[i] = orig
        if not all(np.array_equal(a, b) for a, b in zip(plus_on, minus_on)):
            skipped += 1
            continue
        num = (plus - minus) / (2.0 * step)
        ana = float(analytic[i])
        rel = abs(ana - num) / (abs(ana) + abs(num) + 1e-12)
        if rel > max_rel:
            max_rel, worst = rel, i
    return GradCheckResult(
        max_rel_error=max_rel, tolerance=tolerance, passed=max_rel < tolerance, worst=worst, skipped=skipped
    )


def random_cases(rng: np.random.Generator, draws: int) -> Iterator[tuple[MlpModel, LossFn, np.ndarray]]:
    """Yield (model, loss_fn, x) for an mse, a cce and an edl case per draw.

    Each draw takes from rng, in order: layer sizes, the input x as a one-row
    batch, a class, a one-row mse target and an edl anneal weight; each case
    then initialises its model."""
    for _ in range(draws):
        sizes = (int(rng.integers(3, 7)), int(rng.integers(4, 10)), int(rng.integers(2, 6)))
        x = rng.normal(size=(1, sizes[0]))
        t = int(rng.integers(sizes[-1]))
        target = rng.normal(size=(1, sizes[-1]))
        anneal = float(rng.uniform(0.0, 1.0))
        for activation, loss in (
            ("identity", partial(mse_loss, target=target)),
            ("identity", partial(cce_loss, target_class=t)),
            ("relu", partial(edl_loss, target_class=t, anneal=anneal)),
        ):
            yield init_model(MlpSpec(sizes, output_activation=activation), rng), loss, x
