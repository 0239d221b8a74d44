"""Minimal dense numeric kernel: MLPs with exact backprop, losses, Adam.

Matrices are 2-D float64 numpy arrays in C (row-major) order. forward(),
backward() and the class losses take only (n, d) batches, one sample per
row; a single sample is a one-row batch, ``x[None]``. An
MlpModel copies the arrays it is given into one flat float64 vector,
``params``, and keeps per-layer weight and bias views into it. A gradient is
one float64 vector with the same layout: backward() writes each layer's
gradient into its view of one, and adam_step() reads it as it is.
forward() and backward() work in place in the arrays they allocate, or, on
request, in a Workspace: arrays for one architecture and batch height that
workspace() keeps and every model of that architecture shares, so a
training step allocates no layer product, delta or gradient. Either way the
bytes are those of the allocating form. adam_step() also works in place,
and sets its subnormal moment entries to 0 every 500 steps.
"""

from ugatlab.numnet.mlp import (
    CacheError,
    ForwardCache,
    MlpModel,
    MlpSpec,
    ShapeError,
    backward,
    clone_model,
    forward,
    init_model,
    softmax,
    workspace,
)
from ugatlab.numnet.losses import EvidenceError, cce_loss, edl_loss, mse_loss
from ugatlab.numnet.adam import AdamState, adam_step, init_adam
from ugatlab.numnet.gradcheck import GradCheckResult, gradcheck, random_cases

__all__ = [
    "AdamState",
    "CacheError",
    "EvidenceError",
    "ForwardCache",
    "GradCheckResult",
    "MlpModel",
    "MlpSpec",
    "ShapeError",
    "adam_step",
    "backward",
    "cce_loss",
    "clone_model",
    "edl_loss",
    "forward",
    "gradcheck",
    "init_adam",
    "init_model",
    "mse_loss",
    "random_cases",
    "softmax",
    "workspace",
]
