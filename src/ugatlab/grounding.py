"""Action grounding: forward/inverse dynamics models, uncertainty, gating.

The forward model learns the stand-in-for-reality dynamics (s, a) -> s' from
real-environment rollouts; the inverse model learns which simulation action
carries s to a given next state. Grounding composes them: predict the real
next state, then ask the inverse model which simulation action reproduces
it. The inverse head also emits a scalar uncertainty in [0, 1] used by the
gate, and the grounding rate tracks the running mean of logged uncertainties.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ugatlab.dqn import Transition
from ugatlab.numnet import (
    MlpSpec,
    adam_step,
    backward,
    cce_loss,
    edl_loss,
    forward,
    init_adam,
    init_model,
    mse_loss,
    softmax,
)
from ugatlab.sim import N_LANES, N_PHASES, STATE_DIM

logger = logging.getLogger(__name__)

HEAD_KINDS = ("edl", "dropout", "ensemble", "logits")


class UntrainedModelError(RuntimeError):
    """ground() called before the models saw any training."""


@dataclass(frozen=True)
class UncertainAction:
    action: int
    uncertainty: float


@dataclass
class GroundingRate:
    """Acceptance threshold alpha plus the per-iteration uncertainty log.

    alpha starts at +inf (everything accepted) and, under the dynamic rule,
    becomes the arithmetic mean of the uncertainties logged in the iteration
    that just ended.
    """

    alpha: float = math.inf
    logged: list[float] = field(default_factory=list)


@dataclass(frozen=True)
class GroundingConfig:
    forward_hidden: tuple[int, ...] = (64, 64)
    inverse_hidden: tuple[int, ...] = (64, 64)
    train_epochs: int = 10  # epochs per transformation update call
    batch_size: int = 64
    learning_rate: float = 1e-3
    dropout_passes: int = 10  # M stochastic forwards for the dropout head
    dropout_rate: float = 0.1
    ensemble_size: int = 5  # N members for the ensemble head
    count_scale: float = 50.0  # lane-count normalization divisor

    def __post_init__(self):
        for name in ("train_epochs", "batch_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1: {getattr(self, name)}")
        if not 0.0 < self.count_scale < math.inf:  # NaN fails too
            raise ValueError(f"count_scale must be finite and > 0: {self.count_scale}")
        if self.dropout_passes < 2:
            raise ValueError("dropout head needs at least 2 passes")
        if self.ensemble_size < 2:
            raise ValueError("ensemble head needs at least 2 members")


def normalize_state(state: np.ndarray, count_scale: float) -> np.ndarray:
    """Scale lane-count channels; phase one-hot channels pass through."""
    out = np.array(state, dtype=np.float64, copy=True)
    out[..., :N_LANES] /= count_scale
    return out


def onehot_actions(actions: np.ndarray) -> np.ndarray:
    out = np.zeros((len(actions), N_PHASES))
    out[np.arange(len(actions)), actions] = 1.0
    return out


class ForwardModel:
    """Predicts the normalized next state from [normalized state, onehot action]."""

    def __init__(self, config: GroundingConfig, rng: np.random.Generator):
        self.config = config
        spec = MlpSpec(layer_sizes=(STATE_DIM + N_PHASES, *config.forward_hidden, STATE_DIM))
        self.model = init_model(spec, rng)
        self.adam = init_adam(self.model, learning_rate=config.learning_rate)
        self.trained_epochs = 0

    def predict_next_norm(self, state: np.ndarray, action: int) -> np.ndarray:
        s = normalize_state(state, self.config.count_scale)
        x = np.concatenate([s, np.eye(N_PHASES)[action]])
        out, _ = forward(self.model, x)
        return out


class InverseModel:
    """Maps [predicted next state, current state] to 8 evidence values or logits.

    head "edl" uses a relu output (evidence); the other heads emit logits.
    The ensemble head holds several members differing only by init seed.
    """

    def __init__(self, config: GroundingConfig, head: str, rng: np.random.Generator):
        if head not in HEAD_KINDS:
            raise ValueError(f"unknown uncertainty head {head!r}")
        self.config = config
        self.head = head
        output = "relu" if head == "edl" else "identity"
        dropout = config.dropout_rate if head == "dropout" else 0.0
        n_members = config.ensemble_size if head == "ensemble" else 1
        spec = MlpSpec(
            layer_sizes=(2 * STATE_DIM, *config.inverse_hidden, N_PHASES),
            output_activation=output,
            dropout_rate=dropout,
        )
        self.members = [init_model(spec, rng) for _ in range(n_members)]
        if head == "edl":
            # start every evidence unit alive; the relu output otherwise pins
            # zero-evidence classes in a dead zone with no gradient
            for m in self.members:
                m.biases[-1][:] = 1.0
        self.adams = [init_adam(m, learning_rate=config.learning_rate) for m in self.members]
        self.trained_epochs = 0


def _minibatches(n: int, batch: int, rng: np.random.Generator):
    order = rng.permutation(n)
    for start in range(0, n, batch):
        yield order[start : start + batch]


def _dataset(transitions: Sequence[Transition], count_scale: float):
    """Normalized (states, actions, next_states) arrays of a transition set."""
    if not transitions:
        raise ValueError("empty dataset")
    states = normalize_state(np.stack([t.state for t in transitions]), count_scale)
    actions = np.array([t.action for t in transitions], dtype=np.intp)
    nexts = normalize_state(np.stack([t.next_state for t in transitions]), count_scale)
    return states, actions, nexts


def _train(owner, members, adams, x, y, loss_fn, epochs, batch, rng, dropout=False) -> list[float]:
    """Minibatch Adam for every member on the same shuffled minibatches.

    loss_fn(out, targets, lifetime_epoch) gives (loss, d loss / d out). Each
    epoch draws the permutation first and then, with dropout, one mask seed
    per member; returns the per-epoch mean of the member-averaged batch loss.
    """
    trace = []
    for _ in range(epochs):
        batches = list(_minibatches(len(x), batch, rng))
        drop_rngs = [np.random.default_rng(rng.integers(2**63)) if dropout else None for _ in members]
        losses = []
        for idx in batches:
            xb, yb = x[idx], y[idx]
            batch_losses = []
            for member, adam, drop_rng in zip(members, adams, drop_rngs):
                out, cache = forward(member, xb, drop_rng)
                loss, grad = loss_fn(out, yb, owner.trained_epochs)
                adam_step(member, backward(member, cache, grad), adam)
                batch_losses.append(loss)
            losses.append(float(np.mean(batch_losses)))
        trace.append(float(np.mean(losses)))
        owner.trained_epochs += 1
    return trace


def train_forward(
    fm: ForwardModel,
    d_real: Sequence[Transition],
    epochs: int,
    batch: int,
    rng: np.random.Generator,
) -> list[float]:
    """Minibatch Adam on MSE(f(s, a), s'); returns the per-epoch loss trace."""
    states, actions, y = _dataset(d_real, fm.config.count_scale)
    x = np.hstack([states, onehot_actions(actions)])
    loss_fn = lambda out, t, _: mse_loss(out, t)
    return _train(fm, [fm.model], [fm.adam], x, y, loss_fn, epochs, batch, rng)


def train_inverse(
    im: InverseModel,
    d_sim: Sequence[Transition],
    epochs: int,
    batch: int,
    rng: np.random.Generator,
) -> list[float]:
    """Fit the executed action given (s', s); returns the per-epoch loss trace.

    The edl head trains under the evidential objective, its KL term annealed
    by min(1, lifetime_epoch / 10); logit heads train under plain categorical
    cross-entropy. Ensemble members see identically ordered minibatches and
    differ only by their initializations.
    """
    states, targets, nexts = _dataset(d_sim, im.config.count_scale)
    x = np.hstack([nexts, states])
    if im.head == "edl":
        loss_fn = lambda out, t, epoch: edl_loss(out, t, anneal=min(1.0, epoch / 10.0))
    else:
        loss_fn = lambda out, t, _: cce_loss(out, t)
    dropout = im.head == "dropout"
    return _train(im, im.members, im.adams, x, targets, loss_fn, epochs, batch, rng, dropout)


def edl_uncertainty(evidence: np.ndarray) -> tuple[float, np.ndarray]:
    """u = K/S and beliefs e_k/S with S = sum(e_i + 1); u + sum(b) = 1.

    u is evaluated through its algebraic complement 1 - fsum(beliefs), which
    keeps the subjective-logic closure u + fsum(b) == 1 bit-exact while
    staying within an ulp of 1 of K/S; the direct ratio is the fallback in
    the astronomically-large-evidence corner where the complement underflows.
    """
    evidence = np.asarray(evidence, dtype=np.float64)
    if np.any(evidence < 0.0):
        raise ValueError("evidence must be nonnegative")
    k = evidence.shape[0]
    s = float(evidence.sum()) + k
    beliefs = evidence / s
    u = 1.0 - math.fsum(beliefs.tolist())
    if u <= 0.0:
        u = k / s
    return u, beliefs


def _entropy_uncertainty(mean_probs: np.ndarray) -> float:
    p = mean_probs[mean_probs > 0.0]
    return float(-(p * np.log(p)).sum() / math.log(len(mean_probs)))


def head_uncertainty(
    im: InverseModel, x: np.ndarray, rng: np.random.Generator | None = None
) -> tuple[int, float]:
    """Predicted class and uncertainty in [0, 1] per the head's rule.

    edl: argmax evidence, u = K/S. The softmax heads take the argmax of the
    mean softmax over every member and pass, with u = entropy/ln K: M
    stochastic passes of one member (dropout), one pass of each member
    (ensemble), or one pass of one member (logits, which the vanilla arm
    logs but never gates on).
    """
    if im.head == "edl":
        evidence, _ = forward(im.members[0], x)
        u, _beliefs = edl_uncertainty(evidence)
        return int(np.argmax(evidence)), u
    passes = 1
    if im.head == "dropout":
        if rng is None:
            raise ValueError("dropout head needs an rng")
        passes = im.config.dropout_passes
    probs = [softmax(forward(m, x, rng)[0]) for m in im.members for _ in range(passes)]
    mean_p = np.mean(probs, axis=0)
    return int(np.argmax(mean_p)), _entropy_uncertainty(mean_p)


def ground(
    state: np.ndarray,
    action: int,
    fm: ForwardModel,
    im: InverseModel,
    rng: np.random.Generator | None = None,
) -> UncertainAction:
    """Transform a policy action into a grounded action with its uncertainty."""
    if fm.trained_epochs == 0 or im.trained_epochs == 0:
        raise UntrainedModelError("forward/inverse models must be trained before grounding")
    predicted_next = fm.predict_next_norm(state, action)
    current = normalize_state(state, im.config.count_scale)
    a_hat, u = head_uncertainty(im, np.concatenate([predicted_next, current]), rng)
    return UncertainAction(action=a_hat, uncertainty=u)


def gate(original: int, grounded: UncertainAction, rate: GroundingRate) -> tuple[int, bool]:
    """Reject the grounded action when u >= alpha; always log the uncertainty."""
    accepted = grounded.uncertainty < rate.alpha
    rate.logged.append(grounded.uncertainty)
    return (grounded.action if accepted else original), accepted


def update_alpha(rate: GroundingRate) -> float:
    """Set alpha to the mean of this iteration's log, then clear the log."""
    if not rate.logged:
        logger.warning("update_alpha called with an empty uncertainty log; alpha unchanged")
        return rate.alpha
    rate.alpha = float(np.mean(rate.logged))
    rate.logged.clear()
    return rate.alpha
