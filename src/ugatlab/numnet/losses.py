"""Scalar losses with analytic gradients: MSE, categorical CE, evidential.

The class losses take an (n, k) batch, one row per sample, as forward()
returns it; a single sample is a one-row batch. Each loss is the mean over
its samples and its gradient carries the 1/n factor, so it composes
directly with backward().

``scipy.special`` loads on the evidential loss's first call, not on import:
only the edl head needs it, and importing it costs every other command about
a quarter of a second and 26 MB.
"""

from __future__ import annotations

import numpy as np

from ugatlab.numnet.mlp import as_batch, as_float64, softmax


class EvidenceError(ValueError):
    """Evidence vector violates the nonnegativity contract."""


def mse_loss(pred: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean of squared componentwise differences; grad = 2(pred-target)/n.

    The gradient is computed in place in the new difference array, with the
    bytes of the allocating form.
    """
    pred, target = as_float64(pred), as_float64(target)
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {target.shape}")
    diff = pred - target
    n = diff.size
    loss = float(np.add.reduce(diff * diff, axis=None) / n)
    diff *= 2.0
    diff /= n
    return loss, diff


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=-1, keepdims=True))


def _class_targets(target_class, n: int, k: int) -> np.ndarray:
    """Target classes as an (n,) intp array, each in [0, k)."""
    targets = np.atleast_1d(np.asarray(target_class, dtype=np.intp))
    if targets.shape != (n,):
        raise ValueError(f"targets shape {targets.shape} != ({n},)")
    if np.any(targets < 0) or np.any(targets >= k):
        raise IndexError(f"target class out of range for {k} classes")
    return targets


def cce_loss(logits: np.ndarray, target_class) -> tuple[float, np.ndarray]:
    """-log softmax(logits)[target]; grad = softmax - onehot (over logits)."""
    z = as_batch(logits, "logits")
    n, k = z.shape
    targets = _class_targets(target_class, n, k)
    rows = np.arange(n)
    loss = float(-_log_softmax(z)[rows, targets].mean())
    grad = softmax(z)
    grad[rows, targets] -= 1.0
    grad /= n
    return loss, grad


def edl_loss(evidence: np.ndarray, target_class, anneal: float = 1.0) -> tuple[float, np.ndarray]:
    """Expected CE under Dirichlet(evidence+1) plus annealed misleading-evidence KL.

    The KL term pushes evidence on non-target classes toward zero, i.e. the
    Dirichlet restricted to misleading evidence toward the uniform Dirichlet.
    Gradient is with respect to the (n, k) evidence batch (the relu output
    of the evidential head).
    """
    from scipy.special import digamma, gammaln, polygamma

    ev = as_batch(evidence, "evidence")
    if np.any(ev < 0.0):
        raise EvidenceError("evidence must be componentwise nonnegative")
    n, k = ev.shape
    targets = _class_targets(target_class, n, k)
    rows = np.arange(n)

    alpha = ev + 1.0
    s = alpha.sum(axis=1)
    loss_rows = digamma(s) - digamma(alpha[rows, targets])
    grad = np.broadcast_to(polygamma(1, s)[:, None], alpha.shape).copy()
    grad[rows, targets] -= polygamma(1, alpha[rows, targets])

    if anneal != 0.0:
        # KL(Dirichlet(alpha_tilde) || Dirichlet(1)): target component pinned at 1
        alpha_t = alpha.copy()
        alpha_t[rows, targets] = 1.0
        s_t = alpha_t.sum(axis=1)
        kl = (
            gammaln(s_t)
            - gammaln(k)
            - gammaln(alpha_t).sum(axis=1)
            + ((alpha_t - 1.0) * (digamma(alpha_t) - digamma(s_t)[:, None])).sum(axis=1)
        )
        loss_rows = loss_rows + anneal * kl
        kl_grad = (alpha_t - 1.0) * polygamma(1, alpha_t) - ((s_t - k) * polygamma(1, s_t))[:, None]
        kl_grad[rows, targets] = 0.0
        grad += anneal * kl_grad

    loss = float(loss_rows.mean())
    grad /= n
    return loss, grad
