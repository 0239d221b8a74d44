"""Scalar losses with analytic gradients: MSE, categorical CE, evidential.

Each loss accepts a single sample (1-D prediction) or a batch (2-D, one row
per sample); batch losses are the mean over samples and gradients carry the
1/n factor so they compose directly with backward().
"""

from __future__ import annotations

import numpy as np
from scipy.special import digamma, gammaln, polygamma

from ugatlab.numnet.mlp import softmax


class EvidenceError(ValueError):
    """Evidence vector violates the nonnegativity contract."""


def mse_loss(pred: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean of squared componentwise differences; grad = 2(pred-target)/n."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {target.shape}")
    diff = pred - target
    n = diff.size
    loss = float(np.sum(diff * diff) / n)
    return loss, 2.0 * diff / n


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
    logits = np.asarray(logits, dtype=np.float64)
    single = logits.ndim == 1
    z = logits[None, :] if single else logits
    n, k = z.shape
    targets = _class_targets(target_class, n, k)
    rows = np.arange(n)
    loss = float(-_log_softmax(z)[rows, targets].mean())
    grad = softmax(z)
    grad[rows, targets] -= 1.0
    grad /= n
    return loss, grad[0] if single else grad


def edl_loss(evidence: np.ndarray, target_class, anneal: float = 1.0) -> tuple[float, np.ndarray]:
    """Expected CE under Dirichlet(evidence+1) plus annealed misleading-evidence KL.

    The KL term pushes evidence on non-target classes toward zero, i.e. the
    Dirichlet restricted to misleading evidence toward the uniform Dirichlet.
    Gradient is with respect to the evidence vector (the relu output of the
    evidential head).
    """
    evidence = np.asarray(evidence, dtype=np.float64)
    if np.any(evidence < 0.0):
        raise EvidenceError("evidence must be componentwise nonnegative")
    single = evidence.ndim == 1
    ev = evidence[None, :] if single else evidence
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
    return loss, grad[0] if single else grad
