import math

import numpy as np
import pytest

from ugatlab.numnet import EvidenceError, ShapeError, cce_loss, edl_loss, mse_loss


def fd_gradient(fn, x, h=1e-5):
    g = np.zeros_like(x)
    for i in range(x.size):
        xp = x.copy()
        xp.flat[i] += h
        xm = x.copy()
        xm.flat[i] -= h
        g.flat[i] = (fn(xp) - fn(xm)) / (2.0 * h)
    return g


# --- MSE ---------------------------------------------------------------


def test_mse_zero_when_equal():
    v = np.array([1.0, 2.0, 3.0])
    loss, grad = mse_loss(v, v)
    assert loss == 0.0
    assert np.all(grad == 0.0)


def test_mse_arithmetic_case():
    loss, grad = mse_loss(np.array([1.0, 0.0]), np.array([0.0, 0.0]))
    assert loss == 0.5
    np.testing.assert_array_equal(grad, np.array([1.0, 0.0]))


def test_mse_matches_scalar_loop_oracle():
    rng = np.random.default_rng(3)
    p = rng.normal(size=20)
    t = rng.normal(size=20)
    loss, _ = mse_loss(p, t)
    acc = 0.0
    for i in range(20):
        acc += (p[i] - t[i]) ** 2
    assert abs(loss - acc / 20) < 1e-14


def test_mse_length_mismatch():
    with pytest.raises(ValueError):
        mse_loss(np.zeros(3), np.zeros(4))


# --- CCE ---------------------------------------------------------------


def test_cce_uniform_logits_is_log_k():
    loss, _ = cce_loss(np.zeros((1, 8)), 3)
    assert abs(loss - math.log(8)) < 1e-12


def test_cce_huge_logit_is_stable():
    loss, grad = cce_loss(np.array([[1000.0, 0.0]]), 0)
    assert 0.0 <= loss < 1e-9
    assert np.all(np.isfinite(grad))


def test_cce_out_of_range_class():
    with pytest.raises(IndexError):
        cce_loss(np.zeros((1, 4)), 4)


def test_cce_rejects_a_vector_naming_the_batch_shape():
    with pytest.raises(ShapeError, match=r"logits must be an \(n, d\) batch, got shape \(4,\)"):
        cce_loss(np.zeros(4), 0)


def test_cce_gradient_matches_finite_differences():
    rng = np.random.default_rng(17)
    for _ in range(20):
        z = rng.normal(scale=2.0, size=(1, 8))
        t = int(rng.integers(8))
        _, grad = cce_loss(z, t)
        numeric = fd_gradient(lambda v: cce_loss(v, t)[0], z)
        assert np.max(np.abs(grad - numeric)) < 1e-5


def test_cce_batch_averages_rows():
    z = np.array([[1.0, 0.0, -1.0], [0.0, 2.0, 0.0]])
    t = np.array([0, 1])
    loss, grad = cce_loss(z, t)
    l0, g0 = cce_loss(z[:1], 0)
    l1, g1 = cce_loss(z[1:], 1)
    assert abs(loss - (l0 + l1) / 2) < 1e-14
    np.testing.assert_allclose(grad, np.concatenate([g0, g1]) / 2, atol=1e-14)


# --- EDL ---------------------------------------------------------------


def harmonic(n):
    return sum(1.0 / k for k in range(1, n + 1))


def test_edl_zero_evidence_matches_digamma_recurrence_oracle():
    # alpha = ones: expected CE = psi(K) - psi(1) = H_{K-1} by the digamma
    # recurrence; the misleading-evidence Dirichlet is already uniform so the
    # KL term contributes nothing at any anneal.
    for k, t in ((8, 0), (8, 5), (4, 2)):
        with_kl, _ = edl_loss(np.zeros((1, k)), t, anneal=1.0)
        no_kl, _ = edl_loss(np.zeros((1, k)), t, anneal=0.0)
        assert abs(with_kl - no_kl) < 1e-12
        assert abs(with_kl - harmonic(k - 1)) < 1e-10


def test_edl_loss_vanishes_as_target_evidence_grows():
    losses = []
    for c in (1.0, 10.0, 100.0, 1000.0):
        e = np.zeros((1, 8))
        e[0, 2] = c
        loss, _ = edl_loss(e, 2, anneal=1.0)
        losses.append(loss)
    assert all(a > b for a, b in zip(losses, losses[1:]))
    assert losses[-1] < 0.02


def test_edl_rejects_negative_evidence():
    with pytest.raises(EvidenceError):
        edl_loss(np.array([[0.5, -0.1, 0.2]]), 0)


def test_edl_rejects_a_vector_naming_the_batch_shape():
    with pytest.raises(ShapeError, match=r"evidence must be an \(n, d\) batch, got shape \(3,\)"):
        edl_loss(np.array([0.5, 0.1, 0.2]), 0)


def test_edl_gradient_matches_finite_differences():
    rng = np.random.default_rng(29)
    for _ in range(20):
        e = rng.uniform(0.1, 5.0, size=(1, 8))
        t = int(rng.integers(8))
        anneal = float(rng.uniform(0.0, 1.0))
        _, grad = edl_loss(e, t, anneal)
        numeric = fd_gradient(lambda v: edl_loss(v, t, anneal)[0], e)
        rel = np.abs(grad - numeric) / (np.abs(grad) + np.abs(numeric) + 1e-12)
        assert np.max(rel) < 1e-4


def test_edl_batch_averages_rows():
    rng = np.random.default_rng(31)
    e = rng.uniform(0.0, 3.0, size=(4, 8))
    t = rng.integers(8, size=4)
    loss, grad = edl_loss(e, t, anneal=0.7)
    rows = [edl_loss(e[i : i + 1], int(t[i]), anneal=0.7) for i in range(4)]
    assert abs(loss - np.mean([r[0] for r in rows])) < 1e-12
    np.testing.assert_allclose(grad, np.concatenate([r[1] for r in rows]) / 4, atol=1e-12)
