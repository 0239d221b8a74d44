"""Feed-forward MLPs with relu hidden layers and exact backpropagation."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

OUTPUT_ACTIVATIONS = ("identity", "relu")


class ShapeError(ValueError):
    """Input or parameter dimensions do not match the model spec."""


class CacheError(ValueError):
    """Activation cache does not belong to the model handed to backward()."""


@dataclass(frozen=True)
class MlpSpec:
    """Architecture: layer sizes input -> hidden... -> output."""

    layer_sizes: tuple[int, ...]
    output_activation: str = "identity"
    dropout_rate: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "layer_sizes", tuple(int(n) for n in self.layer_sizes))
        if len(self.layer_sizes) < 2:
            raise ShapeError("an MLP needs at least an input and an output layer")
        if any(n <= 0 for n in self.layer_sizes):
            raise ShapeError(f"layer sizes must be positive: {self.layer_sizes}")
        if self.output_activation not in OUTPUT_ACTIVATIONS:
            raise ValueError(f"unknown output activation {self.output_activation!r}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError(f"dropout_rate must be in [0, 1): {self.dropout_rate}")

    @property
    def n_layers(self) -> int:
        return len(self.layer_sizes) - 1


def flatten(weights: list[np.ndarray], biases: list[np.ndarray]) -> np.ndarray:
    """Every weight, then every bias, raveled into one new float64 vector."""
    return np.concatenate([np.ravel(a) for a in (*weights, *biases)], dtype=np.float64)


def split(
    flat: np.ndarray, weights: list[np.ndarray], biases: list[np.ndarray]
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Views into flat shaped like weights and biases, in flatten()'s layout."""
    views, start = [], 0
    for a in (*weights, *biases):
        views.append(flat[start : start + a.size].reshape(a.shape))
        start += a.size
    return views[: len(weights)], views[len(weights) :]


@dataclass
class MlpModel:
    """Weights W[l] of shape (fan_out, fan_in) and biases b[l] of shape (fan_out,).

    Both are views into ``params``, a flatten() copy of the arrays given."""

    spec: MlpSpec
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    params: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        expect = list(zip(self.spec.layer_sizes[1:], self.spec.layer_sizes[:-1]))
        if len(self.weights) != len(expect) or len(self.biases) != len(expect):
            raise ShapeError("parameter list length does not match the spec")
        for l, (w, b, shape) in enumerate(zip(self.weights, self.biases, expect)):
            if w.shape != shape or b.shape != (shape[0],):
                raise ShapeError(f"layer {l}: weight {w.shape} / bias {b.shape} vs spec {shape}")
        self.params = flatten(self.weights, self.biases)
        self.weights, self.biases = split(self.params, self.weights, self.biases)

    def __reduce__(self):
        # pickle and deepcopy rebuild the views instead of copying them apart
        return MlpModel, (self.spec, self.weights, self.biases)


@dataclass
class ForwardCache:
    """What backward() reads of a forward pass, tied to the model that ran it.

    inputs[l] is layer l's input activation (inputs[0] the caller's x, later
    ones the hidden activations after relu and any dropout); preact is the
    output layer's pre-activation. dropout says whether the pass scaled its
    hidden units; their masks need not be kept, since a dropped unit's
    activation is 0 like a dead relu's.
    """

    model: MlpModel
    inputs: list[np.ndarray]
    preact: np.ndarray
    dropout: bool


def init_model(spec: MlpSpec, rng: np.random.Generator) -> MlpModel:
    """Seeded uniform init scaled by 1/sqrt(fan_in); zero biases."""
    weights, biases = [], []
    for fan_in, fan_out in zip(spec.layer_sizes[:-1], spec.layer_sizes[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return MlpModel(spec=spec, weights=weights, biases=biases)


def clone_model(model: MlpModel) -> MlpModel:
    return MlpModel(spec=model.spec, weights=model.weights, biases=model.biases)


def as_batch(x, name: str, width: int | None = None) -> np.ndarray:
    """x as a float64 (n, d) array, of d = width if given, or a ShapeError."""
    a = np.asarray(x, dtype=np.float64)
    if a.ndim != 2 or width not in (None, a.shape[1]):
        need = "" if width is None else f" with d = {width}"
        raise ShapeError(f"{name} must be an (n, d) batch{need}, got shape {a.shape}")
    return a


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max-subtraction stabilization."""
    z = np.asarray(logits, dtype=np.float64)
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def forward(
    model: MlpModel, x: np.ndarray, rng: np.random.Generator | None = None
) -> tuple[np.ndarray, ForwardCache]:
    """Run the network on an (n, d) batch and return its (n, k) output.

    A single sample is a one-row batch, ``x[None]``; row 0 of the output is
    its result.

    Passing an rng switches inverted dropout on for the hidden activations
    (training, and MC-dropout style heads at inference); without one, or at
    dropout_rate 0, the pass is deterministic. Surviving units are scaled by
    1/(1-p) so the deterministic pass needs no rescaling.

    Each layer allocates its product ``a @ W.T`` and adds the bias, takes the
    hidden relu and applies dropout in place in that array. Elementwise
    operations round once whatever array they write to, so the bytes are
    those of ``relu(a @ W.T + b)``; x itself is never written.
    """
    a = as_batch(x, "input", model.spec.layer_sizes[0])
    p = model.spec.dropout_rate
    use_dropout = p > 0.0 and rng is not None

    inputs: list[np.ndarray] = []
    last = model.spec.n_layers - 1
    for l, (w, b) in enumerate(zip(model.weights, model.biases)):
        inputs.append(a)
        z = a @ w.T
        z += b
        if l == last:
            break
        a = np.maximum(z, 0.0, out=z)
        if use_dropout:
            a *= rng.random(a.shape) >= p
            a /= 1.0 - p
    out = np.maximum(z, 0.0) if model.spec.output_activation == "relu" else z
    return out, ForwardCache(model=model, inputs=inputs, preact=z, dropout=use_dropout)


def backward(model: MlpModel, cache: ForwardCache, loss_grad: np.ndarray) -> np.ndarray:
    """Exact gradients of a scalar loss given d(loss)/d(output).

    loss_grad is (n, k) like forward()'s output and must already carry any
    1/n averaging; gradients are summed over the batch axis. loss_grad is
    only read. The result is one new float64 vector laid out like
    ``model.params``: each weight and bias gradient is written into its
    split() view of it. A hidden unit's relu mask is ``a > 0`` on its
    activation (the next layer's input), which equals ``z > 0``; a unit that
    dropout dropped has a = 0, so the same mask drops its gradient. The bytes
    are those of multiplying by the dropout mask and then by ``z > 0``.
    """
    if cache.model is not model:
        raise CacheError("cache was produced by a different model")
    g = as_batch(loss_grad, "loss_grad")
    if g.shape != cache.preact.shape:
        raise CacheError(f"loss_grad shape {g.shape} != output shape {cache.preact.shape}")

    delta = g * (cache.preact > 0.0) if model.spec.output_activation == "relu" else g

    flat = np.empty_like(model.params)
    grads_w, grads_b = split(flat, model.weights, model.biases)
    for l in range(model.spec.n_layers - 1, -1, -1):
        w, a = model.weights[l], cache.inputs[l]
        np.matmul(delta.T, a, out=grads_w[l])
        np.add.reduce(delta, axis=0, out=grads_b[l])
        if l > 0:
            delta = delta @ w
            if cache.dropout:
                delta /= 1.0 - model.spec.dropout_rate
            delta *= a > 0.0
    return flat
