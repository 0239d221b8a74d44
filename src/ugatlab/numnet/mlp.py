"""Feed-forward MLPs with relu hidden layers and exact backpropagation."""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

OUTPUT_ACTIVATIONS = ("identity", "relu", "softmax")
CHECKPOINT_FORMAT_VERSION = 1


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
        views, start = [], 0
        for a in (*self.weights, *self.biases):
            views.append(self.params[start : start + a.size].reshape(a.shape))
            start += a.size
        self.weights, self.biases = views[: len(expect)], views[len(expect) :]

    def __reduce__(self):
        # pickle and deepcopy rebuild the views instead of copying them apart
        return MlpModel, (self.spec, self.weights, self.biases)


@dataclass
class ForwardCache:
    """Per-layer activation record tied to the model that produced it."""

    model: MlpModel
    inputs: list[np.ndarray]
    preacts: list[np.ndarray]
    masks: list[np.ndarray | None]
    single: bool


@dataclass
class Gradients:
    weights: list[np.ndarray]
    biases: list[np.ndarray]


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


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max-subtraction stabilization."""
    z = np.asarray(logits, dtype=np.float64)
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _apply_output(z: np.ndarray, activation: str) -> np.ndarray:
    if activation == "identity":
        return z
    if activation == "relu":
        return np.maximum(z, 0.0)
    return softmax(z)


def forward(
    model: MlpModel, x: np.ndarray, rng: np.random.Generator | None = None
) -> tuple[np.ndarray, ForwardCache]:
    """Run the network on a vector or a (n, d) batch.

    Passing an rng switches inverted dropout on for the hidden activations
    (training, and MC-dropout style heads at inference); without one, or at
    dropout_rate 0, the pass is deterministic. Surviving units are scaled by
    1/(1-p) so the deterministic pass needs no rescaling.
    """
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    a = x[None, :] if single else x
    if a.ndim != 2 or a.shape[1] != model.spec.layer_sizes[0]:
        raise ShapeError(
            f"input width {a.shape[-1] if a.ndim else 0} != first layer size "
            f"{model.spec.layer_sizes[0]}"
        )
    p = model.spec.dropout_rate
    use_dropout = p > 0.0 and rng is not None

    inputs: list[np.ndarray] = []
    preacts: list[np.ndarray] = []
    masks: list[np.ndarray | None] = []
    last = model.spec.n_layers - 1
    for l, (w, b) in enumerate(zip(model.weights, model.biases)):
        inputs.append(a)
        z = a @ w.T + b
        preacts.append(z)
        if l == last:
            a = _apply_output(z, model.spec.output_activation)
            masks.append(None)
        else:
            a = np.maximum(z, 0.0)
            if use_dropout:
                keep = rng.random(a.shape) >= p
                a = a * keep / (1.0 - p)
                masks.append(keep)
            else:
                masks.append(None)
    out = a[0] if single else a
    cache = ForwardCache(model=model, inputs=inputs, preacts=preacts, masks=masks, single=single)
    return out, cache


def backward(model: MlpModel, cache: ForwardCache, loss_grad: np.ndarray) -> Gradients:
    """Exact gradients of a scalar loss given d(loss)/d(output).

    For a batch, loss_grad must already carry any 1/n averaging; gradients
    are summed over the batch axis.
    """
    if cache.model is not model:
        raise CacheError("cache was produced by a different model")
    g = np.asarray(loss_grad, dtype=np.float64)
    if cache.single:
        g = g[None, :]
    if g.shape != cache.preacts[-1].shape:
        raise CacheError(f"loss_grad shape {g.shape} != output shape {cache.preacts[-1].shape}")

    act = model.spec.output_activation
    z_last = cache.preacts[-1]
    if act == "identity":
        delta = g
    elif act == "relu":
        delta = g * (z_last > 0.0)
    else:  # softmax Jacobian: dz_i = p_i (g_i - sum_j g_j p_j)
        prob = softmax(z_last)
        delta = prob * (g - np.sum(g * prob, axis=1, keepdims=True))

    n = model.spec.n_layers
    grads_w: list[np.ndarray] = [np.empty(0)] * n
    grads_b: list[np.ndarray] = [np.empty(0)] * n
    p = model.spec.dropout_rate
    for l in range(n - 1, -1, -1):
        grads_w[l] = delta.T @ cache.inputs[l]
        grads_b[l] = delta.sum(axis=0)
        if l > 0:
            da = delta @ model.weights[l]
            mask = cache.masks[l - 1]
            if mask is not None:
                da = da * mask / (1.0 - p)
            delta = da * (cache.preacts[l - 1] > 0.0)
    return Gradients(weights=grads_w, biases=grads_b)


# --- checkpointing ----------------------------------------------------------
# Structured-text (JSON) container; tensors are base64 of the raw row-major
# float64 bytes so a save/load round trip is bit-exact.


def _encode(a: np.ndarray) -> str:
    return base64.b64encode(np.ascontiguousarray(a, dtype=np.float64).tobytes()).decode("ascii")


def _decode(s: str, shape: tuple[int, ...]) -> np.ndarray:
    return np.frombuffer(base64.b64decode(s), dtype=np.float64).reshape(shape)


def model_to_dict(model: MlpModel) -> dict:
    return {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "layer_sizes": list(model.spec.layer_sizes),
        "hidden_activation": "relu",
        "output_activation": model.spec.output_activation,
        "dropout_rate": model.spec.dropout_rate,
        "weights": [{"rows": w.shape[0], "cols": w.shape[1], "data": _encode(w)} for w in model.weights],
        "biases": [{"rows": b.shape[0], "data": _encode(b)} for b in model.biases],
    }


def model_from_dict(d: dict) -> MlpModel:
    version = d.get("format_version")
    if version != CHECKPOINT_FORMAT_VERSION:
        raise ValueError(f"unsupported checkpoint format version: {version!r}")
    if d["hidden_activation"] != "relu":
        raise ValueError(f"unknown hidden activation {d['hidden_activation']!r}")
    spec = MlpSpec(
        layer_sizes=tuple(d["layer_sizes"]),
        output_activation=d["output_activation"],
        dropout_rate=d["dropout_rate"],
    )
    weights = [_decode(w["data"], (w["rows"], w["cols"])) for w in d["weights"]]
    biases = [_decode(b["data"], (b["rows"],)) for b in d["biases"]]
    return MlpModel(spec=spec, weights=weights, biases=biases)


def save_model(model: MlpModel, path: str | Path) -> None:
    Path(path).write_text(json.dumps(model_to_dict(model)))


def load_model(path: str | Path) -> MlpModel:
    return model_from_dict(json.loads(Path(path).read_text()))
