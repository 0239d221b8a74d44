"""Feed-forward MLPs with relu hidden layers and exact backpropagation."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

OUTPUT_ACTIVATIONS = ("identity", "relu")


class ShapeError(ValueError):
    """Input or parameter dimensions do not match the model spec."""


class CacheError(ValueError):
    """Activation cache does not belong to the model handed to backward(), or a later
    forward() overwrote the workspace it points into."""


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


def split(flat: np.ndarray, layer_sizes: tuple[int, ...]) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Views into flat shaped like the weights and biases of layer_sizes, in flatten()'s layout."""
    fan_outs, fan_ins = layer_sizes[1:], layer_sizes[:-1]
    views, start = [], 0
    for shape in (*zip(fan_outs, fan_ins), *((n,) for n in fan_outs)):
        size = math.prod(shape)
        views.append(flat[start : start + size].reshape(shape))
        start += size
    return views[: len(fan_outs)], views[len(fan_outs) :]


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
        self.weights, self.biases = split(self.params, self.spec.layer_sizes)

    def __reduce__(self):
        # pickle and deepcopy rebuild the views instead of copying them apart
        return MlpModel, (self.spec, self.weights, self.biases)


class Workspace:
    """The arrays forward() and backward() reuse for batches of one height and architecture.

    out[l] holds layer l's (rows, fan_out) product and then, in place, its
    bias add, relu and dropout; act holds a relu output layer's activation.
    delta[l] holds the (rows, fan_in) delta backward() passes from layer l+1
    down to layer l, and grad the flat gradient, with its split() views
    grad_w and grad_b built once. Every forward() into the workspace bumps
    generation, which its cache records, so backward() can refuse a cache
    whose arrays a later forward() overwrote.
    """

    def __init__(self, layer_sizes: tuple[int, ...], rows: int):
        widths = layer_sizes[1:]
        self.out = [np.empty((rows, n)) for n in widths]
        self.act = np.empty((rows, widths[-1]))
        self.delta = [np.empty((rows, n)) for n in widths[:-1]]
        self.grad = np.empty(sum((m + 1) * n for m, n in zip(layer_sizes, widths)))
        self.grad_w, self.grad_b = split(self.grad, layer_sizes)
        self.layer_sizes, self.rows = layer_sizes, rows
        self.generation = 0


@lru_cache(maxsize=4)
def workspace(layer_sizes: tuple[int, ...], rows: int) -> Workspace:
    """The one Workspace of an architecture and batch height, shared by every model.

    What forward() returns into it stays valid only until the next forward()
    into it, and what backward() returns until the next backward(): the
    caller reads what it needs and keeps none of it. Only the four most
    recently used (architecture, height) pairs keep theirs, which holds a
    grounded run's DQN and two grounding networks; one that drops out is
    made again when next asked.
    """
    return Workspace(layer_sizes, rows)


@dataclass
class ForwardCache:
    """What backward() reads of a forward pass, tied to the model that ran it.

    inputs[l] is layer l's input activation (inputs[0] the caller's x, later
    ones the hidden activations after relu and any dropout); preact is the
    output layer's pre-activation. dropout says whether the pass scaled its
    hidden units; their masks need not be kept, since a dropped unit's
    activation is 0 like a dead relu's. work is the Workspace the pass wrote
    into, if any, at its generation then.
    """

    model: MlpModel
    inputs: list[np.ndarray]
    preact: np.ndarray
    dropout: bool
    work: Workspace | None = None
    generation: int = 0


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


F64 = np.dtype(np.float64)


def as_float64(x) -> np.ndarray:
    """x itself when it is a float64 ndarray already, else np.asarray(x, dtype=np.float64)."""
    return x if type(x) is np.ndarray and x.dtype is F64 else np.asarray(x, dtype=np.float64)


def as_batch(x, name: str, width: int | None = None) -> np.ndarray:
    """x as a float64 (n, d) array, of d = width if given, or a ShapeError."""
    a = x if type(x) is np.ndarray and x.dtype is F64 else np.asarray(x, dtype=np.float64)
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
    model: MlpModel, x: np.ndarray, rng: np.random.Generator | None = None, work: Workspace | None = None
) -> tuple[np.ndarray, ForwardCache]:
    """Run the network on an (n, d) batch and return its (n, k) output.

    A single sample is a one-row batch, ``x[None]``; row 0 of the output is
    its result.

    Passing an rng switches inverted dropout on for the hidden activations
    (training, and MC-dropout style heads at inference); without one, or at
    dropout_rate 0, the pass is deterministic. Surviving units are scaled by
    1/(1-p) so the deterministic pass needs no rescaling.

    Each layer writes its product ``a @ W.T`` into a new array, or into
    work's array for the layer when a Workspace of the model's layer sizes
    and n rows is given, and adds the bias, takes the hidden relu and
    applies dropout in place in that array. Elementwise operations round
    once whatever array they write to, so the bytes are those of
    ``relu(a @ W.T + b)`` either way; x itself is never written. With work,
    the output and the cache are the workspace's arrays (see workspace()).
    """
    a = as_batch(x, "input", model.spec.layer_sizes[0])
    p = model.spec.dropout_rate
    use_dropout = p > 0.0 and rng is not None
    if work is not None:
        if (work.layer_sizes, work.rows) != (model.spec.layer_sizes, len(a)):
            raise ShapeError(
                f"workspace for {work.rows} rows of {work.layer_sizes} given {len(a)} rows of {model.spec.layer_sizes}"
            )
        work.generation += 1

    inputs: list[np.ndarray] = []
    last = model.spec.n_layers - 1
    for l, (w, b) in enumerate(zip(model.weights, model.biases)):
        inputs.append(a)
        z = a @ w.T if work is None else np.matmul(a, w.T, out=work.out[l])
        z += b
        if l == last:
            break
        a = np.maximum(z, 0.0, out=z)
        if use_dropout:
            a *= rng.random(a.shape) >= p
            a /= 1.0 - p
    if model.spec.output_activation == "relu":
        out = np.maximum(z, 0.0, out=None if work is None else work.act)
    else:
        out = z
    generation = 0 if work is None else work.generation
    return out, ForwardCache(model, inputs, z, use_dropout, work, generation)


def backward(model: MlpModel, cache: ForwardCache, loss_grad: np.ndarray) -> np.ndarray:
    """Exact gradients of a scalar loss given d(loss)/d(output).

    loss_grad is (n, k) like forward()'s output and must already carry any
    1/n averaging; gradients are summed over the batch axis. loss_grad is
    only read. The result is one float64 vector laid out like
    ``model.params``, each weight and bias gradient written into its split()
    view of it: a new vector, or the workspace's grad when the forward pass
    wrote into a Workspace, which also holds the hidden deltas. A hidden
    unit's relu mask is ``a > 0`` on its activation (the next layer's
    input), which equals ``z > 0``; a unit that dropout dropped has a = 0,
    so the same mask drops its gradient. The bytes are those of multiplying
    by the dropout mask and then by ``z > 0``.
    """
    if cache.model is not model:
        raise CacheError("cache was produced by a different model")
    work = cache.work
    if work is not None and cache.generation != work.generation:
        raise CacheError("a later forward() overwrote the workspace this cache's pass wrote into")
    g = as_batch(loss_grad, "loss_grad")
    if g.shape != cache.preact.shape:
        raise CacheError(f"loss_grad shape {g.shape} != output shape {cache.preact.shape}")

    delta = g * (cache.preact > 0.0) if model.spec.output_activation == "relu" else g

    if work is None:
        flat = np.empty_like(model.params)
        grads_w, grads_b = split(flat, model.spec.layer_sizes)
    else:
        flat, grads_w, grads_b = work.grad, work.grad_w, work.grad_b
    for l in range(model.spec.n_layers - 1, -1, -1):
        w, a = model.weights[l], cache.inputs[l]
        np.matmul(delta.T, a, out=grads_w[l])
        np.add.reduce(delta, axis=0, out=grads_b[l])
        if l > 0:
            delta = delta @ w if work is None else np.matmul(delta, w, out=work.delta[l - 1])
            if cache.dropout:
                delta /= 1.0 - model.spec.dropout_rate
            delta *= a > 0.0
    return flat
