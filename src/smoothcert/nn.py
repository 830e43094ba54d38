"""Dense ReLU classifier with exact analytic gradients, in float64.

The network is logits = L_k(relu(L_{k-1}(... relu(L_1(x)) ...))) with dense
layers L_i(h) = h @ W_i + b_i. Everything here is plain numpy; gradients are
hand-derived backprop, not autodiff. ReLU's subgradient at 0 is taken as 0.

Checkpoint layout (versioned structured text, stable across releases):
a JSON object with keys
    format:      "smoothcert.checkpoint"
    version:     1
    activation:  "relu"
    layer_sizes: [d, h_1, ..., C]
    init:        {"master_seed": int, "path": [...]} or null
    weights:     per layer, nested lists in row-major (fan_in x fan_out) order
    biases:      per layer, flat lists
serialized with sorted keys; floats round-trip exactly through repr.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .rng import StreamId

__all__ = [
    "DimensionMismatch",
    "ModelParams",
    "OptimizerState",
    "init_mlp",
    "forward",
    "softmax",
    "cross_entropy",
    "grad_params",
    "grad_input",
    "class_prob_grad_input",
    "sgd_nesterov_step",
    "save_checkpoint",
    "load_checkpoint",
    "validate_soft_label",
    "one_hot",
]

CHECKPOINT_FORMAT = "smoothcert.checkpoint"
CHECKPOINT_VERSION = 1
CE_PROB_FLOOR = 1e-12


class DimensionMismatch(ValueError):
    """Raised when an input's shape disagrees with the model's dimensions."""

    def __init__(self, what: str, expected, actual):
        super().__init__(f"{what}: expected {expected}, got {actual}")
        self.expected = expected
        self.actual = actual


def validate_soft_label(probs: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """Check that probs is a valid distribution: entries in [0,1], sum within tol of 1."""
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim != 1:
        raise DimensionMismatch("soft label", "1-D vector", probs.shape)
    _check_soft_rows(probs, tol)
    return probs


def _check_soft_rows(probs: np.ndarray, tol: float = 1e-9) -> None:
    """Raise ValueError unless every row (last axis) of probs is a valid soft label."""
    if np.any(probs < -tol) or np.any(probs > 1 + tol):
        raise ValueError(f"soft label entries outside [0,1]: {probs}")
    s = probs.sum(axis=-1)
    if np.any(np.abs(s - 1.0) > tol):
        raise ValueError(f"soft label sums to {s!r}, not 1 within {tol}")


def one_hot(y: int, class_count: int) -> np.ndarray:
    if not 0 <= int(y) < class_count:
        raise ValueError(f"class {y} outside [0, {class_count})")
    out = np.zeros(class_count, dtype=np.float64)
    out[int(y)] = 1.0
    return out


@dataclass
class ModelParams:
    """Dense network parameters: weights[k] has shape (fan_in, fan_out)."""

    weights: list
    biases: list

    def __post_init__(self):
        self.validate()

    def validate(self):
        if len(self.weights) != len(self.biases) or not self.weights:
            raise ValueError("weights and biases must be nonempty parallel lists")
        for k, (W, b) in enumerate(zip(self.weights, self.biases)):
            if W.ndim != 2 or b.ndim != 1 or W.shape[1] != b.shape[0]:
                raise DimensionMismatch(f"layer {k}", "(in,out) weight with (out,) bias",
                                        (W.shape, b.shape))
            if k > 0 and self.weights[k - 1].shape[1] != W.shape[0]:
                raise DimensionMismatch(
                    f"layer {k} fan_in", self.weights[k - 1].shape[1], W.shape[0])
            if not (np.all(np.isfinite(W)) and np.all(np.isfinite(b))):
                raise ValueError(f"layer {k} has non-finite entries")

    @property
    def input_dim(self) -> int:
        return self.weights[0].shape[0]

    @property
    def class_count(self) -> int:
        return self.weights[-1].shape[1]

    @property
    def layer_sizes(self) -> list:
        return [self.input_dim] + [W.shape[1] for W in self.weights]

    def copy(self) -> "ModelParams":
        return ModelParams([W.copy() for W in self.weights],
                           [b.copy() for b in self.biases])


def init_mlp(layer_sizes, stream: StreamId) -> ModelParams:
    """He-initialized MLP: W ~ N(0, 2/fan_in), b = 0. Deterministic per stream."""
    if len(layer_sizes) < 2:
        raise ValueError("need at least input and output sizes")
    rng = stream.generator()
    weights, biases = [], []
    for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        weights.append(rng.standard_normal((fan_in, fan_out)) * np.sqrt(2.0 / fan_in))
        biases.append(np.zeros(fan_out, dtype=np.float64))
    return ModelParams(weights, biases)


def _as_batch(params: ModelParams, x: np.ndarray):
    x = np.asarray(x, dtype=np.float64)
    squeezed = x.ndim == 1
    X = x[None, :] if squeezed else x
    if X.ndim != 2 or X.shape[1] != params.input_dim:
        raise DimensionMismatch("input", f"(*, {params.input_dim})", x.shape)
    return X, squeezed


def _forward_cached(params: ModelParams, X: np.ndarray):
    """Forward pass keeping pre-activations and activations for backprop."""
    acts = [X]
    pres = []
    h = X
    last = len(params.weights) - 1
    for k, (W, b) in enumerate(zip(params.weights, params.biases)):
        z = h @ W + b
        pres.append(z)
        h = np.maximum(z, 0.0) if k < last else z
        acts.append(h)
    return h, pres, acts


def forward(params: ModelParams, x: np.ndarray) -> np.ndarray:
    """Logits for one input (d,) or a batch (B, d); output matches input ndim.

    Keeps only the current activation; _forward_cached keeps all, for backprop.
    """
    h, squeezed = _as_batch(params, x)
    for k, (W, b) in enumerate(zip(params.weights, params.biases)):
        h = h @ W  # a new array, so the in-place steps below never write to x
        h += b
        if k < len(params.weights) - 1:
            np.maximum(h, 0.0, out=h)
    return h[0] if squeezed else h


def softmax(logits: np.ndarray) -> np.ndarray:
    """Stable softmax along the last axis (max subtraction before exp)."""
    z = np.asarray(logits, dtype=np.float64)
    z = z - np.max(z, axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def cross_entropy(logits: np.ndarray, target: np.ndarray) -> float:
    """-sum(target * log softmax(logits)), probabilities clamped at 1e-12."""
    target = validate_soft_label(target)
    p = softmax(np.asarray(logits, dtype=np.float64))
    if p.shape != target.shape:
        raise DimensionMismatch("target", p.shape, target.shape)
    return float(-(target * np.log(np.maximum(p, CE_PROB_FLOOR))).sum())


def _backward(params: ModelParams, pres, acts, dlogits,
              need_params: bool, need_input: bool):
    """Backprop the cotangent dlogits (B, C); returns (param grads or None, dX or None)."""
    gW = [None] * len(params.weights)
    gb = [None] * len(params.biases)
    delta = dlogits
    for k in range(len(params.weights) - 1, -1, -1):
        if need_params:
            gW[k] = acts[k].T @ delta
            gb[k] = delta.sum(axis=0)
        if k > 0 or need_input:
            delta = delta @ params.weights[k].T
            if k > 0:
                delta = delta * (pres[k - 1] > 0.0)
    return (gW, gb) if need_params else None, (delta if need_input else None)


def _grad_params_weighted(params: ModelParams, X: np.ndarray, targets: np.ndarray,
                          row_weights: np.ndarray):
    """Gradient of sum_r w_r * CE(logits_r, target_r) w.r.t. params.

    Returns ((gW list, gb list), per-row CE values). The exact CE cotangent is
    d CE/d logits = softmax - target, scaled per row by w_r.
    """
    logits, pres, acts = _forward_cached(params, X)
    probs = softmax(logits)
    dlogits = (probs - targets) * row_weights[:, None]
    grads, _ = _backward(params, pres, acts, dlogits, need_params=True, need_input=False)
    ce = -(targets * np.log(np.maximum(probs, CE_PROB_FLOOR))).sum(axis=1)
    return grads, ce


def grad_params(params: ModelParams, batch) -> tuple:
    """Mean cross-entropy gradient over a batch of (x, soft target) pairs.

    Returns (gW, gb) lists shaped like params.weights / params.biases.
    """
    xs, ts = zip(*batch)
    X = np.stack([np.asarray(x, dtype=np.float64) for x in xs])
    T = np.stack([validate_soft_label(t) for t in ts])
    if X.shape[1] != params.input_dim:
        raise DimensionMismatch("batch input", params.input_dim, X.shape[1])
    if T.shape[1] != params.class_count:
        raise DimensionMismatch("batch target", params.class_count, T.shape[1])
    w = np.full(len(batch), 1.0 / len(batch))
    grads, _ = _grad_params_weighted(params, X, T, w)
    return grads


def grad_input(params: ModelParams, x: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Gradient of CE(forward(params, x), target) with respect to x."""
    X, squeezed = _as_batch(params, x)
    if squeezed:
        T = validate_soft_label(target)[None, :]
    else:
        T = np.stack([validate_soft_label(t) for t in np.asarray(target)])
    logits, pres, acts = _forward_cached(params, X)
    dlogits = softmax(logits) - T
    _, dX = _backward(params, pres, acts, dlogits, need_params=False, need_input=True)
    return dX[0] if squeezed else dX


def class_prob_grad_input(params: ModelParams, X: np.ndarray, class_idx) -> tuple:
    """Softmax of each row and the input gradient of a chosen class's probability.

    class_idx is a scalar or an (B,) array of class indices. Returns
    (probs (B, C), grads (B, d)), where grads[r] is the gradient of
    probs[r, class_idx[r]]. Cotangent: d softmax_y / d logits_j
    = p_y * (1[y=j] - p_j).
    """
    X, _ = _as_batch(params, X)
    idx = np.broadcast_to(np.asarray(class_idx, dtype=np.intp), (X.shape[0],))
    logits, pres, acts = _forward_cached(params, X)
    p = softmax(logits)
    rows = np.arange(X.shape[0])
    py = p[rows, idx]
    dlogits = -p * py[:, None]
    dlogits[rows, idx] += py
    _, dX = _backward(params, pres, acts, dlogits, need_params=False, need_input=True)
    return p, dX


@dataclass
class OptimizerState:
    """SGD-with-Nesterov-momentum state. The exact recursion (fixed, documented):

        g' = g + weight_decay * theta
        v  = momentum * v + g'
        theta = theta - lr * (g' + momentum * v)

    applied independently to every weight matrix and bias vector.
    """

    lr: float
    momentum: float = 0.0
    weight_decay: float = 0.0
    velocity: list = field(default=None)

    def __post_init__(self):
        if self.lr < 0 or not (0 <= self.momentum < 1) or self.weight_decay < 0:
            raise ValueError("need lr >= 0, 0 <= momentum < 1, weight_decay >= 0")


def sgd_nesterov_step(params: ModelParams, grads, state: OptimizerState) -> None:
    """One optimizer step, in place, following OptimizerState's recursion."""
    gW, gb = grads
    if state.velocity is None:
        state.velocity = [(np.zeros_like(W), np.zeros_like(b))
                          for W, b in zip(params.weights, params.biases)]
    for k in range(len(params.weights)):
        for theta, g, v in ((params.weights[k], gW[k], state.velocity[k][0]),
                            (params.biases[k], gb[k], state.velocity[k][1])):
            if theta.shape != g.shape:
                raise DimensionMismatch(f"grad for layer {k}", theta.shape, g.shape)
            gp = g + state.weight_decay * theta
            v *= state.momentum
            v += gp
            theta -= state.lr * (gp + state.momentum * v)


def save_checkpoint(path, params: ModelParams, init_stream: StreamId = None) -> None:
    obj = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "activation": "relu",
        "layer_sizes": params.layer_sizes,
        "init": init_stream.as_json() if init_stream is not None else None,
        "weights": [W.tolist() for W in params.weights],
        "biases": [b.tolist() for b in params.biases],
    }
    with open(path, "w", encoding="ascii") as fh:
        json.dump(obj, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


def load_checkpoint(path) -> tuple:
    """Load a checkpoint; returns (ModelParams, metadata dict)."""
    with open(path, "r", encoding="ascii") as fh:
        obj = json.load(fh)
    if obj.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"not a {CHECKPOINT_FORMAT} file: format={obj.get('format')!r}")
    if obj.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {obj.get('version')!r}")
    weights = [np.asarray(W, dtype=np.float64) for W in obj["weights"]]
    biases = [np.asarray(b, dtype=np.float64) for b in obj["biases"]]
    params = ModelParams(weights, biases)
    if params.layer_sizes != list(obj["layer_sizes"]):
        raise ValueError("checkpoint layer_sizes disagree with payload shapes")
    meta = {"init": obj.get("init"), "activation": obj["activation"]}
    return params, meta
