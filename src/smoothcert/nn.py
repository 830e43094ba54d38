"""Dense ReLU classifier with exact analytic gradients, in float64.

The network is logits = L_k(relu(L_{k-1}(... relu(L_1(x)) ...))) with dense
layers L_i(h) = h @ W_i + b_i. Everything here is plain numpy; gradients are
hand-derived backprop, not autodiff. ReLU's subgradient at 0 is taken as 0.

Every forward starts at first_layer and ends in forward_tail, which refuses
a non-finite logit (NonFiniteError). Gaussian noise reaches the net only through W1, and
(x + delta) W1 = x W1 + delta W1, so when d > h1 (factors_noise) first_layer
takes the noise already through W1 (first_layer_noise): smoothing, the
attacks and training then never form a d-wide noisy input.

Two gradients share the one backward pass (_backward): class_prob_grad_input,
the input gradient the attacks ascend, and noisy_ce_grads, the parameter
gradient of the noisy-row cross-entropy that every training method takes a
step on (the optimizer is training's).

Checkpoint layout (format version 2, a binary file named checkpoint.json):
one ASCII line holding a JSON object with sorted keys,
    format:        "smoothcert.checkpoint"
    version:       2
    activation:    "relu"
    layer_sizes:   [d, h_1, ..., C]
    init:          {"master_seed": int, "path": [...]} or null
    payload_bytes: the payload's length in bytes
    sha256:        the payload's SHA-256, hex
then a newline and the payload: raw little-endian float64, per layer W
(row-major, fan_in x fan_out) and then b. The floats are stored bit-exactly,
so a save of loaded weights repeats the file's bytes. `head -1` shows the
header. The loader checks the length and digest and raises CheckpointError
for a truncated or corrupt file, a bad header, layer_sizes the payload does
not fit, or another format or version (version 1, nested JSON lists, is no
longer read).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from .rng import StreamId

__all__ = [
    "CheckpointError",
    "DimensionMismatch",
    "NonFiniteError",
    "ModelParams",
    "init_mlp",
    "factors_noise",
    "first_layer",
    "first_layer_noise",
    "forward_tail",
    "softmax",
    "class_prob_grad_input",
    "noisy_ce_grads",
    "save_checkpoint",
    "load_checkpoint",
]

CHECKPOINT_FORMAT = "smoothcert.checkpoint"
CHECKPOINT_VERSION = 2
CE_PROB_FLOOR = 1e-12


class CheckpointError(ValueError):
    """Raised for a checkpoint file that is truncated, corrupt or unreadable."""


class NonFiniteError(ValueError):
    """Raised where a NaN or an infinity appears: in weights, inputs, logits
    or gradients."""


class DimensionMismatch(ValueError):
    """Raised when an input's shape disagrees with the model's dimensions."""

    def __init__(self, what: str, expected, actual):
        super().__init__(f"{what}: expected {expected}, got {actual}")
        self.expected = expected
        self.actual = actual


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
                raise NonFiniteError(f"layer {k} has non-finite entries")

    @property
    def input_dim(self) -> int:
        return self.weights[0].shape[0]

    @property
    def class_count(self) -> int:
        return self.weights[-1].shape[1]

    @property
    def layer_sizes(self) -> list:
        return [self.input_dim] + [W.shape[1] for W in self.weights]


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


def factors_noise(params: ModelParams) -> bool:
    """Whether Gaussian noise enters the net after W1, as delta @ W1 (d > h1).

    Then delta @ W1 is narrower than delta: CERTIFY draws h1 normals in W1's
    row space instead of d, and a fixed noise batch goes through W1 once. At
    d <= h1 CERTIFY would draw as many normals, and the per-row product the
    fixed-noise paths would save is small next to the later layers, while
    the extra array operations cost more (two-moons ran 8% slower), so the
    noise is added to x, as x + delta.
    """
    W1 = params.weights[0]
    return W1.shape[0] > W1.shape[1]


def first_layer(params: ModelParams, X: np.ndarray, noise=None) -> np.ndarray:
    """Pre-activation of the first dense layer, X @ W1 + b1, for points X (B, d).

    With noise, B per-point batches of m draws (B, m, .) in the space
    factors_noise picks, as first_layer_noise gives them, it is the
    pre-activation of the B*m noisy rows x_b + delta_{b,i} in (b, i) order:
    x W1 + b1 + delta W1 when factors_noise, else (x + delta) W1 + b1. Points
    that share one batch take a broadcast view of it (np.broadcast_to).
    Every forward starts here, so this is the one input check:
    DimensionMismatch for X or noise of the wrong shape and NonFiniteError for
    non-finite X (argmax of a NaN row reads as class 0, so a bad input must
    not reach a prediction).
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != params.input_dim:
        raise DimensionMismatch("input", f"(*, {params.input_dim})", X.shape)
    if not np.isfinite(X).all():
        raise NonFiniteError("input has non-finite entries")
    W1, b1 = params.weights[0], params.biases[0]
    factored = noise is not None and factors_noise(params)
    if noise is not None:
        width = W1.shape[1] if factored else W1.shape[0]
        if (noise.ndim != 3 or noise.shape[0] != len(X) or noise.shape[1] < 1
                or noise.shape[2] != width):
            raise DimensionMismatch("noise", f"({len(X)}, m >= 1, {width})", noise.shape)
    # an overflow here reaches forward_tail, which raises NonFiniteError
    with np.errstate(over="ignore", invalid="ignore"):
        if noise is not None and not factored:
            X = (X[:, None, :] + noise).reshape(-1, X.shape[1])
        z = X @ W1
        z += b1
        if factored:
            z = (z[:, None, :] + noise).reshape(-1, W1.shape[1])
    return z


def first_layer_noise(params: ModelParams, deltas: np.ndarray) -> np.ndarray:
    """Per-point noise batches (B, m, d) as first_layer takes them.

    That is delta @ W1 when factors_noise, in one matrix product: a fixed
    batch shared by many inputs then goes through W1 once, and each input
    adds only x @ W1. Otherwise delta itself.
    """
    deltas = np.asarray(deltas, dtype=np.float64)
    if deltas.ndim != 3 or deltas.shape[1] < 1 or deltas.shape[2] != params.input_dim:
        raise DimensionMismatch("noise", f"(B, m >= 1, {params.input_dim})", deltas.shape)
    if not factors_noise(params):
        return deltas
    W1 = params.weights[0]
    with np.errstate(over="ignore", invalid="ignore"):  # as in first_layer
        z = deltas.reshape(-1, W1.shape[0]) @ W1
    return z.reshape(deltas.shape[:-1] + (W1.shape[1],))


def forward_tail(params: ModelParams, z1: np.ndarray, outs=None) -> np.ndarray:
    """Logits from the first layer's pre-activation z1 (rows, h1).

    The layers after the first, keeping only the current activation. The
    ReLUs run in place, so z1 is overwritten (a fresh array per layer made
    two-moons CERTIFY measurably slower). With outs, one (rows, fan_out)
    array per later layer, each layer's output is written there instead of
    to a fresh array, and the logits are outs[-1]; [z1, *outs[:-1]] then
    hold the inputs of the later layers, after their ReLUs, as _backward
    reads them. A single-layer net's z1 is already its logits. A NaN or
    infinite logit, which finite weights can make, raises NonFiniteError:
    argmax would read a NaN row as class 0.
    """
    h = z1
    # an overflow or NaN here is reported once, as the NonFiniteError below
    with np.errstate(over="ignore", invalid="ignore"):
        for k, (W, b) in enumerate(zip(params.weights[1:], params.biases[1:])):
            np.maximum(h, 0.0, out=h)
            h = np.matmul(h, W, out=None if outs is None else outs[k])
            h += b
    if not np.isfinite(h).all():
        raise NonFiniteError("non-finite logits")
    return h


def softmax(logits: np.ndarray) -> np.ndarray:
    """Stable softmax along the last axis (max subtraction before exp)."""
    z = np.asarray(logits, dtype=np.float64)
    z = z - np.max(z, axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _backward(params: ModelParams, acts, dlogits, need_params: bool):
    """Backprop the cotangent dlogits (rows, C) to the first layer's pre-activation.

    acts are the inputs of the layers after the first, [z1, *outs[:-1]] of
    forward_tail with outs. A ReLU passes the cotangent where its output
    is positive, which is where its input is. Returns (param grads or None,
    dz1). Of the param grads (gW, gb), gW[0] is None: like the input
    gradient dz1 @ W1.T, the first layer's weight gradient X.T @ dz1 is the
    caller's, so that rows sharing a point or a noise draw can be summed
    first.
    """
    gW = [None] * len(params.weights)
    gb = [None] * len(params.biases)
    delta = dlogits
    for k in range(len(params.weights) - 1, 0, -1):
        if need_params:
            gW[k] = acts[k - 1].T @ delta
            gb[k] = delta.sum(axis=0)
        delta = delta @ params.weights[k].T
        delta *= acts[k - 1] > 0.0
    if need_params:
        gb[0] = delta.sum(axis=0)
    return (gW, gb) if need_params else None, delta


def class_prob_grad_input(params: ModelParams, X: np.ndarray, class_idx,
                          noise=None) -> tuple:
    """Softmax of each row and the input gradient of a chosen class's probability.

    The rows are X's (B, d) or, with noise, the B*m noisy rows of
    first_layer. class_idx is a scalar or a (B,) array, one class per point.
    Returns (probs (rows, C), grads (B, d)), where grads[b] is the gradient
    at x_b of the sum of probs[r, class_idx[b]] over the point's m rows
    (m = 1 without noise). When factors_noise, the m first-layer cotangents
    are summed before the one product with W1.T. Cotangent:
    d softmax_y / d logits_j = p_y * (1[y=j] - p_j).
    """
    X = np.asarray(X, dtype=np.float64)
    B, m = len(X), 1 if noise is None else noise.shape[-2]
    idx = np.repeat(np.broadcast_to(np.asarray(class_idx, dtype=np.intp), (B,)), m)
    z1 = first_layer(params, X, noise)
    outs = [np.empty((len(z1), W.shape[1])) for W in params.weights[1:]]
    p = softmax(forward_tail(params, z1, outs))
    rows = np.arange(len(p))
    py = p[rows, idx]
    dlogits = -p * py[:, None]
    dlogits[rows, idx] += py
    _, dz1 = _backward(params, [z1, *outs[:-1]], dlogits, need_params=False)
    W1 = params.weights[0]
    if factors_noise(params):
        return p, dz1.reshape(B, m, -1).sum(axis=1) @ W1.T
    return p, (dz1 @ W1.T).reshape(B, m, -1).sum(axis=1)


def noisy_ce_grads(params: ModelParams, deltas: np.ndarray, noise: np.ndarray, parts):
    """Gradient of sum over parts (X, T, w) of (w/(B m)) sum CE(f(x_b + delta_{b,i}), t_b).

    X is (B, d), T the (B, C) targets, deltas the (B, m, d) per-example draws
    that every part shares and noise = first_layer_noise(params, deltas).
    All rows go through one backward pass, with the exact CE cotangent
    d CE/d logits = softmax - target scaled per row by w/(B m). When
    factors_noise, no row is d wide: part k enters as
    z1 = X_k W1 + b1 + delta W1, and
    gW1 = sum_k X_k^T (sum_i dz1_k) + delta^T (sum_k dz1_k). Otherwise the
    rows x_b + delta_{b,i} go through W1 as they are.
    Returns ((gW, gb), the mean CE of each part).
    """
    B, m, d = deltas.shape
    factored = factors_noise(params)
    if factored:
        z1 = np.concatenate([first_layer(params, X, noise) for X, _, _ in parts])
    else:
        rows = np.concatenate([X[:, None, :] + deltas for X, _, _ in parts]).reshape(-1, d)
        z1 = first_layer(params, rows)
    targets = np.concatenate([np.repeat(T, m, axis=0) for _, T, _ in parts])
    weights = np.concatenate([np.full(B * m, w / (B * m)) for _, _, w in parts])
    outs = [np.empty((len(z1), W.shape[1])) for W in params.weights[1:]]
    probs = softmax(forward_tail(params, z1, outs))
    (gW, gb), dz1 = _backward(params, [z1, *outs[:-1]], (probs - targets) * weights[:, None],
                              need_params=True)
    del outs  # not held through the gW1 products: 1.5 MiB of peak at 784-256-256-10
    ce = -(targets * np.log(np.maximum(probs, CE_PROB_FLOOR))).sum(axis=1)
    if factored:
        dz1 = dz1.reshape(len(parts), B, m, -1)
        gW[0] = deltas.reshape(B * m, d).T @ dz1.sum(axis=0).reshape(B * m, -1)
        for k, (X, _, _) in enumerate(parts):
            gW[0] += X.T @ dz1[k].sum(axis=1)
    else:
        gW[0] = rows.T @ dz1
    return (gW, gb), [float(c.mean()) for c in np.split(ce, len(parts))]


def save_checkpoint(path, params: ModelParams, init_stream: StreamId = None) -> None:
    """Write params as a format-2 checkpoint (see the module docstring).
    Params that fail ModelParams.validate, a non-finite entry among them,
    raise ValueError before the file is opened."""
    params.validate()
    blocks = [np.ascontiguousarray(a, dtype="<f8")
              for W, b in zip(params.weights, params.biases) for a in (W, b)]
    digest = hashlib.sha256()
    for block in blocks:
        digest.update(block)
    header = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "activation": "relu",
        "layer_sizes": params.layer_sizes,
        "init": init_stream.as_json() if init_stream is not None else None,
        "payload_bytes": sum(block.nbytes for block in blocks),
        "sha256": digest.hexdigest(),
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True, separators=(",", ":")).encode("ascii"))
        fh.write(b"\n")
        for block in blocks:
            fh.write(block)


def _read_checkpoint_header(line: bytes) -> dict:
    try:
        header = json.loads(line)
    except ValueError as exc:
        raise CheckpointError(f"checkpoint header is not JSON: {exc}") from exc
    if not isinstance(header, dict) or header.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(f"not a {CHECKPOINT_FORMAT} file")
    if header.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {header.get('version')!r}")
    sizes = header.get("layer_sizes")
    if (header.get("activation") != "relu" or not isinstance(sizes, list)
            or len(sizes) < 2
            or not all(type(s) is int and s >= 1 for s in sizes)
            or type(header.get("payload_bytes")) is not int
            or not isinstance(header.get("sha256"), str)):
        raise CheckpointError("checkpoint header is malformed")
    return header


def load_checkpoint(path) -> tuple:
    """Load a format-2 checkpoint; returns (ModelParams, metadata dict).

    The arrays are fresh, writeable, C-contiguous float64 copies.
    """
    with open(path, "rb") as fh:
        header = _read_checkpoint_header(fh.readline())
        payload = fh.read()
    sizes = header["layer_sizes"]
    shapes = [s for a, b in zip(sizes[:-1], sizes[1:]) for s in ((a, b), (b,))]
    expected = 8 * sum(int(np.prod(shape)) for shape in shapes)
    if header["payload_bytes"] != expected:
        raise CheckpointError(f"layer_sizes {sizes} need a {expected}-byte payload, "
                              f"header says {header['payload_bytes']}")
    if len(payload) != expected:
        raise CheckpointError(f"checkpoint payload holds {len(payload)} bytes, "
                              f"header says {expected}")
    if hashlib.sha256(payload).hexdigest() != header["sha256"]:
        raise CheckpointError("checkpoint payload does not match its sha256")
    arrays, offset = [], 0
    for shape in shapes:
        count = int(np.prod(shape))
        arrays.append(np.frombuffer(payload, dtype="<f8", count=count, offset=offset)
                      .reshape(shape).astype(np.float64))
        offset += 8 * count
    params = ModelParams(arrays[0::2], arrays[1::2])
    meta = {"init": header["init"], "activation": header["activation"]}
    return params, meta
