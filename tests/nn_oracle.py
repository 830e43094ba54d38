"""The single-example network API, which only tests use.

The library has one batched backprop: training reaches the net through
nn.noisy_ce_grads, the attacks through nn.class_prob_grad_input.
These are the per-example forms the tests check it in: the logits of one
input or a batch, the cross-entropy of one row, and its gradients with
respect to the parameters and to the input. The gradients run the library's
own passes (nn.forward_tail, nn._backward) on input rows as they are, so a
finite-difference check of them checks the backprop that training runs.
"""

import numpy as np

from smoothcert import nn, training
from smoothcert.nn import CE_PROB_FLOOR, DimensionMismatch, first_layer, forward_tail, softmax
from smoothcert.rng import StreamId


class ModelParams(nn.ModelParams):
    """nn.ModelParams with a deep copy, for tests that perturb one weight."""

    def copy(self) -> "ModelParams":
        return ModelParams([W.copy() for W in self.weights],
                           [b.copy() for b in self.biases])


def init_mlp(layer_sizes, stream: StreamId) -> ModelParams:
    """nn.init_mlp's parameters, as the copyable ModelParams."""
    params = nn.init_mlp(layer_sizes, stream)
    return ModelParams(params.weights, params.biases)


def stream_id_from_json(obj: dict) -> StreamId:
    """The StreamId whose as_json() is obj."""
    return StreamId(int(obj["master_seed"]), tuple(obj["path"]))


def validate_soft_label(probs, tol: float = 1e-9) -> np.ndarray:
    """Check that probs is a valid distribution: entries in [0,1], sum within tol of 1."""
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim != 1:
        raise DimensionMismatch("soft label", "1-D vector", probs.shape)
    training._check_soft_rows(probs, tol)
    return probs


def forward(params, x) -> np.ndarray:
    """Logits for one input (d,) or a batch (B, d); output matches input ndim."""
    x = np.asarray(x, dtype=np.float64)
    squeezed = x.ndim == 1
    h = forward_tail(params, first_layer(params, x[None, :] if squeezed else x))
    return h[0] if squeezed else h


def cross_entropy(logits, target) -> float:
    """-sum(target * log softmax(logits)), probabilities clamped at 1e-12."""
    target = validate_soft_label(target)
    p = softmax(np.asarray(logits, dtype=np.float64))
    if p.shape != target.shape:
        raise DimensionMismatch("target", p.shape, target.shape)
    return float(-(target * np.log(np.maximum(p, CE_PROB_FLOOR))).sum())


def grad_params(params, batch) -> tuple:
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
    grads, _ = grad_params_weighted(params, X, T, np.full(len(batch), 1.0 / len(batch)))
    return grads


def grad_params_weighted(params, X, T, w) -> tuple:
    """Gradient of sum_r w_r CE(f(x_r), t_r) over input rows X (rows, d): the
    CE cotangent w_r (softmax - t_r) through one backward pass, with the
    first layer's weight gradient X.T @ dz1 formed from every row.
    Returns ((gW, gb), per-row CE values)."""
    z1 = first_layer(params, X)
    outs = [np.empty((len(z1), W.shape[1])) for W in params.weights[1:]]
    probs = softmax(forward_tail(params, z1, outs))
    (gW, gb), dz1 = nn._backward(params, [z1, *outs[:-1]], (probs - T) * w[:, None],
                                 need_params=True)
    gW[0] = X.T @ dz1
    return (gW, gb), -(T * np.log(np.maximum(probs, CE_PROB_FLOOR))).sum(axis=1)


def grad_input(params, x, target) -> np.ndarray:
    """Gradient of CE(forward(params, x), target) with respect to x."""
    x = np.asarray(x, dtype=np.float64)
    squeezed = x.ndim == 1
    if squeezed:
        X, T = x[None, :], validate_soft_label(target)[None, :]
    else:
        X, T = x, np.stack([validate_soft_label(t) for t in np.asarray(target)])
    z1 = first_layer(params, X)
    outs = [np.empty((len(z1), W.shape[1])) for W in params.weights[1:]]
    logits = forward_tail(params, z1, outs)
    _, dz1 = nn._backward(params, [z1, *outs[:-1]], softmax(logits) - T, need_params=False)
    dX = dz1 @ params.weights[0].T
    return dX[0] if squeezed else dX


def backward_allocating(params, acts, dlogits, need_params: bool):
    """nn._backward as it ran before it wrote each layer's cotangent into
    that layer's activation buffer: a fresh rows x width array per layer,
    acts left as they were. The differential tests check the in-place pass
    against it bit for bit."""
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


def class_prob_grad_input_allocating(params, X, class_idx, noise=None) -> tuple:
    """nn.class_prob_grad_input over backward_allocating, holding every
    activation to the end."""
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
    _, dz1 = backward_allocating(params, [z1, *outs[:-1]], dlogits, need_params=False)
    W1 = params.weights[0]
    if nn.factors_noise(params):
        return p, dz1.reshape(B, m, -1).sum(axis=1) @ W1.T
    return p, (dz1 @ W1.T).reshape(B, m, -1).sum(axis=1)


def noisy_ce_grads_allocating(params, deltas, noise, parts):
    """nn.noisy_ce_grads over backward_allocating, with a fresh array for
    each first-layer product and the row cotangents held through them."""
    B, m, d = deltas.shape
    factored = nn.factors_noise(params)
    if factored:
        z1 = np.concatenate([first_layer(params, X, noise) for X, _, _ in parts])
    else:
        rows = np.concatenate([X[:, None, :] + deltas for X, _, _ in parts]).reshape(-1, d)
        z1 = first_layer(params, rows)
    targets = np.concatenate([np.repeat(T, m, axis=0) for _, T, _ in parts])
    weights = np.concatenate([np.full(B * m, w / (B * m)) for _, _, w in parts])
    outs = [np.empty((len(z1), W.shape[1])) for W in params.weights[1:]]
    probs = softmax(forward_tail(params, z1, outs))
    (gW, gb), dz1 = backward_allocating(params, [z1, *outs[:-1]],
                                        (probs - targets) * weights[:, None],
                                        need_params=True)
    ce = -(targets * np.log(np.maximum(probs, CE_PROB_FLOOR))).sum(axis=1)
    if factored:
        dz1 = dz1.reshape(len(parts), B, m, -1)
        gW[0] = deltas.reshape(B * m, d).T @ dz1.sum(axis=0).reshape(B * m, -1)
        for k, (X, _, _) in enumerate(parts):
            gW[0] += X.T @ dz1[k].sum(axis=1)
    else:
        gW[0] = rows.T @ dz1
    return (gW, gb), [float(c.mean()) for c in np.split(ce, len(parts))]
