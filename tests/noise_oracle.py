"""Direct oracles for the noisy paths: every draw x + delta goes through the
whole net as an input row.

The library never forms these rows. It moves the noise through the first
layer instead, (x + delta) W1 = x W1 + delta W1, and draws CERTIFY's noise in
W1's row space. These are the plain versions it is checked against.
"""

import numpy as np

from nn_oracle import forward, grad_params_weighted
from smoothcert.nn import class_prob_grad_input, first_layer, forward_tail, softmax
from smoothcert.smoothing import COUNT_CHUNK, noise_factor


def direct_hard_class_counts(params, x, count, sigma, stream, chunk=2_000):
    """Counts of argmax f(x + delta) over `count` draws of delta = sigma * g,
    g ~ N(0, I_d), taken in order from the stream's one generator."""
    x = np.asarray(x, dtype=np.float64)
    gen = stream.generator()
    counts = np.zeros(params.class_count, dtype=np.int64)
    remaining = count
    while remaining > 0:
        m = min(remaining, chunk)
        noisy = gen.standard_normal((m, x.shape[0]))
        noisy *= sigma
        noisy += x
        preds = np.argmax(forward(params, noisy), axis=1)
        counts += np.bincount(preds, minlength=params.class_count)
        remaining -= m
    return counts


def allocating_hard_class_counts(params, x, count, sigma, stream):
    """hard_class_counts with fresh arrays for every chunk: the same draws,
    chunks and products, so the same counts and logits bit for bit.
    Returns (counts, each chunk's logits)."""
    X = np.asarray(x, dtype=np.float64)[None, :]
    R = noise_factor(params)
    gen = stream.generator()
    counts = np.zeros(params.class_count, dtype=np.int64)
    chunks = []
    remaining = count
    while remaining > 0:
        m = min(remaining, COUNT_CHUNK)
        g = gen.standard_normal((m, params.input_dim if R is None else R.shape[0]))
        g *= sigma
        z1 = first_layer(params, X, (g if R is None else g @ R)[None])
        chunks.append(forward_tail(params, z1))
        counts += np.bincount(np.argmax(chunks[-1], axis=1), minlength=params.class_count)
        remaining -= m
    return counts, chunks


def noisy_rows(X, deltas):
    """Rows x_b + delta_{b,i} in (b, i) order for shared (m, d) or per-point
    (B, m, d) noise."""
    X = np.asarray(X, dtype=np.float64)
    return (X[:, None, :] + deltas).reshape(-1, X.shape[1])


def direct_soft_predict(params, X, deltas):
    """(1/m) sum_i softmax(f(x_b + delta_i)) for each of the B points."""
    probs = softmax(forward(params, noisy_rows(X, deltas)))
    return probs.reshape(len(X), deltas.shape[-2], -1).mean(axis=1)


def direct_objective_and_grad(params, X, y, noises):
    """J = -log Fhat_y and its input gradient for B points under per-point
    noise (B, m, d), from one input gradient per noisy row."""
    B, m, d = noises.shape
    y = np.asarray(y, dtype=np.intp)
    probs, row_grads = class_prob_grad_input(params, noisy_rows(X, noises),
                                             np.repeat(y, m))
    fhat = probs.reshape(B, m, -1).mean(axis=1)
    fy = fhat[np.arange(B), y]
    grads = -row_grads.reshape(B, m, d).sum(axis=1) / (m * fy)[:, None]
    return -np.log(fy), grads, fhat


def direct_noisy_ce_grads(params, deltas, parts):
    """What nn.noisy_ce_grads computes, with every noisy row x_b + delta_{b,i}
    of every part (X, T, w) going through W1 as an input row: the gradient of
    sum over parts of (w/(B m)) sum CE(f(x_b + delta_{b,i}), t_b), and the
    mean CE of each part."""
    B, m, _ = deltas.shape
    rows = np.concatenate([noisy_rows(X, deltas) for X, _, _ in parts])
    targets = np.concatenate([np.repeat(T, m, axis=0) for _, T, _ in parts])
    weights = np.concatenate([np.full(B * m, w / (B * m)) for _, _, w in parts])
    grads, ce = grad_params_weighted(params, rows, targets, weights)
    return grads, [float(c.mean()) for c in np.split(ce, len(parts))]
