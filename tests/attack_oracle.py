"""Earlier forms of the attack loop, which tests check adversary.ascend against.

adversary.ascend takes no gradient at its last iterate, and callers that
want Fhat there run one forward. ascend_with_endpoint_gradient still
evaluates J, grad J and Fhat at every iterate, the last included, so tests
can check that the iterates, and the Fhat and J values that callers read,
keep their bits. ascend_allocating is the loop before it formed each step
in place: a fresh gradient, direction and iterate array per step, over the
allocating backward pass of nn_oracle. Both store the whole (T+1, B, d)
path, where adversary.ascend keeps only the iterates its caller names.
"""

import numpy as np

from nn_oracle import class_prob_grad_input_allocating
from smoothcert.adversary import GRAD_NORM_FLOOR, _objective_and_grad, l2_project, objective


def ascend_with_endpoint_gradient(params, X, y, noise, cfg):
    """adversary.ascend's arguments; returns points (T+1, B, d), fhat_path
    (T+1, B, C) and j_path (T+1, B)."""
    X0 = np.asarray(X, dtype=np.float64)
    cur = X0
    points = [X0]
    J, grads, fhat = _objective_and_grad(params, cur, y, noise)
    fhat_path, j_path = [fhat], [J]
    for _ in range(cfg.steps):
        norms = np.linalg.norm(grads, axis=1)
        move = norms > GRAD_NORM_FLOOR
        direction = np.where(move[:, None],
                             grads / np.maximum(norms, GRAD_NORM_FLOOR)[:, None], 0.0)
        cur = cur + cfg.alpha_step * direction
        if cfg.epsilon_cap is not None:
            cur = l2_project(cur, X0, cfg.epsilon_cap)
        points.append(cur)
        J, grads, fhat = _objective_and_grad(params, cur, y, noise)
        fhat_path.append(fhat)
        j_path.append(J)
    return np.stack(points), np.stack(fhat_path), np.stack(j_path)


def ascend_allocating(params, X, y, noise, cfg):
    """adversary.ascend's arguments; returns the whole path (T+1, B, d),
    fhat_path and j_path as ascend forms them, each step in fresh arrays."""
    X0 = np.asarray(X, dtype=np.float64)
    points = np.empty((cfg.steps + 1,) + X0.shape)
    fhat_path = np.empty((cfg.steps, len(X0), params.class_count))
    j_path = np.empty((cfg.steps, len(X0)))
    points[0] = cur = X0
    y = np.asarray(y, dtype=np.intp)
    m = noise.shape[-2]
    for t in range(cfg.steps):
        probs, grad_sums = class_prob_grad_input_allocating(params, cur, y, noise)
        fhat_path[t] = probs.reshape(len(X0), m, -1).mean(axis=1)
        j_path[t], fy = objective(fhat_path[t], y)
        grads = -grad_sums / (m * fy)[:, None]
        norms = np.linalg.norm(grads, axis=1)
        move = norms > GRAD_NORM_FLOOR
        direction = np.where(move[:, None],
                             grads / np.maximum(norms, GRAD_NORM_FLOOR)[:, None], 0.0)
        cur = cur + cfg.alpha_step * direction
        if cfg.epsilon_cap is not None:
            cur = l2_project(cur, X0, cfg.epsilon_cap)
        points[t + 1] = cur
    return points, fhat_path, j_path
