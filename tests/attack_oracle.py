"""The attack loop as it ran before it stopped taking the endpoint gradient.

adversary.ascend takes no gradient at its last iterate, and callers that
want Fhat there run one forward. This loop still evaluates J, grad J and
Fhat at every iterate, the last included, so tests can check that the
iterates, and the Fhat and J values that callers read, keep their bits.
"""

import numpy as np

from smoothcert.adversary import GRAD_NORM_FLOOR, _objective_and_grad, l2_project


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
