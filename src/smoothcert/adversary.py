"""Attacks on the soft-smoothed classifier.

Both attacks ascend the objective J(x) = -log((1/m) sum_i F_y(x + delta_i)),
the negative log of the Monte Carlo soft-smoothed true-class probability over
one fixed noise batch (the same m draws are reused at every step):

- the unrestricted normalized-ascent attack takes T steps of exactly
  alpha_step in the direction grad J / ||grad J||, optionally projecting each
  iterate onto an l2 ball when a hard cap is configured;
- the constrained PGD variant takes normalized steps and projects onto the
  epsilon ball around the start point after every step.

Gradients flow through the Monte Carlo average exactly. When the gradient
norm falls below 1e-12 the step is skipped (the point repeats); this keeps
the procedure deterministic for degenerate classifiers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nn import ModelParams, class_prob_grad_input, first_layer_noise
from .smoothing import soft_smoothed_predict

__all__ = [
    "AttackConfig",
    "AttackTrajectory",
    "smoothmix_attack",
    "smoothadv_pgd",
    "l2_project",
]

GRAD_NORM_FLOOR = 1e-12
PROB_FLOOR = 1e-300


@dataclass(frozen=True)
class AttackConfig:
    """Unrestricted-ascent parameters: step size, step count, optional l2 cap."""

    alpha_step: float
    steps: int
    epsilon_cap: float = None

    def __post_init__(self):
        if not self.alpha_step > 0:
            raise ValueError("alpha_step must be positive")
        if self.steps < 0:
            raise ValueError("steps must be >= 0")
        if self.epsilon_cap is not None and not self.epsilon_cap > 0:
            raise ValueError("epsilon_cap, when set, must be positive")


@dataclass(frozen=True)
class AttackTrajectory:
    """All iterates of one attack plus the smoothed soft predictions along them.

    points has shape (T+1, d) with points[0] == x; fhat_path has shape
    (T+1, C) holding the soft-smoothed prediction at every iterate under the
    shared noise batch; j_path holds J at every iterate.
    """

    points: np.ndarray
    fhat_path: np.ndarray
    j_path: np.ndarray


def l2_project(points: np.ndarray, centers: np.ndarray, radius: float) -> np.ndarray:
    """Project each row of points onto the closed l2 ball of radius around its center.

    Rows are the last axis, so one point (d,) and a batch (B, d) both work.
    Always returns a new array: a copy of points when every row already lies
    in its ball; otherwise every row becomes center + diff * scale, with
    scale 1 for the rows inside.
    """
    if not radius > 0:
        raise ValueError("radius must be positive")
    points = np.asarray(points, dtype=np.float64)
    centers = np.asarray(centers, dtype=np.float64)
    diff = points - centers
    dist = np.linalg.norm(diff, axis=-1)
    if not np.any(dist > radius):
        return points.copy()
    scale = radius / np.maximum(dist, radius)  # exactly 1 inside the ball
    return centers + diff * scale[..., None]


def _objective(fhat: np.ndarray, y: np.ndarray):
    """J = -log Fhat_y (B,) from the soft-smoothed predictions fhat (B, C),
    and the floored Fhat_y."""
    fy = np.maximum(fhat[np.arange(len(fhat)), y], PROB_FLOOR)
    return -np.log(fy), fy


def _objective_and_grad(params: ModelParams, X: np.ndarray, y: np.ndarray,
                        noise: np.ndarray):
    """J and grad_x J for B points at once, under per-point noise batches as
    nn.first_layer takes them (nn.first_layer_noise).

    grad J = -(sum_i grad F_y(x + delta_i)) / (m * Fhat_y), from the chain
    rule through the Monte Carlo mean. Fhat is the mean of the softmax the
    gradient pass already computes. Returns (J (B,), grads (B, d), fhat (B, C)).
    """
    B, m = len(X), noise.shape[-2]
    y = np.asarray(y, dtype=np.intp)
    probs, grad_sums = class_prob_grad_input(params, X, y, noise)
    fhat = probs.reshape(B, m, -1).mean(axis=1)
    J, fy = _objective(fhat, y)
    grads = -grad_sums / (m * fy)[:, None]
    return J, grads, fhat


def _ascend_batch(params: ModelParams, X: np.ndarray, y: np.ndarray,
                  noise: np.ndarray, alpha_step: float, steps: int,
                  epsilon_cap=None):
    """Shared normalized-ascent loop over a batch of points.

    noise holds per-point noise batches as nn.first_layer takes them
    (nn.first_layer_noise; formed once by the caller, which may reuse it).
    Returns (points (T+1, B, d), fhat_path (T, B, C), j_path (T, B)): every
    iterate, and Fhat and J at every iterate but the last, where the loop
    takes no gradient (a caller that wants Fhat there runs one forward,
    smoothing.soft_smoothed_predict). When epsilon_cap is set, every iterate
    is projected onto that ball around its start point: PGD's constraint, or
    the hard-restriction ablation.
    """
    X0 = np.asarray(X, dtype=np.float64)
    points = np.empty((steps + 1,) + X0.shape)
    fhat_path = np.empty((steps, len(X0), params.class_count))
    j_path = np.empty((steps, len(X0)))
    points[0] = cur = X0
    for t in range(steps):
        j_path[t], grads, fhat_path[t] = _objective_and_grad(params, cur, y, noise)
        norms = np.linalg.norm(grads, axis=1)
        move = norms > GRAD_NORM_FLOOR
        direction = np.where(move[:, None], grads / np.maximum(norms, GRAD_NORM_FLOOR)[:, None], 0.0)
        cur = cur + alpha_step * direction
        if epsilon_cap is not None:
            cur = l2_project(cur, X0, epsilon_cap)
        points[t + 1] = cur
    return points, fhat_path, j_path


def smoothmix_attack(params: ModelParams, x: np.ndarray, y: int,
                     noise: np.ndarray, cfg: AttackConfig) -> AttackTrajectory:
    """T-step unrestricted normalized gradient ascent on J from x.

    Each step moves exactly alpha_step along grad J / ||grad J|| (skipped when
    the gradient vanishes); when cfg.epsilon_cap is set, every iterate is
    projected back onto that ball around x after the step. The given noise
    batch (m, d) is reused for every step, and the soft-smoothed prediction
    is recorded at every iterate: from the gradient pass along the way, and
    from one forward at the endpoint.
    """
    x = np.asarray(x, dtype=np.float64)
    noise = first_layer_noise(params, np.asarray(noise)[None])
    y = np.array([int(y)])
    points, fhat_path, j_path = _ascend_batch(params, x[None, :], y, noise, cfg.alpha_step,
                                              cfg.steps, epsilon_cap=cfg.epsilon_cap)
    fhat_end = soft_smoothed_predict(params, points[-1], noise)
    j_end, _ = _objective(fhat_end, y)
    return AttackTrajectory(points=points[:, 0, :],
                            fhat_path=np.concatenate([fhat_path[:, 0, :], fhat_end]),
                            j_path=np.concatenate([j_path[:, 0], j_end]))


def smoothadv_pgd(params: ModelParams, x: np.ndarray, y: int, noise: np.ndarray,
                  steps: int, step_size: float, epsilon: float) -> np.ndarray:
    """Projected normalized gradient ascent on J within the epsilon ball at x,
    under one fixed batch of draws as nn.first_layer_noise gives it."""
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    if not step_size > 0:
        raise ValueError("step_size must be positive")
    if steps < 0:
        raise ValueError("steps must be >= 0")
    x = np.asarray(x, dtype=np.float64)
    points, _, _ = _ascend_batch(params, x[None, :], np.array([int(y)]), noise[None],
                                 step_size, steps, epsilon_cap=epsilon)
    return points[-1, 0, :]
