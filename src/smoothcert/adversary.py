"""Attacks on the soft-smoothed classifier: one batched loop, ascend.

Every attack here ascends the objective J(x) = -log((1/m) sum_i F_y(x + delta_i)),
the negative log of the Monte Carlo soft-smoothed true-class probability
over one fixed noise batch per point (the same m draws are reused at every
step). ascend takes T steps of exactly alpha_step in the direction
grad J / ||grad J|| and, when a cap is configured, projects each iterate
onto the l2 ball of that radius around its start point. It stores no
(T+1, B, d) path, only the iterates its caller names:

- SmoothMix's unrestricted attack is AttackConfig(alpha_step, T), keeping x
  or iterate 1 and the endpoint; the hard-restriction ablation adds the cap;
- SmoothAdv's PGD (Salman et al. 2019) is AttackConfig(2 epsilon / T, T,
  epsilon), which training and the mixing-ratio scan use, keeping the endpoint.

One point is a batch of one (B = 1). Gradients flow through the Monte Carlo
average exactly. When the gradient norm falls below 1e-12 the step is
skipped (the point repeats); this keeps the procedure deterministic for
degenerate classifiers. A NaN or infinite norm raises nn.NonFiniteError
rather than read as a zero gradient (NaN > 1e-12 is false).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nn import ModelParams, NonFiniteError, class_prob_grad_input

__all__ = [
    "AttackConfig",
    "objective",
    "ascend",
    "l2_project",
]

GRAD_NORM_FLOOR = 1e-12
PROB_FLOOR = 1e-300


@dataclass(frozen=True)
class AttackConfig:
    """Normalized-ascent parameters: step size, step count, optional l2 cap."""

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


def objective(fhat: np.ndarray, y: np.ndarray):
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
    J, fy = objective(fhat, y)
    grad_sums /= -(m * fy)[:, None]  # in place: the bits of -grad_sums / (m fy)
    return J, grad_sums, fhat


def ascend(params: ModelParams, X: np.ndarray, y: np.ndarray, noise: np.ndarray,
           cfg: AttackConfig, keep=(-1,)):
    """cfg.steps normalized-ascent steps on J from each of the B points X (B, d).

    y holds the points' classes and noise their noise batches as
    nn.first_layer takes them (nn.first_layer_noise; formed once by the
    caller, which may reuse it). Returns (iterates, fhat_path (T, B, C),
    j_path (T, B)): the (B, d) iterates keep names, indexed as in a list of
    all T+1 (0 is X, -1 the endpoint), and Fhat and J at every iterate but
    the last, where the loop takes no gradient (a caller that wants Fhat
    there runs one forward, smoothing.soft_smoothed_predict). When
    cfg.epsilon_cap is set, every iterate is projected onto that ball
    around its start point: PGD's constraint, or the hard-restriction
    ablation. Each step turns its gradient into the step alpha * direction
    in place and adds the current iterate into that buffer, which holds the
    next iterate; an iterate keep does not name is then dropped.
    """
    X0 = np.asarray(X, dtype=np.float64)
    keep = [range(cfg.steps + 1)[t] for t in keep]  # IndexError past either end
    fhat_path = np.empty((cfg.steps, len(X0), params.class_count))
    j_path = np.empty((cfg.steps, len(X0)))
    kept, cur = {}, X0
    for t in range(cfg.steps):
        if t in keep:
            kept[t] = cur
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            j_path[t], step, fhat_path[t] = _objective_and_grad(params, cur, y, noise)
            norms = np.linalg.norm(step, axis=1)
        if not np.isfinite(norms).all():
            raise NonFiniteError(f"non-finite attack gradient at step {t}")
        step /= np.maximum(norms, GRAD_NORM_FLOOR)[:, None]
        step[norms <= GRAD_NORM_FLOOR] = 0.0  # a skipped step: the point repeats
        step *= cfg.alpha_step
        cur = np.add(cur, step, out=step)
        if cfg.epsilon_cap is not None:
            cur = l2_project(cur, X0, cfg.epsilon_cap)
    kept[cfg.steps] = cur
    return [kept[t] for t in keep], fhat_path, j_path
