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

Two analyses run it on one point under one fixed noise batch:
attack_trajectory keeps every iterate, with Fhat and J at each (one forward
gives them at the endpoint, where ascend takes no gradient), and
equal_confidence_mixing_ratio scans the segment from x to its PGD point on a
fixed 101-point lambda grid, in increasing lambda and one forward at a time,
for the first lambda where the soft-smoothed argmax leaves the true class
(the argmax along the segment need not be monotone, so no bisection).

One point is a batch of one (B = 1). Gradients flow through the Monte Carlo
average exactly. When the gradient norm falls below 1e-12 the step is
skipped (the point repeats); this keeps the procedure deterministic for
degenerate classifiers. A NaN or infinite norm raises nn.NonFiniteError
rather than read as a zero gradient (NaN > 1e-12 is false).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nn import ModelParams, NonFiniteError, class_prob_grad_input, first_layer_noise
from .rng import StreamId
from .smoothing import sample_noise, soft_smoothed_chunks, soft_smoothed_predict

__all__ = [
    "AttackConfig",
    "objective",
    "ascend",
    "l2_project",
    "attack_trajectory",
    "equal_confidence_mixing_ratio",
]

GRAD_NORM_FLOOR = 1e-12
PROB_FLOOR = 1e-300
LAMBDA_GRID_POINTS = 101


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
    there runs one forward, as attack_trajectory does). When
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


def attack_trajectory(params: ModelParams, x: np.ndarray, y: int, noise: np.ndarray,
                      cfg: AttackConfig):
    """The attack from one point x (d,) of class y under one noise batch
    (m, d), as sample_noise draws it. Returns every iterate (T+1, d), and
    Fhat (T+1, C) and J (T+1,) at each; at the endpoint, where ascend takes
    no gradient, they come from one forward."""
    noise = first_layer_noise(params, np.asarray(noise)[None])
    y = np.array([int(y)])
    points, fhat_path, j_path = ascend(params, np.asarray(x, dtype=np.float64)[None], y,
                                       noise, cfg, keep=range(cfg.steps + 1))
    fhat_end = soft_smoothed_predict(params, points[-1], noise)
    return (np.concatenate(points), np.concatenate([fhat_path[:, 0], fhat_end]),
            np.concatenate([j_path[:, 0], objective(fhat_end, y)[0]]))


def equal_confidence_mixing_ratio(params: ModelParams, x: np.ndarray, y: int,
                                  sigma: float, pgd_steps: int, pgd_eps: float,
                                  estimation_m: int, stream: StreamId):
    """Smallest grid lambda where the smoothed argmax along x -> x_adv leaves y.

    x_adv comes from constrained PGD against the soft-smoothed classifier;
    the same fixed estimation noise batch (size estimation_m) is used for the
    attack and for every evaluation on the 101-point lambda grid. Returns
    None (not found) when the prediction at x already differs from y or when
    no grid point flips it. The arguments are checked first, whatever the data.
    """
    if not (sigma > 0 and pgd_steps >= 0 and pgd_eps > 0 and estimation_m >= 1):
        raise ValueError("need sigma > 0, pgd_steps >= 0, pgd_eps > 0 and "
                         "estimation_m >= 1")
    x = np.asarray(x, dtype=np.float64)
    noise = first_layer_noise(params, sample_noise(sigma, x.shape[0], estimation_m,
                                                   stream.child("estimate"))[None])
    fhat = soft_smoothed_predict(params, x[None, :], noise)[0]
    if int(np.argmax(fhat)) != int(y):
        return None
    pgd = AttackConfig(2.0 * pgd_eps / max(pgd_steps, 1), pgd_steps, pgd_eps)
    (x_adv,), _, _ = ascend(params, x[None, :], [int(y)], noise, pgd)  # (1, d)
    lams = np.linspace(0.0, 1.0, LAMBDA_GRID_POINTS)
    seg = (1.0 - lams)[:, None] * x[None, :] + lams[:, None] * x_adv
    # every grid point reuses the one batch: a view, not LAMBDA_GRID_POINTS copies
    grid_noise = np.broadcast_to(noise, (len(seg),) + noise.shape[1:])
    start = 0
    for fhat_seg in soft_smoothed_chunks(params, seg, grid_noise):
        flips = np.flatnonzero(np.argmax(fhat_seg, axis=1) != int(y))
        if len(flips):
            return float(lams[start + flips[0]])
        start += len(fhat_seg)
    return None
