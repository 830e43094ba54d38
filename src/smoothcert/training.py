"""Training losses and loops: Gaussian augmentation, adversarial smoothing, SmoothMix.

Three training methods over the same optimizer and schedule:

- gaussian: L = (1/m) sum_i CE(f(x + delta_i), y) per example.
- smoothadv: the clean point is replaced by a PGD point found inside an l2
  epsilon ball around x (attacking the soft-smoothed classifier with the same
  noise batch used in the loss); epsilon ramps linearly over the first
  `warmup_epochs` epochs, reaching its full value exactly at the boundary.
- smoothmix: per example, sample one noise batch and one lambda ~ U([0, 1/2]),
  run the T-step unrestricted ascent, optionally replace the anchor with the
  first iterate (one-step variant, optionally capped), form the mix pair

      x_mix = (1 - lambda) * anchor + lambda * x_adv
      y_mix = (1 - lambda) * Fhat(anchor) + lambda * uniform

  and minimize (1/m) sum_i [ CE(f(anchor + delta_i), y)
                             + eta * CE(f(x_mix + delta_i), y_mix) ].

y_mix is a constant target: no parameter gradient flows through Fhat(anchor).
Per Alg-1 structure the one-step replacement happens before the mix pair is
built, so the anchor feeds the natural loss, the mix point, and y_mix alike.

Every example owns a private RNG stream that yields its noise batch first and
lambda second, so paired runs of different methods under one seed see
identical noise: a Philox generator keyed by the epoch stream
(master_seed, "train", epoch) whose counter starts at (0, 0, 0, index)
(`StreamId.indexed_generators`). Its draws depend on the example's index
only, not on the minibatch it lands in.
Minibatch gradients are computed by one stacked backward pass per minibatch;
the reduction order is fixed, making training bit-reproducible for a given
(config, seed).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .adversary import AttackConfig, _ascend_batch, l2_project
from .data import Dataset
from .nn import (ModelParams, OptimizerState, _check_soft_rows, _grad_params_weighted,
                 init_mlp, sgd_nesterov_step)
from .rng import StreamId, _is_int
from .smoothing import soft_smoothed_predict

__all__ = [
    "GaussianConfig",
    "SmoothAdvConfig",
    "SmoothMixConfig",
    "TrainRunConfig",
    "make_mix_pair",
    "train",
]

METHODS = ("gaussian", "smoothadv", "smoothmix")


@dataclass(frozen=True)
class GaussianConfig:
    sigma: float
    m: int = 1

    def __post_init__(self):
        if not self.sigma > 0 or self.m < 1:
            raise ValueError("need sigma > 0 and m >= 1")


@dataclass(frozen=True)
class SmoothAdvConfig:
    sigma: float
    m: int
    epsilon: float
    steps: int
    warmup_epochs: int = 10

    def __post_init__(self):
        if not self.sigma > 0 or self.m < 1:
            raise ValueError("need sigma > 0 and m >= 1")
        if not self.epsilon > 0 or self.steps < 1 or self.warmup_epochs < 1:
            raise ValueError("need epsilon > 0, steps >= 1, warmup_epochs >= 1")

    def epsilon_at(self, epoch: int) -> float:
        """Linear warm-up: epsilon * (epoch+1)/warmup_epochs, capped at epsilon."""
        return self.epsilon * min(1.0, (epoch + 1) / self.warmup_epochs)


@dataclass(frozen=True)
class SmoothMixConfig:
    sigma: float
    eta: float
    attack: AttackConfig
    m: int
    use_one_step: bool = False
    one_step_cap: float = None

    def __post_init__(self):
        if not self.sigma > 0 or not self.eta > 0 or self.m < 1:
            raise ValueError("need sigma > 0, eta > 0, m >= 1")
        if self.one_step_cap is not None and not self.one_step_cap > 0:
            raise ValueError("one_step_cap, when set, must be positive")


@dataclass(frozen=True)
class TrainRunConfig:
    method: str
    epochs: int
    batch_size: int
    lr: float
    lr_milestones: tuple = ()
    lr_gamma: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 1e-4
    seed: int = 0
    hidden: tuple = None  # None -> (256, 256) for 784-dim inputs, else (64, 64)

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be positive")
        # every comparison with NaN is false, so NaN is rejected too
        if not (self.lr >= 0 and self.lr_gamma >= 0 and 0 <= self.momentum < 1
                and self.weight_decay >= 0):
            raise ValueError("need lr >= 0, lr_gamma >= 0, 0 <= momentum < 1, "
                             "weight_decay >= 0")
        ms = tuple(self.lr_milestones)
        if any(b <= a for a, b in zip(ms, ms[1:])):
            raise ValueError("lr_milestones must be strictly increasing")
        object.__setattr__(self, "lr_milestones", ms)
        if self.hidden is not None:
            hidden = tuple(self.hidden)
            if not all(_is_int(h) and h >= 1 for h in hidden):
                raise ValueError(f"hidden sizes must be positive ints, got {hidden}")
            object.__setattr__(self, "hidden", tuple(map(int, hidden)))

    def lr_at(self, epoch: int) -> float:
        drops = sum(1 for ms in self.lr_milestones if epoch >= ms)
        return self.lr * (self.lr_gamma ** drops)

    def hidden_for(self, input_dim: int) -> tuple:
        if self.hidden is not None:
            return self.hidden
        return (256, 256) if input_dim >= 784 else (64, 64)


def make_mix_pair(x_base: np.ndarray, fhat_base: np.ndarray, x_adv: np.ndarray,
                  lam, class_count: int):
    """x_mix = (1-lam) x_base + lam x_adv; y_mix = (1-lam) fhat_base + lam/C.

    Broadcasts over a batch: x_base, x_adv (B, d), fhat_base (B, C) and lam
    (B,); one pair is the unbatched (d,), (C,), scalar call. Every lambda
    must lie in [0, 1/2] and every row of fhat_base must be a valid soft
    label. Returns (x_mix, y_mix).
    """
    lam = np.asarray(lam, dtype=np.float64)
    if not np.all((lam >= 0.0) & (lam <= 0.5)):
        raise ValueError(f"lambda must lie in [0, 1/2], got {lam}")
    fhat_base = np.asarray(fhat_base, dtype=np.float64)
    _check_soft_rows(fhat_base)
    lam = lam[..., None]
    x_mix = (1.0 - lam) * x_base + lam * x_adv
    y_mix = (1.0 - lam) * fhat_base + lam / class_count
    return x_mix, y_mix


def _minibatch_randomness(stream: StreamId, indices, m: int, dim: int, sigma: float):
    """Each example's private draws, in fixed order: noise batch, then lambda.

    stream is the epoch stream and indices the examples' dataset indices
    (`StreamId.indexed_generators`). Returns noises (B, m, dim) and lambdas (B,).
    """
    noises = np.empty((len(indices), m, dim))
    lams = np.empty(len(indices))
    for i, gen in enumerate(stream.indexed_generators(indices)):
        gen.standard_normal(out=noises[i])
        lams[i] = gen.uniform(0.0, 0.5)
    noises *= sigma
    return noises, lams


def _noisy_ce_step(params, noises, parts):
    """Gradient of sum over parts (X, T, w) of (w/(B m)) sum CE(f(x_b + delta_{b,i}), t_b).

    X is (B, d), T the (B, C) targets and noises the (B, m, d) per-example
    draws that every part shares. All rows go through one backward pass.
    Returns (grads, the mean CE of each part).
    """
    B, m, d = noises.shape
    rows = np.empty((len(parts), B, m, d))
    for k, (X, _, _) in enumerate(parts):
        np.add(X[:, None, :], noises, out=rows[k])
    rows = rows.reshape(-1, d)
    targets = np.concatenate([np.repeat(T, m, axis=0) for _, T, _ in parts])
    weights = np.concatenate([np.full(B * m, w / (B * m)) for _, _, w in parts])
    grads, ce = _grad_params_weighted(params, rows, targets, weights)
    return grads, [float(c.mean()) for c in np.split(ce, len(parts))]


def _gaussian_minibatch(params, X, Y, cfg: GaussianConfig, stream, indices):
    noises, _ = _minibatch_randomness(stream, indices, cfg.m, X.shape[1], cfg.sigma)
    grads, (loss,) = _noisy_ce_step(params, noises,
                                    [(X, np.eye(params.class_count)[Y], 1.0)])
    return grads, loss, 0.0


def _smoothadv_minibatch(params, X, Y, cfg: SmoothAdvConfig, stream, indices,
                         epoch: int):
    """The Gaussian step at each example's PGD endpoint, attacked under the
    example's own noise batch with steps of 2 epsilon_at(epoch) / steps."""
    noises, _ = _minibatch_randomness(stream, indices, cfg.m, X.shape[1], cfg.sigma)
    eps = cfg.epsilon_at(epoch)
    points, _, _ = _ascend_batch(params, X, Y, noises, 2.0 * eps / cfg.steps, cfg.steps,
                                 epsilon_cap=eps)
    grads, (loss,) = _noisy_ce_step(params, noises,
                                    [(points[-1], np.eye(params.class_count)[Y], 1.0)])
    return grads, loss, 0.0


def _smoothmix_minibatch(params, X, Y, cfg: SmoothMixConfig, stream, indices):
    """One SmoothMix step over B examples; B=1 is the single-example case.

    Returns (grads, mean natural loss, mean mix loss, diagnostics). The
    gradient is that of (1/(B m)) sum [CE_nat + eta CE_mix], with y_mix a
    constant target. Diagnostics hold the per-example anchor, x_adv, lambda,
    x_mix, y_mix and J path ((T+1, B)).
    """
    noises, lams = _minibatch_randomness(stream, indices, cfg.m, X.shape[1], cfg.sigma)
    points, fhat_path, j_path = _ascend_batch(
        params, X, Y, noises, cfg.attack.alpha_step, cfg.attack.steps,
        epsilon_cap=cfg.attack.epsilon_cap)
    x_adv = points[-1]
    # The anchor is x or, one-step, the first iterate (optionally capped). Its
    # Fhat comes from the attack path unless the cap moved it.
    anchor, fhat_anchor = X, fhat_path[0]
    if cfg.use_one_step and cfg.attack.steps >= 1:
        anchor, fhat_anchor = points[1], fhat_path[1]
        cap = cfg.one_step_cap
        if cap is not None and np.any(np.linalg.norm(anchor - X, axis=-1) > cap):
            anchor = l2_project(anchor, X, cap)
            fhat_anchor = soft_smoothed_predict(params, anchor, noises)
    x_mix, y_mix = make_mix_pair(anchor, fhat_anchor, x_adv, lams,
                                 params.class_count)
    grads, (loss_nat, loss_mix) = _noisy_ce_step(
        params, noises, [(anchor, np.eye(params.class_count)[Y], 1.0),
                         (x_mix, y_mix, cfg.eta)])
    diagnostics = {"anchor": anchor, "x_adv": x_adv, "lambda": lams,
                   "x_mix": x_mix, "y_mix": y_mix, "j_path": j_path}
    return grads, loss_nat, loss_mix, diagnostics


def train(dataset: Dataset, run_cfg: TrainRunConfig, method_cfg):
    """Minibatch SGD over the selected loss; returns (params, log rows).

    Deterministic given (dataset, configs, seed): initialization, the
    per-epoch shuffle, and every example's noise derive from named substreams
    of the master seed.
    """
    n = len(dataset.labels)
    if n == 0:
        raise ValueError("dataset is empty")
    expected = {"gaussian": GaussianConfig, "smoothadv": SmoothAdvConfig,
                "smoothmix": SmoothMixConfig}[run_cfg.method]
    if not isinstance(method_cfg, expected):
        raise ValueError(f"method {run_cfg.method!r} needs a {expected.__name__}")
    X_all = np.asarray(dataset.inputs, dtype=np.float64)
    Y_all = np.asarray(dataset.labels, dtype=np.intp)
    root = StreamId(run_cfg.seed)
    sizes = [X_all.shape[1], *run_cfg.hidden_for(X_all.shape[1]), dataset.class_count]
    params = init_mlp(sizes, root.child("init"))
    state = OptimizerState(lr=run_cfg.lr, momentum=run_cfg.momentum,
                           weight_decay=run_cfg.weight_decay)
    log_rows = []
    for epoch in range(run_cfg.epochs):
        t0 = time.perf_counter()
        state.lr = run_cfg.lr_at(epoch)
        order = root.child("shuffle", epoch).generator().permutation(n)
        stream = root.child("train", epoch)
        nat_sum = mix_sum = 0.0
        seen = 0
        for start in range(0, n, run_cfg.batch_size):
            idx = order[start:start + run_cfg.batch_size]
            X, Y = X_all[idx], Y_all[idx]
            if run_cfg.method == "gaussian":
                grads, loss_nat, loss_mix = _gaussian_minibatch(
                    params, X, Y, method_cfg, stream, idx)
            elif run_cfg.method == "smoothadv":
                grads, loss_nat, loss_mix = _smoothadv_minibatch(
                    params, X, Y, method_cfg, stream, idx, epoch)
            else:
                # the diagnostics hold the attack path: let them go now
                grads, loss_nat, loss_mix = _smoothmix_minibatch(
                    params, X, Y, method_cfg, stream, idx)[:3]
            sgd_nesterov_step(params, grads, state)
            del grads  # not held through the next minibatch
            nat_sum += loss_nat * len(idx)
            mix_sum += loss_mix * len(idx)
            seen += len(idx)
        log_rows.append({
            "epoch": epoch,
            "loss_nat": nat_sum / seen,
            "loss_mix": mix_sum / seen,
            "lr": state.lr,
            "seconds": time.perf_counter() - t0,
        })
    return params, log_rows
