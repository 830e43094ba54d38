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
One step (_minibatch_step) serves all three methods: the CE at an anchor
and, for SmoothMix, an eta-weighted mix part, under one noise batch in one
nn.noisy_ce_grads call, so a minibatch's gradient is one stacked backward
pass; the reduction order is fixed, making training bit-reproducible for a
given (config, seed). The optimizer, SGD with Nesterov momentum
(sgd_nesterov_step), lives here.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .adversary import AttackConfig, ascend, l2_project
from .data import Dataset
from .nn import DimensionMismatch, NonFiniteError, first_layer_noise, init_mlp, noisy_ce_grads
from .rng import StreamId
from .smoothing import soft_smoothed_predict

__all__ = [
    "GaussianConfig",
    "SmoothAdvConfig",
    "SmoothMixConfig",
    "TrainRunConfig",
    "make_mix_pair",
    "train",
]

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


# The one table of methods (config.TRAIN_SCHEMA repeats its names).
METHODS = {"gaussian": GaussianConfig, "smoothadv": SmoothAdvConfig,
           "smoothmix": SmoothMixConfig}


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

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {tuple(METHODS)}, got {self.method!r}")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be positive")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        # every comparison with NaN is false, so NaN is rejected too
        if not (self.lr >= 0 and self.lr_gamma >= 0 and 0 <= self.momentum < 1
                and self.weight_decay >= 0):
            raise ValueError("need lr >= 0, lr_gamma >= 0, 0 <= momentum < 1, "
                             "weight_decay >= 0")
        # a milestone at epoch 0 or below would only rescale lr
        ms = tuple(self.lr_milestones)
        if any(b <= a for a, b in zip((0,) + ms, ms)):
            raise ValueError("lr_milestones must be strictly increasing and >= 1")
        object.__setattr__(self, "lr_milestones", ms)

    def lr_at(self, epoch: int) -> float:
        drops = sum(1 for ms in self.lr_milestones if epoch >= ms)
        return self.lr * (self.lr_gamma ** drops)

    def hidden_for(self, input_dim: int) -> tuple:
        """Hidden widths: (256, 256) for 784-dim inputs and up, else (64, 64)."""
        return (256, 256) if input_dim >= 784 else (64, 64)


def _check_soft_rows(probs: np.ndarray, tol: float = 1e-9) -> None:
    """Raise ValueError unless every row (last axis) of probs is a valid soft
    label; a NaN entry is not."""
    if not np.all((probs >= -tol) & (probs <= 1 + tol)):
        raise ValueError(f"soft label entries outside [0,1]: {probs}")
    s = probs.sum(axis=-1)
    if not np.all(np.abs(s - 1.0) <= tol):
        raise ValueError(f"soft label sums to {s!r}, not 1 within {tol}")


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


def _minibatch_randomness(stream: StreamId, indices, m: int, dim: int, sigma: float,
                          lambdas: bool):
    """Each example's private draws, in fixed order: noise batch, then lambda.

    stream is the epoch stream and indices the examples' dataset indices
    (`StreamId.indexed_generators`). Returns noises (B, m, dim) and, when
    lambdas is true (SmoothMix), lambdas (B,), else None: skipping the last
    draw moves no noise bit. 0.5 * gen.random() is gen.uniform(0.0, 0.5)
    bit for bit.
    """
    noises = np.empty((len(indices), m, dim))
    lams = np.empty(len(indices)) if lambdas else None
    for i, gen in enumerate(stream.indexed_generators(indices)):
        gen.standard_normal(out=noises[i])
        if lambdas:
            lams[i] = 0.5 * gen.random()
    noises *= sigma
    return noises, lams


def _minibatch_step(params, X, Y, cfg, stream, indices, epoch: int):
    """One minibatch's gradient under cfg's method; B=1 is one example.

    The CE is taken at an anchor, under each example's own noise batch: x
    (Gaussian), the PGD endpoint at epsilon_at(epoch) (SmoothAdv), or x or
    the one-step iterate (SmoothMix), which adds the eta-weighted CE at its
    mix pair (y_mix a constant target). Returns (grads, mean natural loss,
    mean mix loss or 0.0, diagnostics): for SmoothMix the per-example anchor,
    x_adv, lambda, x_mix, y_mix and J path ((T, B): J at every iterate but
    the last), else None. A non-finite gradient raises NonFiniteError.
    """
    mix = isinstance(cfg, SmoothMixConfig)
    deltas, lams = _minibatch_randomness(stream, indices, cfg.m, X.shape[1], cfg.sigma, mix)
    noise = first_layer_noise(params, deltas)
    anchor, diagnostics = X, None
    if isinstance(cfg, SmoothAdvConfig):
        eps = cfg.epsilon_at(epoch)
        pgd = AttackConfig(2.0 * eps / cfg.steps, cfg.steps, eps)
        anchor = ascend(params, X, Y, noise, pgd)[0][-1]
    elif mix:
        steps = cfg.attack.steps
        points, fhat_path, j_path = ascend(params, X, Y, noise, cfg.attack)
        # The anchor is x or, one-step, the first iterate (optionally capped):
        # iterate t of the attack path. Its Fhat comes from that path when the
        # loop took a gradient there; at the endpoint (t == steps), or where the
        # cap moved it (t set to steps), from one forward.
        t = 1 if cfg.use_one_step and steps >= 1 else 0
        anchor = points[t]
        cap = cfg.one_step_cap
        if t and cap is not None and np.any(np.linalg.norm(anchor - X, axis=-1) > cap):
            anchor, t = l2_project(anchor, X, cap), steps
        fhat_anchor = (fhat_path[t] if t < steps
                       else soft_smoothed_predict(params, anchor, noise))
        x_mix, y_mix = make_mix_pair(anchor, fhat_anchor, points[-1], lams,
                                     params.class_count)
        diagnostics = {"anchor": anchor, "x_adv": points[-1], "lambda": lams,
                       "x_mix": x_mix, "y_mix": y_mix, "j_path": j_path}
    parts = [(anchor, np.eye(params.class_count)[Y], 1.0)]
    if mix:
        parts.append((x_mix, y_mix, cfg.eta))
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        grads, losses = noisy_ce_grads(params, deltas, noise, parts)
    if not all(np.isfinite(g).all() for g in grads[0] + grads[1]):
        raise NonFiniteError("non-finite gradient")
    return grads, losses[0], losses[1] if mix else 0.0, diagnostics


def sgd_nesterov_step(params, grads, velocity, lr: float, momentum: float,
                      weight_decay: float) -> None:
    """One SGD step with Nesterov momentum, in place. The exact recursion:

        g' = g + weight_decay * theta
        v  = momentum * v + g'
        theta = theta - lr * (g' + momentum * v)

    applied independently to every weight matrix and bias vector. grads is
    (gW, gb) and velocity one (vW, vb) pair per layer, zeros before the
    first step. TrainRunConfig validates lr, momentum and weight_decay.
    """
    gW, gb = grads
    for k in range(len(params.weights)):
        for theta, g, v in ((params.weights[k], gW[k], velocity[k][0]),
                            (params.biases[k], gb[k], velocity[k][1])):
            if theta.shape != g.shape:
                raise DimensionMismatch(f"grad for layer {k}", theta.shape, g.shape)
            gp = g + weight_decay * theta
            v *= momentum
            v += gp
            theta -= lr * (gp + momentum * v)


def train(dataset: Dataset, run_cfg: TrainRunConfig, method_cfg):
    """Minibatch SGD over the selected loss; returns (params, log rows).

    Deterministic given (dataset, configs, seed): initialization, the
    per-epoch shuffle, and every example's noise derive from named substreams
    of the master seed. Only the current minibatch's rows are float64
    (dataset.rows), so uint8 images stay one byte per pixel. A non-finite
    logit or gradient raises NonFiniteError naming the epoch and minibatch.
    """
    n = len(dataset.labels)
    if n == 0:
        raise ValueError("dataset is empty")
    if not isinstance(method_cfg, need := METHODS[run_cfg.method]):
        raise ValueError(f"method {run_cfg.method!r} needs a {need.__name__}")
    Y_all = np.asarray(dataset.labels, dtype=np.intp)
    root = StreamId(run_cfg.seed)
    sizes = [dataset.dim, *run_cfg.hidden_for(dataset.dim), dataset.class_count]
    params = init_mlp(sizes, root.child("init"))
    velocity = [(np.zeros_like(W), np.zeros_like(b))
                for W, b in zip(params.weights, params.biases)]
    log_rows = []
    for epoch in range(run_cfg.epochs):
        t0 = time.perf_counter()
        lr = run_cfg.lr_at(epoch)
        order = root.child("shuffle", epoch).generator().permutation(n)
        stream = root.child("train", epoch)
        nat_sum = mix_sum = 0.0
        seen = 0
        for step, start in enumerate(range(0, n, run_cfg.batch_size)):
            idx = order[start:start + run_cfg.batch_size]
            X, Y = dataset.rows(idx), Y_all[idx]
            try:
                # the diagnostics hold the attack path: let them go now
                grads, loss_nat, loss_mix = _minibatch_step(
                    params, X, Y, method_cfg, stream, idx, epoch)[:3]
            except NonFiniteError as exc:
                raise NonFiniteError(f"epoch {epoch}, minibatch {step}: {exc}") from exc
            sgd_nesterov_step(params, grads, velocity, lr, run_cfg.momentum,
                              run_cfg.weight_decay)
            del grads  # not held through the next minibatch
            nat_sum += loss_nat * len(idx)
            mix_sum += loss_mix * len(idx)
            seen += len(idx)
        log_rows.append({
            "epoch": epoch,
            "loss_nat": nat_sum / seen,
            "loss_mix": mix_sum / seen,
            "lr": lr,
            "seconds": time.perf_counter() - t0,
        })
    return params, log_rows
