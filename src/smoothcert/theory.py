"""Monte Carlo check of the dimension-decay bound for scale-varying noise.

The bound under test: when a smoothing scheme keeps the noise scale near
sigma with probability p (over the interval [sigma^2 - k, sigma^2 + k] of the
per-sample squared scale), the probability that a tau-scaled sample lands in
the same interval after an epsilon-size shift decays like C/d with an
explicit constant C. The infimum over classifiers is never searched: the
chi-square-interval event simulated here upper-bounds it, so verifying
estimate <= C/d (+ Monte Carlo slack) checks the bound. Do not read the
estimate as the exact worst case.

Noise families are unit-variance, zero-mean, finite fourth moment;
E[r^4] - 1 enters the constant. rademacher is degenerate
(|delta|^2 = d exactly, k = 0) and is excluded from default runs.

The shift z is epsilon along the first coordinate axis, so both estimates
need only |delta|^2 and epsilon * delta_1 per trial. The gaussian family draws
those from their exact law (a normal and a chi-square per trial, O(trials)
work); the other families draw full (trials x d) rows in chunks.
"""

from __future__ import annotations

import math
from concurrent.futures import Future
from dataclasses import dataclass, replace

import numpy as np

from .rng import StreamId, map_streams

__all__ = [
    "FAMILY_FOURTH_MOMENT",
    "TheorySimConfig",
    "DecayRow",
    "DecayReport",
    "interval_halfwidth_k",
    "lemma_constant_C",
    "d_threshold",
    "decay_dims",
    "verify_decay",
]

# E[r^4] for each unit-variance family. uniform_pm is U([-sqrt(3), sqrt(3)]).
FAMILY_FOURTH_MOMENT = {"gaussian": 3.0, "rademacher": 1.0, "uniform_pm": 1.8}

_SQRT3 = math.sqrt(3.0)
# Non-gaussian families: rows per sampling chunk are capped so that the one
# buffer a stage allocates stays at 512 KiB, cache-sized and under
# cli.MALLOC_MMAP_THRESHOLD (the heap reuses it from stage to stage), for
# each of the stages verify_decay runs side by side. Chunks are drawn
# sequentially from ONE generator, so results do not depend on the chunk size.
_CHUNK_ELEMENTS = 1 << 16


@dataclass(frozen=True)
class TheorySimConfig:
    """Parameters of the decay bound hypotheses plus the simulation budget."""

    d: int
    sigma: float
    tau: float
    epsilon: float
    p: float
    noise_family: str = "gaussian"
    trials: int = 1_000_000

    def __post_init__(self):
        if self.noise_family not in FAMILY_FOURTH_MOMENT:
            raise ValueError(f"unknown noise family {self.noise_family!r}")
        if not (isinstance(self.d, int) and self.d >= 1):
            raise ValueError("d must be a positive integer")
        if not (self.sigma > 0 and self.tau > 0):
            raise ValueError("sigma and tau must be positive")
        if self.sigma == self.tau:
            raise ValueError("sigma must differ from tau")
        if not 0.0 < self.epsilon <= 0.5:
            raise ValueError("epsilon must be in (0, 1/2]")
        if not 0.5 < self.p < 1.0:
            raise ValueError("p must be in (0.5, 1)")
        if not (isinstance(self.trials, int) and self.trials >= 1):
            raise ValueError("trials must be a positive integer")


def _draw_rows(gen: np.random.Generator, family: str, out: np.ndarray) -> np.ndarray:
    """Fill out (rows x d) with i.i.d. draws of `family` and return it.

    uniform_pm scales gen.random in place: low + (high - low) * u is what
    gen.uniform(-sqrt(3), sqrt(3)) computes from the same doubles u, bit for
    bit, without a new array per chunk.
    """
    if family == "rademacher":
        out[...] = gen.integers(0, 2, size=out.shape)
        out *= 2.0
        out -= 1.0
        return out
    gen.random(out=out)
    out *= _SQRT3 - -_SQRT3
    out += -_SQRT3
    return out


def _noise_stats(gen: np.random.Generator, family: str, trials: int, d: int,
                 shift: float | None = None):
    """Yield (|delta|^2, shift * delta_1) chunk by chunk for `trials` noise
    draws; the second is None when shift is None.

    gaussian: N(0, I_d) has independent coordinates, so with u ~ N(0, 1)
    standing for delta_1, |delta|^2 = u^2 + chi2_{d-1} (chi2_0 = 0). One
    chunk, 2 * trials draws. The other families draw rows into one chunk
    buffer, allocated once.
    """
    if family == "gaussian":
        u = gen.standard_normal(trials)
        sq = u * u
        if d > 1:
            sq += gen.chisquare(d - 1, trials)
        yield sq, None if shift is None else shift * u
        return
    step = min(trials, max(1, _CHUNK_ELEMENTS // d))
    buf = np.empty((step, d))
    for done in range(0, trials, step):
        delta = _draw_rows(gen, family, buf[:min(step, trials - done)])
        yield (np.einsum("ij,ij->i", delta, delta),
               None if shift is None else shift * delta[:, 0])


def interval_halfwidth_k(cfg: TheorySimConfig, trials: int,
                         stream: StreamId) -> float:
    """Empirical p-quantile of |sigma^2 |delta|^2 / d - sigma^2|.

    This is the half-width k of the tightest symmetric interval around
    sigma^2 that the per-sample squared scale hits with probability ~p.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    s2 = cfg.sigma ** 2
    devs = np.empty(trials)
    done = 0
    for sq, _ in _noise_stats(stream.generator(), cfg.noise_family, trials,
                              cfg.d):
        # |s2 * sq / d - s2|, in that order of operations, in place
        dev = devs[done:done + len(sq)]
        np.multiply(s2, sq, out=dev)
        dev /= cfg.d
        dev -= s2
        np.abs(dev, out=dev)
        done += len(sq)
    return float(np.quantile(devs, cfg.p, overwrite_input=True))


def _event_values(cfg: TheorySimConfig, stream: StreamId) -> np.ndarray:
    """|tau*delta + z|^2 / d for each of cfg.trials draws of delta, with z
    epsilon along the first axis; the event counts the values inside the
    k-interval."""
    tau, eps = cfg.tau, cfg.epsilon
    values = np.empty(cfg.trials)
    done = 0
    for sq, dz in _noise_stats(stream.generator(), cfg.noise_family,
                               cfg.trials, cfg.d, eps):
        # |tau*delta + z|^2 = tau^2|delta|^2 + 2*tau*(eps*delta_1) + eps^2,
        # in that order of operations, in place
        val = values[done:done + len(sq)]
        np.multiply(tau * tau, sq, out=val)
        dz *= 2.0 * tau
        val += dz
        val += eps * eps
        val /= cfg.d
        done += len(sq)
    return values


def _event_estimate(cfg: TheorySimConfig, values: np.ndarray,
                    k: float) -> tuple[float, float]:
    """(estimate, std_error): the share of values in [sigma^2 - k,
    sigma^2 + k], the event's Monte Carlo probability, and its binomial SE."""
    lo, hi = cfg.sigma ** 2 - k, cfg.sigma ** 2 + k
    est = int(np.count_nonzero((values >= lo) & (values <= hi))) / cfg.trials
    return est, math.sqrt(est * (1.0 - est) / cfg.trials)


def _constant_terms(cfg: TheorySimConfig) -> tuple[float, float, float]:
    eta2 = FAMILY_FOURTH_MOMENT[cfg.noise_family] - 1.0
    s2, t2, e2 = cfg.sigma ** 2, cfg.tau ** 2, cfg.epsilon ** 2
    term1 = 4.0 * s2 * s2 * eta2 / ((t2 - s2) ** 2 * (1.0 - cfg.p))
    term2 = 6.0 * e2 / (s2 + t2)
    term3 = (36.0 * t2 * t2 * eta2 + 144.0 * t2 * e2) / (s2 + t2) ** 2
    return term1, term2, term3


def lemma_constant_C(cfg: TheorySimConfig) -> float:
    """The explicit constant: max of the three closed-form terms."""
    return max(_constant_terms(cfg))


def d_threshold(cfg: TheorySimConfig) -> float:
    """Dimensions must be at least max of the first two constant terms."""
    term1, term2, _ = _constant_terms(cfg)
    return max(term1, term2)


@dataclass(frozen=True)
class DecayRow:
    d: int
    k: float
    estimate: float
    std_error: float
    bound_c_over_d: float
    passed: bool


@dataclass(frozen=True)
class DecayReport:
    family: str
    constant_c: float
    rows: tuple
    passed: bool


def decay_dims(cfg: TheorySimConfig, dims) -> list:
    """dims as ints, checked: nonempty, increasing, and none below the
    analytic d-threshold for the config. Raises ValueError otherwise."""
    dims = [int(d) for d in dims]
    if not dims or any(b <= a for a, b in zip(dims, dims[1:])):
        raise ValueError("dims must be a nonempty increasing sequence")
    thr = d_threshold(cfg)
    bad = [d for d in dims if d < thr]
    if bad:
        raise ValueError(
            f"dims {bad} below the d-threshold {thr:.4g} for this config")
    return dims


def verify_decay(cfg: TheorySimConfig, dims, stream: StreamId) -> DecayReport:
    """Run the k and event simulations across dims (decay_dims checks them);
    pass iff every estimate is at most C/d + 3*std_error.

    Each dimension has two stages on their own streams, k and event, and
    map_streams runs them side by side, largest d first, unless the family
    is gaussian (a gaussian stage's draws are one chunk).
    The event stage needs k only to count its values: it draws them, then
    waits for its k and counts, so no stage's values outlive it.
    """
    dims = decay_dims(cfg, dims)
    c = lemma_constant_C(cfg)
    stages = [(kind, replace(cfg, d=d)) for d in reversed(dims)
              for kind in ("k", "event")]
    ks = {d: Future() for d in dims}

    def run(stage):
        kind, cfg_d = stage
        k = ks[cfg_d.d]
        if kind == "k":
            try:
                k.set_result(interval_halfwidth_k(cfg_d, cfg_d.trials,
                                                  stream.child("k", cfg_d.d)))
            except BaseException as exc:
                k.set_exception(exc)
                raise
            return None
        values = _event_values(cfg_d, stream.child("event", cfg_d.d))
        # map_streams starts items in order and cancels none, so this d's
        # k stage, which precedes this one, runs and fills k: the wait
        # cannot deadlock
        return k.result(), _event_estimate(cfg_d, values, k.result())

    pooled = cfg.noise_family != "gaussian"
    rows = []
    for (_, cfg_d), (k, (est, se)) in zip(stages[1::2],
                                         map_streams(run, stages, pooled)[1::2]):
        bound = c / cfg_d.d
        rows.append(DecayRow(cfg_d.d, k, est, se, bound,
                             est <= bound + 3.0 * se))
    rows.reverse()
    return DecayReport(cfg.noise_family, c, tuple(rows),
                       all(r.passed for r in rows))
