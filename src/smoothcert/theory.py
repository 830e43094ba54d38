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
eta_kurt := sqrt(E[r^4] - 1) enters the constant. rademacher is degenerate
(|delta|^2 = d exactly, k = 0) and is excluded from default runs.

Both estimates need only |delta|^2 and delta.z per trial. The gaussian family
draws those from their exact law (a normal and a chi-square per trial, O(trials)
work); the other families draw full (trials x d) rows in chunks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .rng import StreamId

__all__ = [
    "FAMILY_FOURTH_MOMENT",
    "TheorySimConfig",
    "ProbEstimate",
    "DecayRow",
    "DecayReport",
    "interval_halfwidth_k",
    "worst_case_prob",
    "lemma_constant_C",
    "d_threshold",
    "decay_dims",
    "verify_decay",
]

# E[r^4] for each unit-variance family. uniform_pm is U([-sqrt(3), sqrt(3)]).
FAMILY_FOURTH_MOMENT = {"gaussian": 3.0, "rademacher": 1.0, "uniform_pm": 1.8}

_SQRT3 = math.sqrt(3.0)
# Non-gaussian families: rows per sampling chunk are capped so chunk matrices
# stay ~16 MiB. Chunks are drawn sequentially from ONE generator, so results do
# not depend on the chunk size.
_CHUNK_ELEMENTS = 1 << 21


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

    @property
    def eta_kurt(self) -> float:
        """sqrt(E[r^4] - 1); the fourth-moment spread entering the constant."""
        return math.sqrt(FAMILY_FOURTH_MOMENT[self.noise_family] - 1.0)


def _draw_rows(gen: np.random.Generator, family: str, rows: int,
               d: int) -> np.ndarray:
    if family == "rademacher":
        return gen.integers(0, 2, size=(rows, d)).astype(np.float64) * 2.0 - 1.0
    return gen.uniform(-_SQRT3, _SQRT3, size=(rows, d))


def _noise_stats(gen: np.random.Generator, family: str, trials: int, d: int,
                 z: np.ndarray | None = None):
    """Yield (|delta|^2, delta.z) chunk by chunk for `trials` noise draws;
    delta.z is None when z is None.

    gaussian: N(0, I_d) is rotation invariant, so with u ~ N(0, 1) standing
    for delta.unit(z), delta.z = |z| u and |delta|^2 = u^2 + chi2_{d-1}
    (chi2_0 = 0). One chunk, 2 * trials draws.
    """
    if family == "gaussian":
        u = gen.standard_normal(trials)
        sq = u * u
        if d > 1:
            sq += gen.chisquare(d - 1, trials)
        yield sq, None if z is None else float(np.linalg.norm(z)) * u
        return
    step = max(1, _CHUNK_ELEMENTS // d)
    for done in range(0, trials, step):
        delta = _draw_rows(gen, family, min(step, trials - done), d)
        yield (np.einsum("ij,ij->i", delta, delta),
               None if z is None else delta @ z)


def interval_halfwidth_k(cfg: TheorySimConfig, trials: int,
                         stream: StreamId) -> float:
    """Empirical p-quantile of |sigma^2 |delta|^2 / d - sigma^2|.

    This is the half-width k of the tightest symmetric interval around
    sigma^2 that the per-sample squared scale hits with probability ~p.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    s2 = cfg.sigma ** 2
    devs = [np.abs(s2 * sq / cfg.d - s2) for sq, _ in _noise_stats(
        stream.generator(), cfg.noise_family, trials, cfg.d)]
    return float(np.quantile(np.concatenate(devs), cfg.p))


@dataclass(frozen=True)
class ProbEstimate:
    """Binomial frequency with its standard error."""

    estimate: float
    std_error: float
    trials: int


def worst_case_prob(cfg: TheorySimConfig, k: float,
                    z_direction: np.ndarray | None,
                    stream: StreamId) -> ProbEstimate:
    """P(|tau*delta + z|^2 / d in [sigma^2 - k, sigma^2 + k]) by Monte Carlo.

    z = epsilon * unit(z_direction); default direction is the first
    coordinate axis (configurable for families that are not rotation
    invariant).
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    d = cfg.d
    if z_direction is None:
        z = np.zeros(d)
        z[0] = cfg.epsilon
    else:
        z_direction = np.asarray(z_direction, dtype=np.float64)
        if z_direction.shape != (d,):
            raise ValueError(f"z_direction must have shape ({d},)")
        norm = float(np.linalg.norm(z_direction))
        # NaN or inf entries (or an overflowing norm) leave norm non-finite
        if not 0.0 < norm < math.inf:
            raise ValueError("z_direction must have a finite nonzero norm")
        z = (cfg.epsilon / norm) * z_direction
    lo, hi = cfg.sigma ** 2 - k, cfg.sigma ** 2 + k
    tau = cfg.tau
    hits = 0
    for sq, dz in _noise_stats(stream.generator(), cfg.noise_family,
                               cfg.trials, d, z):
        # |tau*delta + z|^2 = tau^2|delta|^2 + 2*tau*(delta.z) + |z|^2
        val = (tau * tau * sq + 2.0 * tau * dz + float(z @ z)) / d
        hits += int(np.count_nonzero((val >= lo) & (val <= hi)))
    est = hits / cfg.trials
    se = math.sqrt(est * (1.0 - est) / cfg.trials)
    return ProbEstimate(est, se, cfg.trials)


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
    """Run the k-then-event simulation across dims (decay_dims checks them);
    pass iff every estimate is at most C/d + 3*std_error."""
    dims = decay_dims(cfg, dims)
    c = lemma_constant_C(cfg)
    rows = []
    for d in dims:
        cfg_d = replace(cfg, d=d)
        k = interval_halfwidth_k(cfg_d, cfg_d.trials, stream.child("k", d))
        est = worst_case_prob(cfg_d, k, None, stream.child("event", d))
        bound = c / d
        rows.append(DecayRow(d, k, est.estimate, est.std_error, bound,
                             est.estimate <= bound + 3.0 * est.std_error))
    return DecayReport(cfg.noise_family, c, tuple(rows),
                       all(r.passed for r in rows))
