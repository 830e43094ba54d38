"""Smoothed classifier: noise sampling, smoothed prediction, certification.

The smoothed classifier of a base net f at scale sigma predicts
argmax_c P(f(x + delta) = c) for delta ~ N(0, sigma^2 I). CERTIFY estimates
that probability by Monte Carlo: n0 draws select the top class, n fresh draws
give a one-sided Clopper-Pearson lower bound p_lower at failure probability
alpha_cert, and the certified l2 radius is sigma * Phi^{-1}(p_lower) when
p_lower > 1/2 (otherwise the procedure abstains).

Phi^{-1} is the standard library's statistics.NormalDist().inv_cdf.
The Clopper-Pearson lower limit solves sum_{j=k}^n C(n,j) p^j (1-p)^{n-j}
= alpha by bisection on the exact binomial tail (log-space summation),
absolute tolerance 1e-10; k=0 maps to 0 and k=n to the closed form
alpha^(1/n). A safeguarded Newton iteration on the log tail first brackets
the root, so the bisection evaluates the tail only at the midpoints that
fall near it and decides the rest by comparison, with the same result.

The noise reaches the base net only through its first dense layer:
(x + delta) W1 + b1 = x W1 + b1 + delta W1. So when d > h1, CERTIFY draws
in W1's row space, h1 normals per sample instead of d (see
hard_class_counts), and a fixed noise batch that many inputs share goes
through W1 once (soft_smoothed_predict, and the attacks in adversary).

Noisy inputs are never clipped to any data range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .evaluation import ABSTAIN, CertifyOutcome
from .nn import ModelParams, factors_noise, first_layer, forward_tail, softmax
from .rng import StreamId

__all__ = [
    "SmoothingConfig",
    "NotCertifiable",
    "sample_noise",
    "soft_smoothed_predict",
    "soft_smoothed_chunks",
    "noise_factor",
    "hard_class_counts",
    "clopper_pearson_lower",
    "certified_radius",
    "certify",
]

# Most noisy rows one forward sees in hard_class_counts and soft_smoothed_predict
# (one point's m rows when m is larger). hard_class_counts holds two buffers
# of COUNT_CHUNK rows of the widest layer: 500 x 256 are 1 MiB each, and
# each of the points that the CLI certifies or scans side by side
# (rng.map_streams, at most rng.MAX_STREAM_THREADS) holds its own.
# The draws do not depend on it. A row's logits can, in the last bits: some
# BLAS builds round a product differently for different row counts.
COUNT_CHUNK = 500
# The CLI certifies points side by side only above this many estimation
# draws (n): below it a point is too small for a thread to pay for its start
# and its chunk buffers. Two-moons certify (300 points, n = 1,000) ran in
# 0.35 s inline against 0.45 s pooled, and peaked 2.2 MiB higher pooled
# (medians of 10 interleaved launches on 2 CPUs).
POOL_MIN_DRAWS = 1_000


@dataclass(frozen=True)
class SmoothingConfig:
    """Certification parameters: noise scale and CERTIFY sample sizes."""

    sigma: float
    n0: int = 100
    n: int = 1000
    alpha_cert: float = 0.001

    def __post_init__(self):
        if not self.sigma > 0:
            raise ValueError("sigma must be positive")
        if not (self.n >= self.n0 >= 1):
            raise ValueError("need n >= n0 >= 1")
        if not (0.0 < self.alpha_cert < 1.0):
            raise ValueError("alpha_cert must lie in (0,1)")


def sample_noise(sigma: float, dim: int, m: int, stream: StreamId) -> np.ndarray:
    """m draws of N(0, sigma^2 I_dim) as an (m, dim) array; bit-reproducible
    from stream."""
    if not sigma > 0:
        raise ValueError("sigma must be positive")
    if m < 1 or dim < 1:
        raise ValueError("need m >= 1 and dim >= 1")
    return stream.generator().standard_normal((m, dim)) * sigma


def soft_smoothed_chunks(params: ModelParams, X: np.ndarray, noise: np.ndarray):
    """soft_smoothed_predict one forward at a time: yields the (rows, C)
    predictions of consecutive slices of X, in order, so that a caller can
    stop early without changing any forward's row count."""
    X = np.asarray(X, dtype=np.float64)
    m = max(1, noise.shape[1]) if noise.ndim == 3 else 1  # first_layer checks it
    step = max(1, COUNT_CHUNK // m)
    # over the longer of the two, so that first_layer sees a count mismatch
    for i in range(0, max(len(X), len(noise)), step):
        probs = softmax(forward_tail(params, first_layer(params, X[i:i + step],
                                                         noise[i:i + step])))
        yield probs.reshape(-1, m, probs.shape[-1]).mean(axis=1)


def soft_smoothed_predict(params: ModelParams, X: np.ndarray,
                          noise: np.ndarray) -> np.ndarray:
    """Monte Carlo soft-smoothed predictions (1/m) sum_i softmax(f(x_b + delta_i)).

    X holds B points (B, d). noise is nn.first_layer_noise of per-point
    batches of draws (B, m, d), formed once by the caller: when d > h1 the
    draws go through W1 once, and points that share one batch take a
    broadcast view of it.
    Each forward takes whole points and at most COUNT_CHUNK noisy rows, or
    one point when m exceeds it; returns (B, C). One point is X[None, :].
    """
    return np.concatenate(list(soft_smoothed_chunks(params, X, noise)))


def noise_factor(params: ModelParams):
    """R of W1 = QR when factors_noise (the factor CERTIFY draws through), else None."""
    return np.linalg.qr(params.weights[0], mode="r") if factors_noise(params) else None


def hard_class_counts(params: ModelParams, x: np.ndarray, count: int,
                      sigma: float, stream: StreamId, R=None) -> np.ndarray:
    """Counts of argmax f(x + delta) over `count` fresh draws of N(0, sigma^2 I).

    When d > h1 (nn.factors_noise) the draws are made in W1's row space: f
    sees delta only as delta W1, whose law is N(0, sigma^2 W1^T W1). With
    W1 = QR that is the law of sigma g R for g = delta Q / sigma ~
    N(0, I_h1), so h1 normals per draw give i.i.d. draws of f(x + delta),
    which is all CERTIFY needs. R is noise_factor(params), factored here
    unless the caller passes it. When d <= h1, delta = sigma g is drawn and
    added to x. Argmax ties within a single forward break toward the lowest
    class index. Draws are evaluated in chunks of at most COUNT_CHUNK from
    one sequential generator. Each call allocates two buffers of
    COUNT_CHUNK rows of the widest layer (or draw) and the chunks take turns
    in them: the draws go in one, the first layer's output in the other
    (x W1 + b1 added in place, or x added to the draws first), and each
    later layer writes into the buffer its input is not in.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if not sigma > 0:
        raise ValueError("sigma must be positive")
    X = np.asarray(x, dtype=np.float64)[None, :]
    z_x = first_layer(params, X)  # x W1 + b1; checks x's shape and values
    R = noise_factor(params) if R is None else R
    W1, b1 = params.weights[0], params.biases[0]
    widths = ([W1.shape[0] if R is None else R.shape[0]]
              + [W.shape[1] for W in params.weights])
    chunk = min(count, COUNT_CHUNK)
    # two arrays, not one of twice the size: each stays under
    # cli.MALLOC_MMAP_THRESHOLD, so the heap reuses them from call to call
    pair = [np.empty(chunk * max(widths)) for _ in range(2)]
    gen = stream.generator()
    counts = np.zeros(params.class_count, dtype=np.int64)
    remaining = count
    while remaining > 0:
        m = min(remaining, COUNT_CHUNK)
        g, z1, *outs = (pair[k % 2][:m * w].reshape(m, w) for k, w in enumerate(widths))
        gen.standard_normal(out=g)
        g *= sigma
        if R is None:
            g += X  # the rows x + delta
            np.matmul(g, W1, out=z1)
            z1 += b1
        else:
            np.matmul(g, R, out=z1)
            z1 += z_x
        logits = forward_tail(params, z1, outs)
        counts += np.bincount(np.argmax(logits, axis=1), minlength=params.class_count)
        remaining -= m
    return counts


@lru_cache(maxsize=64)
def _log_factorials(n: int) -> np.ndarray:
    return np.array([math.lgamma(j + 1.0) for j in range(n + 1)])


def _binom_upper_tail(k: int, n: int, p: float) -> float:
    """Exact P(Binomial(n, p) >= k), summed in log space. Assumes 1 <= k <= n."""
    if p <= 0.0:
        return 0.0
    if p >= 1.0:
        return 1.0
    lf = _log_factorials(n)
    j = np.arange(k, n + 1)
    log_terms = (lf[n] - lf[j] - lf[n - j]
                 + j * math.log(p) + (n - j) * math.log1p(-p))
    top = log_terms.max()
    if top < -745.0:  # every term underflows float64
        return 0.0
    return float(np.exp(top) * np.exp(log_terms - top).sum())


@lru_cache(maxsize=1 << 12)
def clopper_pearson_lower(k: int, n: int, alpha_cert: float) -> float:
    """One-sided Clopper-Pearson lower confidence limit for a binomial proportion.

    p_lower solves P(Binomial(n, p) >= k) = alpha_cert for 0 < k <= n (by
    bisection on the exact tail, absolute tolerance 1e-10), is 0 for k = 0,
    and is alpha^(1/n) in closed form for k = n.

    The bisection is Newton-guided, with the result of the plain one. Newton
    on g(p) = log tail(p) - log alpha (increasing and concave: the tail is a
    Beta(k, n-k+1) CDF) finds evaluated points lo < hi with tail(lo) < alpha
    <= tail(hi), a few pads apart; each step from below aims two pads past
    the root. A pad is `delta / g'(p)`, where delta exceeds the rounding
    error of the computed log tail. The bisection then evaluates the tail
    only at midpoints within a pad of [lo, hi]: every other midpoint's tail
    lies at least delta from alpha in log, on the side the bracket shows.

    Results are memoized for the process: CERTIFY meets the same top-class
    count at many points (a seed-1 two-moons run writes 166 distinct p_lower
    values for 300 points).
    """
    if not (0 <= k <= n) or n < 1:
        raise ValueError(f"need 0 <= k <= n with n >= 1, got k={k}, n={n}")
    if not (0.0 < alpha_cert < 1.0):
        raise ValueError("alpha_cert must lie in (0,1)")
    if k == 0:
        return 0.0
    if k == n:
        return math.exp(math.log(alpha_cert) / n)
    from statistics import NormalDist

    log_alpha = math.log(alpha_cert)
    lf = _log_factorials(n)
    log_binom = lf[n] - lf[k] - lf[n - k]
    # a generous bound on the rounding error of log tail: the log terms
    # carry magnitudes up to lgamma(n + 1) ~ n log n
    delta = 1e-14 * n * (1.0 + math.log(n)) + 1e-12
    z = -NormalDist().inv_cdf(alpha_cert)
    # the Wilson score limit as the first guess
    p = (k + 0.5 * z * z - z * math.sqrt(k * (n - k) / n + 0.25 * z * z)) / (n + z * z)
    lo, hi = 0.0, 1.0  # tail(lo) < alpha <= tail(hi)
    for _ in range(60):
        if not lo < p < hi:
            p = 0.5 * (lo + hi)
        tail = _binom_upper_tail(k, n, p)
        if tail < alpha_cert:
            lo = p
        else:
            hi = p
        if tail <= 0.0:
            p = 0.5 * (lo + hi)
            continue
        log_tail = math.log(tail)
        # d log tail / dp = k C(n,k) p^(k-1) (1-p)^(n-k) / tail
        slope = k * math.exp(log_binom + (k - 1) * math.log(p)
                             + (n - k) * math.log1p(-p) - log_tail)
        pad = delta / slope
        if hi - lo <= 4.0 * pad:
            break
        p -= (log_tail - log_alpha) / slope
        if tail < alpha_cert:
            p += 2.0 * pad
    else:
        pad = 1.0  # no bracket: the bisection evaluates every midpoint
    lo, hi = lo - pad, hi + pad
    a, b = 0.0, 1.0
    while b - a > 1e-10:
        mid = 0.5 * (a + b)
        if lo <= mid <= hi:
            below = _binom_upper_tail(k, n, mid) < alpha_cert
        else:
            below = mid < lo
        if below:
            a = mid
        else:
            b = mid
    return 0.5 * (a + b)


class NotCertifiable(Exception):
    """Signal that p_lower <= 1/2, i.e. no positive radius can be certified."""


def certified_radius(p_lower: float, sigma: float) -> float:
    """sigma * Phi^{-1}(p_lower); raises NotCertifiable when p_lower <= 1/2."""
    if not (0.0 < p_lower < 1.0):
        raise ValueError("p_lower must lie in (0,1)")
    if not sigma > 0:
        raise ValueError("sigma must be positive")
    if p_lower <= 0.5:
        raise NotCertifiable(f"p_lower={p_lower} is not above 1/2")
    from statistics import NormalDist

    return sigma * NormalDist().inv_cdf(p_lower)


def certify(params: ModelParams, x: np.ndarray, cfg: SmoothingConfig,
            stream: StreamId, R=None) -> CertifyOutcome:
    """CERTIFY at x: select top class from n0 draws, bound its probability

    from n fresh draws, certify sigma * Phi^{-1}(p_lower) or abstain. The
    selection and estimation rounds use independent substreams, so outcomes
    are identical regardless of scheduling. Both rounds draw through one
    factor of W1, R as hard_class_counts takes it: a caller certifying many
    points passes it once.
    """
    R = noise_factor(params) if R is None else R
    counts0 = hard_class_counts(params, x, cfg.n0, cfg.sigma,
                                stream.child("selection"), R)
    top = int(np.argmax(counts0))  # ties break toward the lowest class index
    counts = hard_class_counts(params, x, cfg.n, cfg.sigma,
                               stream.child("estimation"), R)
    p_lower = clopper_pearson_lower(int(counts[top]), cfg.n, cfg.alpha_cert)
    if p_lower <= 0.5:
        return CertifyOutcome(certified=False, predicted_class=ABSTAIN,
                              radius=0.0, p_lower=p_lower)
    return CertifyOutcome(certified=True, predicted_class=top,
                          radius=certified_radius(p_lower, cfg.sigma),
                          p_lower=p_lower)
