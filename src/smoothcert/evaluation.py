"""CERTIFY outcomes, their metrics, and the equal-confidence mixing ratio.

The outcome records and the metrics are plain Python, so that `evaluate`
runs without numpy; ACR sums in numpy's order, so it keeps numpy's bits.

- ACR: mean certified radius over ALL points, counting 0 for abstentions and
  for certified-but-wrong predictions.
- Certified accuracy curve: fraction of points certified correctly with
  radius >= r (>= so the r=0 column reads as clean certified accuracy).
- Equal-confidence mixing ratio: smallest interpolation weight lambda on the
  segment from x to a PGD point at which the soft-smoothed argmax departs
  from the true class, scanned on a fixed 101-point grid (the argmax along
  the segment need not be monotone, so no bisection). The grid is scanned
  in increasing lambda, one forward at a time, and the scan stops at the
  first forward that holds a flip.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ._lazy import bind, module_getattr

if TYPE_CHECKING:
    import numpy as np

    from .nn import ModelParams
    from .rng import StreamId

__all__ = [
    "ABSTAIN",
    "CertifyOutcome",
    "CertifiedResultSet",
    "acr",
    "certified_accuracy_curve",
    "equal_confidence_mixing_ratio",
]

# What the mixing ratio runs, imported when it first runs.
_LAZY = {
    "adversary": ("AttackConfig", "ascend"),
    "nn": ("first_layer_noise",),
    "smoothing": ("sample_noise", "soft_smoothed_chunks", "soft_smoothed_predict"),
}
__getattr__ = module_getattr(globals(), _LAZY)

ABSTAIN = -1
LAMBDA_GRID_POINTS = 101


@dataclass(frozen=True)
class CertifyOutcome:
    """CERTIFY result. certified=False means abstain: predicted_class is the

    ABSTAIN sentinel (-1) and radius is 0. p_lower always records the
    Clopper-Pearson bound computed in the estimation round (diagnostic on
    abstain rows; the certified radius equals sigma * Phi^{-1}(p_lower) only
    when certified).
    """

    certified: bool
    predicted_class: int
    radius: float
    p_lower: float

    def __post_init__(self):
        if self.certified:
            if not (self.p_lower > 0.5):
                raise ValueError("certified outcome requires p_lower > 1/2")
            if self.radius < 0:
                raise ValueError("certified radius must be nonnegative")
        else:
            if self.predicted_class != ABSTAIN or self.radius != 0.0:
                raise ValueError("abstain carries no prediction and zero radius")


@dataclass(frozen=True)
class CertifiedResultSet:
    """Labels paired with certification outcomes for one model."""

    labels: tuple
    outcomes: tuple
    sigma: float

    def __post_init__(self):
        if len(self.labels) != len(self.outcomes) or not self.labels:
            raise ValueError("need equally many labels and outcomes, nonempty")
        for o in self.outcomes:
            if not isinstance(o, CertifyOutcome):
                raise TypeError("outcomes must be CertifyOutcome instances")


def _pairwise_sum(values) -> float:
    """The float64 sum of values in the order numpy's pairwise summation
    adds them: a run of more than 128 splits in two at a multiple of 8, and
    a shorter run of 8 or more goes to eight interleaved partial sums. So a
    mean taken with it has the bits of numpy's mean."""
    n = len(values)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _pairwise_sum(values[:half]) + _pairwise_sum(values[half:])
    head, total = (0 if n < 8 else n - n % 8), 0.0
    if head:
        parts = list(values[:8])
        for i in range(8, head):
            parts[i % 8] += values[i]
        total = ((parts[0] + parts[1]) + (parts[2] + parts[3])) \
            + ((parts[4] + parts[5]) + (parts[6] + parts[7]))
    for v in values[head:]:
        total += v
    return total


def acr(results: CertifiedResultSet) -> float:
    """Average certified radius over all rows (abstain/wrong count as 0)."""
    radii = [o.radius if (o.certified and o.predicted_class == y) else 0.0
             for y, o in zip(results.labels, results.outcomes)]
    # numpy's sum starts from 0.0, so a sum of -0.0 radii reads 0.0
    return (0.0 + _pairwise_sum(radii)) / len(radii)


def certified_accuracy_curve(results: CertifiedResultSet, radii) -> list:
    """Fraction certified correct with radius >= r, for each threshold r."""
    radii = [float(r) for r in radii]
    if any(b < a for a, b in zip(radii, radii[1:])):
        raise ValueError("radii thresholds must be nondecreasing")
    correct = [o.radius for y, o in zip(results.labels, results.outcomes)
               if o.certified and o.predicted_class == y]
    return [sum(radius >= r for radius in correct) / len(results.labels)
            for r in radii]


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
    import numpy as np

    bind(globals(), _LAZY, *_LAZY)
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
