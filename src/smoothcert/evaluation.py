"""Metrics over certification results and the equal-confidence mixing ratio.

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

import numpy as np

from .adversary import AttackConfig, ascend
from .nn import ModelParams, first_layer_noise
from .rng import StreamId
from .smoothing import (CertifyOutcome, sample_noise, soft_smoothed_chunks,
                        soft_smoothed_predict)

__all__ = [
    "CertifiedResultSet",
    "acr",
    "certified_accuracy_curve",
    "check_mixing_ratio_args",
    "equal_confidence_mixing_ratio",
]

LAMBDA_GRID_POINTS = 101


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


def _correct_radii(results: CertifiedResultSet) -> np.ndarray:
    """Per-row certified radius when certified and correct, else 0."""
    return np.array([
        o.radius if (o.certified and o.predicted_class == y) else 0.0
        for y, o in zip(results.labels, results.outcomes)
    ])


def acr(results: CertifiedResultSet) -> float:
    """Average certified radius over all rows (abstain/wrong count as 0)."""
    return float(_correct_radii(results).mean())


def certified_accuracy_curve(results: CertifiedResultSet, radii) -> np.ndarray:
    """Fraction certified correct with radius >= r, for each threshold r."""
    radii = np.asarray(radii, dtype=np.float64)
    if np.any(np.diff(radii) < 0):
        raise ValueError("radii thresholds must be nondecreasing")
    rr = _correct_radii(results)
    certified_correct = np.array([
        o.certified and o.predicted_class == y
        for y, o in zip(results.labels, results.outcomes)
    ])
    return np.array([(certified_correct & (rr >= r)).mean() for r in radii])


def check_mixing_ratio_args(sigma: float, pgd_steps: int, pgd_eps: float,
                            estimation_m: int) -> None:
    """Raise ValueError unless sigma > 0, pgd_steps >= 0, pgd_eps > 0 and
    estimation_m >= 1."""
    if not (sigma > 0 and pgd_steps >= 0 and pgd_eps > 0 and estimation_m >= 1):
        raise ValueError("need sigma > 0, pgd_steps >= 0, pgd_eps > 0 and "
                         "estimation_m >= 1")


def equal_confidence_mixing_ratio(params: ModelParams, x: np.ndarray, y: int,
                                  sigma: float, pgd_steps: int, pgd_eps: float,
                                  estimation_m: int, stream: StreamId):
    """Smallest grid lambda where the smoothed argmax along x -> x_adv leaves y.

    x_adv comes from constrained PGD against the soft-smoothed classifier;
    the same fixed estimation noise batch (size estimation_m) is used for the
    attack and for every evaluation on the 101-point lambda grid. Returns
    None (not found) when the prediction at x already differs from y or when
    no grid point flips it. The arguments are checked first, whatever the data
    (check_mixing_ratio_args).
    """
    check_mixing_ratio_args(sigma, pgd_steps, pgd_eps, estimation_m)
    x = np.asarray(x, dtype=np.float64)
    noise = first_layer_noise(params, sample_noise(sigma, x.shape[0], estimation_m,
                                                   stream.child("estimate"))[None])
    fhat = soft_smoothed_predict(params, x[None, :], noise)[0]
    if int(np.argmax(fhat)) != int(y):
        return None
    pgd = AttackConfig(2.0 * pgd_eps / max(pgd_steps, 1), pgd_steps, pgd_eps)
    x_adv = ascend(params, x[None, :], [int(y)], noise, pgd)[0][-1, 0]
    lams = np.linspace(0.0, 1.0, LAMBDA_GRID_POINTS)
    seg = (1.0 - lams)[:, None] * x[None, :] + lams[:, None] * x_adv[None, :]
    # every grid point reuses the one batch: a view, not LAMBDA_GRID_POINTS copies
    grid_noise = np.broadcast_to(noise, (len(seg),) + noise.shape[1:])
    start = 0
    for fhat_seg in soft_smoothed_chunks(params, seg, grid_noise):
        flips = np.flatnonzero(np.argmax(fhat_seg, axis=1) != int(y))
        if len(flips):
            return float(lams[start + flips[0]])
        start += len(fhat_seg)
    return None
