"""Metrics over certification results and confidence diagnostics.

- ACR: mean certified radius over ALL points, counting 0 for abstentions and
  for certified-but-wrong predictions.
- Certified accuracy curve: fraction of points certified correctly with
  radius >= r (>= so the r=0 column reads as clean certified accuracy).
- Equal-confidence mixing ratio: smallest interpolation weight lambda on the
  segment from x to a PGD point at which the soft-smoothed argmax departs
  from the true class, scanned on a fixed 101-point grid (the argmax along
  the segment need not be monotone, so no bisection).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .adversary import smoothadv_pgd
from .nn import ModelParams
from .rng import StreamId
from .smoothing import CertifyOutcome, sample_noise, soft_smoothed_predict

__all__ = [
    "CertifiedResultSet",
    "acr",
    "certified_accuracy_curve",
    "equal_confidence_mixing_ratio",
    "METRICS_CSV_BASE_COLUMNS",
    "write_metrics_csv",
    "MIXRATIO_CSV_COLUMNS",
    "write_mixratio_csv",
]

LAMBDA_GRID_POINTS = 101


@dataclass(frozen=True)
class CertifiedResultSet:
    """Labels paired with certification outcomes for one model/config/seed."""

    labels: tuple
    outcomes: tuple
    sigma: float
    model_id: str = ""
    seed: int = 0

    def __post_init__(self):
        if len(self.labels) != len(self.outcomes) or not self.labels:
            raise ValueError("need equally many labels and outcomes, nonempty")
        for o in self.outcomes:
            if not isinstance(o, CertifyOutcome):
                raise TypeError("outcomes must be CertifyOutcome instances")

    @staticmethod
    def from_rows(rows, sigma: float, model_id: str = "", seed: int = 0):
        """Build from certification CSV rows (dicts as read back from disk)."""
        labels, outcomes = [], []
        for r in rows:
            labels.append(int(r["label"]))
            certified = not bool(r["abstain"])
            outcomes.append(CertifyOutcome(
                certified=certified,
                predicted_class=int(r["predicted"]) if certified else -1,
                radius=float(r["radius"]) if certified else 0.0,
                p_lower=float(r["p_lower"])))
        return CertifiedResultSet(tuple(labels), tuple(outcomes), sigma,
                                  model_id, seed)


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


def equal_confidence_mixing_ratio(params: ModelParams, x: np.ndarray, y: int,
                                  sigma: float, pgd_steps: int, pgd_eps: float,
                                  estimation_m: int, stream: StreamId):
    """Smallest grid lambda where the smoothed argmax along x -> x_adv leaves y.

    x_adv comes from constrained PGD against the soft-smoothed classifier;
    the same fixed estimation noise batch (size estimation_m) is used for the
    attack and for every evaluation on the 101-point lambda grid. Returns
    None (not found) when the prediction at x already differs from y or when
    no grid point flips it.
    """
    x = np.asarray(x, dtype=np.float64)
    noise = sample_noise(sigma, x.shape[0], estimation_m, stream.child("estimate"))
    fhat = soft_smoothed_predict(params, x[None, :], noise)[0]
    if int(np.argmax(fhat)) != int(y):
        return None
    x_adv = smoothadv_pgd(params, x, int(y), noise, pgd_steps,
                          step_size=2.0 * pgd_eps / max(pgd_steps, 1),
                          epsilon=pgd_eps)
    lams = np.linspace(0.0, 1.0, LAMBDA_GRID_POINTS)
    seg = (1.0 - lams)[:, None] * x[None, :] + lams[:, None] * x_adv[None, :]
    preds = np.argmax(soft_smoothed_predict(params, seg, noise), axis=1)
    flips = np.flatnonzero(preds != int(y))
    if len(flips) == 0:
        return None
    return float(lams[flips[0]])


METRICS_CSV_BASE_COLUMNS = ["model", "points", "acr"]


def write_metrics_csv(path, model_rows, radii) -> None:
    """One row per model: ACR plus certified accuracy at each radius threshold.

    model_rows is a sequence of (model_id, CertifiedResultSet).
    """
    radii = list(radii)
    header = METRICS_CSV_BASE_COLUMNS + [f"cert_acc@{r:g}" for r in radii]
    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for model_id, results in model_rows:
            curve = certified_accuracy_curve(results, radii)
            writer.writerow([model_id, len(results.labels), f"{acr(results):.6f}"]
                            + [f"{v:.6f}" for v in curve])


MIXRATIO_CSV_COLUMNS = ["idx", "lambda_star", "found"]


def write_mixratio_csv(path, rows) -> None:
    """Rows of (idx, lambda_star or blank, found flag)."""
    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(MIXRATIO_CSV_COLUMNS)
        for idx, lam in rows:
            found = lam is not None
            writer.writerow([int(idx), f"{lam:.6f}" if found else "", int(found)])
