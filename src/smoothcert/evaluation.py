"""CERTIFY outcomes and their metrics.

The outcome records and the metrics are plain Python, and this module
imports nothing from the package, so that `evaluate` runs without numpy;
ACR sums in numpy's order, so it keeps numpy's bits.

- ACR: mean certified radius over ALL points, counting 0 for abstentions and
  for certified-but-wrong predictions.
- Certified accuracy curve: fraction of points certified correctly with
  radius >= r (>= so the r=0 column reads as clean certified accuracy).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "ABSTAIN",
    "CertifyOutcome",
    "CertifiedResultSet",
    "acr",
    "certified_accuracy_curve",
]

ABSTAIN = -1


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
