import csv
import math
import tracemalloc

import numpy as np
import pytest

from smoothcert import smoothing
from smoothcert.cli import (
    read_certification_csv,
    write_certification_csv,
    write_metrics_csv,
    write_mixratio_csv,
)
from smoothcert.adversary import LAMBDA_GRID_POINTS, equal_confidence_mixing_ratio
from smoothcert.evaluation import CertifiedResultSet, acr, certified_accuracy_curve
from smoothcert.nn import ModelParams, first_layer_noise, forward_tail
from smoothcert.rng import StreamId
from smoothcert.smoothing import (
    ABSTAIN,
    CertifyOutcome,
    sample_noise,
    soft_smoothed_predict,
)


def _cert(pred, radius, p_lower=0.9):
    return CertifyOutcome(certified=True, predicted_class=pred, radius=radius,
                          p_lower=p_lower)


def _abstain():
    return CertifyOutcome(certified=False, predicted_class=ABSTAIN,
                          radius=0.0, p_lower=0.3)


def _results(rows, sigma=0.5):
    labels = tuple(r[0] for r in rows)
    outcomes = tuple(r[1] for r in rows)
    return CertifiedResultSet(labels, outcomes, sigma)


# the margin boundary sits at x0 = 0.7: logits (0, 3*(x0 - 0.7))
def _linear_net():
    return ModelParams([np.array([[0.0, 3.0], [0.0, 0.0]])],
                       [np.array([0.0, -2.1])])


def _constant_net():
    return ModelParams([np.zeros((2, 3))], [np.zeros(3)])


# ---------------------------------------------------------------- acr


def test_acr_mixed_rows():
    rs = _results([(0, _cert(0, 1.0)), (1, _cert(0, 0.5)), (0, _abstain())])
    assert acr(rs) == pytest.approx(1.0 / 3, abs=1e-15)


def test_acr_all_abstain():
    rs = _results([(0, _abstain()), (1, _abstain())])
    assert acr(rs) == 0.0


def test_acr_all_correct_constant_radius():
    rs = _results([(c, _cert(c, 0.75)) for c in (0, 1, 0, 1)])
    assert acr(rs) == pytest.approx(0.75, abs=1e-15)


# ---------------------------------------------------------------- curve


def test_curve_single_row():
    rs = _results([(0, _cert(0, 0.6))])
    np.testing.assert_allclose(
        certified_accuracy_curve(rs, [0.0, 0.5, 1.0]), [1.0, 1.0, 0.0])


def test_curve_hand_counted_fractions():
    rows = [
        (0, _cert(0, 0.80)),
        (1, _cert(1, 0.30)),
        (0, _cert(1, 0.90)),   # wrong prediction, never counts
        (1, _cert(1, 0.05)),
        (0, _abstain()),
        (1, _cert(1, 0.60)),
        (0, _cert(0, 0.25)),
        (1, _abstain()),
    ]
    rs = _results(rows)
    np.testing.assert_allclose(
        certified_accuracy_curve(rs, [0.0, 0.25, 0.5, 0.75]),
        [5 / 8, 4 / 8, 2 / 8, 1 / 8])
    assert acr(rs) == pytest.approx(2.0 / 8, abs=1e-15)
    # definition arithmetic: ACR <= max radius * clean certified accuracy
    max_r = max(o.radius for _, o in rows)
    assert acr(rs) <= max_r * certified_accuracy_curve(rs, [0.0])[0] + 1e-15


def test_curve_nonincreasing_random_sets():
    rng = np.random.default_rng(0)
    for _ in range(20):
        rows = []
        for _k in range(rng.integers(1, 12)):
            y = int(rng.integers(0, 3))
            if rng.random() < 0.3:
                rows.append((y, _abstain()))
            else:
                rows.append((y, _cert(int(rng.integers(0, 3)),
                                      float(rng.uniform(0, 2)))))
        curve = certified_accuracy_curve(_results(rows),
                                         np.linspace(0, 2, 9))
        assert np.all(np.diff(curve) <= 1e-15)


def test_curve_rejects_decreasing_thresholds():
    rs = _results([(0, _cert(0, 0.6))])
    with pytest.raises(ValueError):
        certified_accuracy_curve(rs, [0.5, 0.3])


# ---------------------------------------------------------------- result sets


def test_result_set_validation():
    with pytest.raises(ValueError):
        CertifiedResultSet((), (), 0.5)
    with pytest.raises(ValueError):
        CertifiedResultSet((0, 1), (_cert(0, 1.0),), 0.5)
    with pytest.raises(TypeError):
        CertifiedResultSet((0,), ("certified",), 0.5)


def test_certification_csv_reads_into_result_set(tmp_path):
    path = tmp_path / "cert.csv"
    write_certification_csv(path, [[0, 0, 0, "0.250000", "0.81", 1, 0],
                                   [1, 1, -1, "0.000000", "0.42", 0, 1]])
    rs = read_certification_csv(path, sigma=0.5)
    assert rs.labels == (0, 1)
    assert rs.outcomes[0].certified and rs.outcomes[0].radius == 0.25
    assert not rs.outcomes[1].certified
    assert rs.outcomes[1].predicted_class == ABSTAIN
    assert acr(rs) == pytest.approx(0.125, abs=1e-15)


# ---------------------------------------------------------------- mixing ratio


def test_mixratio_linear_crossing_oracle():
    # clean logit margin at x: 3*(0.3-0.7) = -1.2 toward class 0; PGD walks
    # +e0 to the eps ball boundary so x_adv = (1.3, 0) with margin +1.8;
    # linear interpolation crosses zero at lambda = 1.2/(1.2+1.8) = 0.4
    lam = equal_confidence_mixing_ratio(
        _linear_net(), np.array([0.3, 0.0]), 0, sigma=0.01, pgd_steps=8,
        pgd_eps=1.0, estimation_m=1000, stream=StreamId(42))
    assert lam is not None
    assert 0.4 - 1e-9 <= lam <= 0.41 + 1e-9


def test_mixratio_constant_classifier_not_found():
    lam = equal_confidence_mixing_ratio(
        _constant_net(), np.array([0.2, 0.1]), 0, sigma=0.5, pgd_steps=4,
        pgd_eps=1.0, estimation_m=50, stream=StreamId(1))
    assert lam is None


def test_mixratio_precondition_wrong_label():
    lam = equal_confidence_mixing_ratio(
        _linear_net(), np.array([0.3, 0.0]), 1, sigma=0.01, pgd_steps=4,
        pgd_eps=1.0, estimation_m=100, stream=StreamId(2))
    assert lam is None


@pytest.mark.parametrize("bad", [dict(sigma=-1.0), dict(pgd_steps=-1),
                                 dict(pgd_eps=0.0), dict(estimation_m=0)])
def test_mixratio_checks_arguments_whatever_the_data(bad):
    # label 1 at a point predicted 0 would return None before any attack
    kw = dict(sigma=0.01, pgd_steps=4, pgd_eps=1.0, estimation_m=100,
              stream=StreamId(2))
    with pytest.raises(ValueError, match="need sigma > 0, pgd_steps >= 0"):
        equal_confidence_mixing_ratio(_linear_net(), np.array([0.3, 0.0]), 1,
                                      **{**kw, **bad})


def test_mixratio_unflipped_endpoint_not_found():
    # margin at x is 3*(-2.7) = -8.1; the eps=1 ball cannot reach the boundary
    lam = equal_confidence_mixing_ratio(
        _linear_net(), np.array([-2.0, 0.0]), 0, sigma=0.01, pgd_steps=8,
        pgd_eps=1.0, estimation_m=200, stream=StreamId(3))
    assert lam is None


def test_mixratio_deterministic():
    args = (_linear_net(), np.array([0.3, 0.0]), 0)
    kw = dict(sigma=0.05, pgd_steps=8, pgd_eps=1.0, estimation_m=500,
              stream=StreamId(7))
    assert equal_confidence_mixing_ratio(*args, **kw) == \
        equal_confidence_mixing_ratio(*args, **kw)


def test_mixratio_memory_bounded_at_mnist_shape(monkeypatch):
    # the 101-point grid at the default estimation_m = 1000 and d = 784 is
    # 633 MB of noisy rows if they all go through one forward
    d, m = 784, 1000
    rng = np.random.default_rng(0)
    b_out = np.zeros(10)
    b_out[0] = 5.0  # class 0 at x, so the grid scan runs
    params = ModelParams([rng.standard_normal((d, 8)) * 0.01, rng.standard_normal((8, 10))],
                         [np.zeros(8), b_out])
    rows = []

    def counting_tail(p, z1):
        rows.append(len(z1))
        return forward_tail(p, z1)

    monkeypatch.setattr(smoothing, "forward_tail", counting_tail)
    x = rng.uniform(0.0, 1.0, d)
    tracemalloc.start()
    try:
        equal_confidence_mixing_ratio(params, x, 0, sigma=0.25, pgd_steps=2,
                                      pgd_eps=1.0, estimation_m=m, stream=StreamId(5))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(rows) == (1 + LAMBDA_GRID_POINTS) * m
    # whole points per forward: as many as fit in COUNT_CHUNK rows, or one
    # point when its m rows exceed it
    assert all(r % m == 0 for r in rows)
    assert max(rows) <= max(smoothing.COUNT_CHUNK, m)
    assert peak < 40 * 2**20


def test_smoothed_prediction_invariant_to_noise_order():
    # the grid scan averages over the batch, so any reordering of the
    # estimation noise leaves every grid decision unchanged
    params = _linear_net()
    noise = sample_noise(0.3, 2, 400, StreamId(9))
    perm = np.random.default_rng(1).permutation(400)
    for lam in (0.0, 0.25, 0.5, 1.0):
        x = np.array([0.3 + lam, 0.0])
        np.testing.assert_allclose(
            soft_smoothed_predict(params, x[None, :], first_layer_noise(params, noise[None])),
            soft_smoothed_predict(params, x[None, :],
                                  first_layer_noise(params, noise[perm][None])),
            atol=1e-12)


# ---------------------------------------------------------------- csv writers


def test_metrics_csv_layout(tmp_path):
    rs_a = _results([(0, _cert(0, 1.0)), (1, _abstain())])
    rs_b = _results([(0, _cert(0, 0.5)), (1, _cert(1, 0.5))])
    path = tmp_path / "metrics.csv"
    write_metrics_csv(path, [("a", rs_a), ("b", rs_b)], [0.0, 0.5])
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["model", "points", "acr", "cert_acc@0", "cert_acc@0.5"]
    assert rows[1] == ["a", "2", "0.500000", "0.500000", "0.500000"]
    assert rows[2] == ["b", "2", "0.500000", "1.000000", "1.000000"]


def test_mixratio_csv_layout(tmp_path):
    path = tmp_path / "mix.csv"
    write_mixratio_csv(path, [(0, 0.12), (1, None)])
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["idx", "lambda_star", "found"]
    assert rows[1] == ["0", "0.120000", "1"]
    assert rows[2] == ["1", "", "0"]
