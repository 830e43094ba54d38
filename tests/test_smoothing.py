import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noise_oracle import (allocating_hard_class_counts, direct_hard_class_counts,
                          direct_soft_predict)
from smoothcert import smoothing
from smoothcert.cli import read_certification_csv, write_certification_csv
from smoothcert.nn import (DimensionMismatch, ModelParams, NonFiniteError, first_layer_noise,
                           forward_tail, init_mlp)
from smoothcert.rng import StreamId
from smoothcert.smoothing import (
    ABSTAIN,
    CertifyOutcome,
    NotCertifiable,
    SmoothingConfig,
    certified_radius,
    certify,
    clopper_pearson_lower,
    hard_class_counts,
    sample_noise,
    soft_smoothed_predict,
)

# Frozen oracle values, computed with mpmath erfinv at 30 digits.
PHI_INV_ORACLE = {
    0.975: 1.9599639845400542,
    0.999: 3.0902323061678135,
    0.9: 1.2815515655446005,
    0.75: 0.67448975019608174,
    0.6: 0.2533471031357998,
    0.5001: 0.0002506628300880351,
    0.001: -3.0902323061678135,
    1e-9: -5.9978070150076869,
    0.999999: 4.7534243088228989,
}
PHI_AT_1 = 0.84134474606854295  # mpmath ncdf(1)

# Frozen oracle values from scipy.stats.beta.ppf(alpha, k, n-k+1), the
# exact Clopper-Pearson lower limit via Beta-Binomial duality.
CP_ORACLE = {
    (950, 1000, 0.001): 0.925046780060944,
    (80, 100, 0.001): 0.6535572712893807,
    (8, 10, 0.05): 0.4930986989367976,
    (55, 100, 0.001): 0.39214682722125527,
    (999, 1000, 0.001): 0.9908045023646124,
    (501, 1000, 0.001): 0.4517643768755042,
    (1, 1000, 0.001): 1.0004998330832417e-06,
    (90, 100, 0.01): 0.808669714613969,
    (600, 1000, 0.001): 0.5510754739370525,
}


def _phi(x):
    """Standard normal CDF via erfc, accurate in both tails."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def _linear_two_class(w, b, scale=1.0):
    """Two-class net with logits (0, scale*(w.x + b)); no hidden layers."""
    w = np.asarray(w, dtype=np.float64)
    W = np.column_stack([np.zeros_like(w), scale * w])
    return ModelParams([W], [np.array([0.0, scale * b])])


def _constant_net(dim=3, classes=4):
    return ModelParams([np.zeros((dim, classes))], [np.zeros(classes)])


# ---------------------------------------------------------------- noise


def test_sample_noise_rejects_sigma_zero():
    with pytest.raises(ValueError):
        sample_noise(0.0, 3, 5, StreamId(0))


def test_sample_noise_mean_and_std():
    draws = sample_noise(0.7, 1, 1_000_000, StreamId(1, ("noise",))).ravel()
    se = 0.7 / math.sqrt(draws.size)
    assert abs(draws.mean()) < 5 * se
    assert draws.std() == pytest.approx(0.7, rel=0.01)


def test_sample_noise_reproducible():
    a = sample_noise(0.5, 4, 10, StreamId(3, ("x",)))
    b = sample_noise(0.5, 4, 10, StreamId(3, ("x",)))
    np.testing.assert_array_equal(a, b)
    assert a.shape == (10, 4)


def test_noise_batch_m_validation():
    with pytest.raises(ValueError):
        sample_noise(0.5, 4, 0, StreamId(0))


# ---------------------------------------------------------------- smoothed predictions


def test_soft_predict_constant_net_uniform():
    params = _constant_net(dim=3, classes=4)
    noise = sample_noise(1.0, 3, 50, StreamId(2))
    probs = soft_smoothed_predict(params, np.ones((1, 3)), first_layer_noise(params, noise[None]))
    assert probs.shape == (1, 4)
    np.testing.assert_allclose(probs, 0.25, atol=1e-12)


def test_soft_predict_m1_is_plain_softmax():
    from nn_oracle import forward
    from smoothcert.nn import softmax
    rng = np.random.default_rng(4)
    params = ModelParams([rng.standard_normal((3, 4))], [rng.standard_normal(4)])
    noise = sample_noise(0.5, 3, 1, StreamId(5))
    x = rng.standard_normal(3)
    np.testing.assert_allclose(
        soft_smoothed_predict(params, x[None, :], first_layer_noise(params, noise[None]))[0],
        softmax(forward(params, x + noise[0])), atol=1e-14)


def test_soft_predict_batch_is_rowwise():
    # a batch under shared noise (a broadcast view) or per-point noise
    # equals B one-point calls
    rng = np.random.default_rng(8)
    params = ModelParams([rng.standard_normal((3, 5)), rng.standard_normal((5, 4))],
                         [rng.standard_normal(5), rng.standard_normal(4)])
    X = rng.standard_normal((3, 3))
    shared = sample_noise(0.5, 3, 6, StreamId(9))
    per_point = np.stack([sample_noise(0.5, 3, 6, StreamId(9, (b,)))
                          for b in range(3)])
    one = first_layer_noise(params, shared[None])
    for noise in (np.broadcast_to(one, (3,) + one.shape[1:]),
                  first_layer_noise(params, per_point)):
        got = soft_smoothed_predict(params, X, noise)
        assert got.shape == (3, 4)
        for b in range(3):
            np.testing.assert_allclose(
                got[b], soft_smoothed_predict(params, X[b:b + 1], noise[b:b + 1])[0],
                atol=1e-14)


def _dyadic_net(rng, sizes):
    """Small-integer weights and biases: on inputs on a 1/8 grid every logit is
    exact, so no summation order or BLAS kernel can change it."""
    return ModelParams(
        [rng.integers(-3, 4, (a, b)).astype(np.float64) for a, b in zip(sizes, sizes[1:])],
        [rng.integers(-3, 4, b).astype(np.float64) for b in sizes[1:]])


@pytest.mark.parametrize("per_point", [False, True])
def test_soft_predict_chunk_size_does_not_change_results(monkeypatch, per_point):
    # B*m = 36 noisy rows: one forward at the default budget, several below it
    rng = np.random.default_rng(12)
    params = _dyadic_net(rng, [5, 7, 3])
    B, m = 9, 4
    X = rng.integers(-8, 9, (B, 5)) / 8.0
    noise = first_layer_noise(params, rng.integers(-8, 9, (B if per_point else 1, m, 5)) / 8.0)
    noise = np.broadcast_to(noise, (B,) + noise.shape[1:])  # shared: one batch for all
    whole = soft_smoothed_predict(params, X, noise)
    rows = []

    def counting_tail(p, z1):
        rows.append(len(z1))
        return forward_tail(p, z1)

    monkeypatch.setattr(smoothing, "forward_tail", counting_tail)
    for chunk in (1, 3, 4, 7, 8, 13, 36):
        monkeypatch.setattr(smoothing, "COUNT_CHUNK", chunk)
        rows.clear()
        np.testing.assert_array_equal(soft_smoothed_predict(params, X, noise), whole)
        # whole points per forward, within the budget unless one point exceeds it
        assert sum(rows) == B * m and all(r % m == 0 for r in rows)
        assert max(rows) == max(m, chunk // m * m)


def test_soft_predict_linear_matches_gaussian_integral():
    # sharp linear net: soft output ~ hard indicator, so the smoothed
    # probability approaches Phi(margin / (sigma * |w|))
    w, b, sigma = np.array([0.6, -0.8]), 0.35, 0.9
    params = _linear_two_class(w, b, scale=1e4)
    x = np.array([0.3, 0.1])
    m = 100_000
    noise = sample_noise(sigma, 2, m, StreamId(6, ("mc",)))
    margin = float(w @ x + b)
    p_true = _phi(margin / (sigma * np.linalg.norm(w)))
    est = soft_smoothed_predict(params, x[None, :], first_layer_noise(params, noise[None]))[0, 1]
    se = math.sqrt(p_true * (1 - p_true) / m)
    assert abs(est - p_true) < 3 * se


def test_hard_counts_constant_net_all_class_zero():
    params = _constant_net()
    counts = hard_class_counts(params, np.zeros(3), 500, 1.0, StreamId(7))
    assert counts[0] == 500 and counts.sum() == 500


def test_hard_counts_linear_closed_form():
    w, b, sigma = np.array([1.0, 2.0]), -0.4, 0.5
    params = _linear_two_class(w, b)
    x = np.array([0.5, 0.2])
    count = 40_000
    counts = hard_class_counts(params, x, count, sigma, StreamId(8, ("hc",)))
    p_true = _phi(float(w @ x + b) / (sigma * np.linalg.norm(w)))
    se = math.sqrt(p_true * (1 - p_true) / count)
    assert abs(counts[1] / count - p_true) < 3 * se


def test_hard_counts_count_one():
    params = _linear_two_class(np.array([1.0]), 0.0)
    counts = hard_class_counts(params, np.array([5.0]), 1, 0.1, StreamId(9))
    assert counts.sum() == 1 and np.count_nonzero(counts) == 1


def test_hard_counts_chunking_seamless(monkeypatch):
    # crossing chunk boundaries (15 full chunks and a partial one) must not
    # change the draw sequence, for d <= h1 and for the row-space draws of d > h1
    for w in ([1.0, -1.0], [1.0, -1.0, 0.5]):
        params = _linear_two_class(np.array(w), 0.1)
        x = np.linspace(0.2, -0.1, len(w))
        monkeypatch.setattr(smoothing, "COUNT_CHUNK", 64)
        c1 = hard_class_counts(params, x, 1000, 1.0, StreamId(10, ("c",)))
        monkeypatch.setattr(smoothing, "COUNT_CHUNK", 1000)
        np.testing.assert_array_equal(
            c1, hard_class_counts(params, x, 1000, 1.0, StreamId(10, ("c",))))


def test_certify_factors_w1_once(monkeypatch):
    # d > h1: both CERTIFY rounds draw through one QR of W1, and a passed R
    # gives the counts hard_class_counts gets by factoring W1 itself
    params = init_mlp([20, 6, 4], StreamId(45))
    x = np.random.default_rng(46).standard_normal(20) * 0.3
    want = certify(params, x, SmoothingConfig(sigma=0.5, n0=50, n=400), StreamId(47))
    R = np.linalg.qr(params.weights[0], mode="r")
    np.testing.assert_array_equal(
        hard_class_counts(params, x, 400, 0.5, StreamId(48), R),
        hard_class_counts(params, x, 400, 0.5, StreamId(48)))
    factors = []
    qr = np.linalg.qr
    monkeypatch.setattr(np.linalg, "qr", lambda *a, **k: factors.append(1) or qr(*a, **k))
    assert certify(params, x, SmoothingConfig(sigma=0.5, n0=50, n=400),
                   StreamId(47)) == want
    assert len(factors) == 1


def _two_sample_chi2_p(a, b):
    """p-value of Pearson's chi-square test that two count vectors share one law."""
    stats = pytest.importorskip("scipy.stats")
    table = np.array([a, b])
    table = table[:, table.sum(axis=0) > 0]
    return stats.chi2_contingency(table, correction=False).pvalue


@pytest.mark.parametrize("sizes", [[20, 6, 6, 4], [7, 3]])
def test_hard_counts_law_matches_direct_sampler(sizes):
    # d > h1: the counts come from r = h1 normals per draw, the oracle's from
    # d. At this sigma every class gets a share, and noise 10% too large or
    # too small moves some class frequency by over 5 standard errors.
    params = init_mlp(sizes, StreamId(40))
    x = np.random.default_rng(41).standard_normal(sizes[0]) * 0.3
    count = 100_000
    got = hard_class_counts(params, x, count, 0.5, StreamId(42, ("row",)))
    want = direct_hard_class_counts(params, x, count, 0.5, StreamId(42, ("direct",)))
    assert got.sum() == count and np.all(want >= 0.02 * count)
    assert _two_sample_chi2_p(got, want) > 0.001


def test_hard_counts_draws_equal_direct_at_d_le_h1(monkeypatch):
    # d <= h1: the first layer sees x + sigma g for the very normals g of the
    # direct sampler, so the counts are the oracle's
    params = init_mlp([3, 8, 4], StreamId(43))
    x = np.array([0.4, -0.2, 0.1])
    seen = []

    def spying_tail(p, z1, outs=None):
        seen.append(z1.copy())
        return forward_tail(p, z1, outs)

    monkeypatch.setattr(smoothing, "forward_tail", spying_tail)
    got = hard_class_counts(params, x, 1500, 0.8, StreamId(44))
    deltas = sample_noise(0.8, 3, 1500, StreamId(44))
    np.testing.assert_array_equal(np.concatenate(seen),
                                  (x + deltas) @ params.weights[0] + params.biases[0])
    monkeypatch.undo()
    np.testing.assert_array_equal(
        got, direct_hard_class_counts(params, x, 1500, 0.8, StreamId(44)))


@pytest.mark.parametrize("count", [1, 999, 1000, 1001, 2500])
@pytest.mark.parametrize("sizes", [[784, 256, 256, 10], [2, 64, 64, 2]],
                         ids=["d>h1", "d<=h1"])
def test_hard_counts_buffers_match_the_allocating_loop(monkeypatch, sizes, count):
    # every chunk runs in the buffers of the first, with the allocating
    # loop's logits bit for bit
    params = init_mlp(sizes, StreamId(50))
    x = np.random.default_rng(51).uniform(0.0, 1.0, sizes[0])
    seen = []

    def spying_tail(p, z1, outs=None):
        logits = forward_tail(p, z1) if outs is None else forward_tail(p, z1, outs)
        seen.append((z1, outs, logits.copy()))
        return logits

    monkeypatch.setattr(smoothing, "forward_tail", spying_tail)
    got = hard_class_counts(params, x, count, 0.5, StreamId(52))
    want, want_logits = allocating_hard_class_counts(params, x, count, 0.5, StreamId(52))
    np.testing.assert_array_equal(got, want)
    assert len(seen) == len(want_logits)
    first_z1, first_outs, _ = seen[0]
    for (z1, outs, logits), want_chunk in zip(seen, want_logits):
        assert np.shares_memory(z1, first_z1)
        assert outs is not None
        assert all(np.shares_memory(a, b) for a, b in zip(outs, first_outs))
        assert logits.shape == want_chunk.shape
        assert logits.tobytes() == want_chunk.tobytes()


def _binomial_upper_quantile(n, p, level):
    """Smallest k with P(Binomial(n, p) > k) <= level."""
    cdf = 0.0
    for k in range(n + 1):
        cdf += math.comb(n, k) * p ** k * (1 - p) ** (n - k)
        if 1.0 - cdf <= level:
            return k
    return n


def test_clopper_pearson_on_row_space_counts_covers_analytic_p():
    # single-layer nets with d > h1 = 2 and logits (0, w.(x + delta) + b):
    # P(class 1) = Phi((w.x + b) / (sigma |w|)) exactly. For each class, a
    # point's p_lower exceeds that class's p_A with probability at most
    # alpha, independently across points.
    points, n, sigma, alpha = 2000, 400, 0.5, 0.05
    rng = np.random.default_rng(45)
    root = StreamId(46)
    above = np.zeros(2, dtype=int)
    for i in range(points):
        d = int(rng.integers(3, 7))
        w = rng.standard_normal(d)
        b = float(rng.standard_normal())
        x = rng.standard_normal(d)
        x += (rng.uniform(-0.5, 2.5) * sigma * np.linalg.norm(w) - (w @ x + b)) \
            * w / (w @ w)
        p_a = _phi(float(w @ x + b) / (sigma * np.linalg.norm(w)))
        counts = hard_class_counts(_linear_two_class(w, b), x, n, sigma, root.child(i))
        for c, p_c in enumerate((1.0 - p_a, p_a)):
            above[c] += clopper_pearson_lower(int(counts[c]), n, alpha) > p_c
    assert np.all(above <= _binomial_upper_quantile(points, alpha, 1e-3))


@pytest.mark.parametrize("sizes", [[9, 4, 5, 3], [3, 6, 3]])
@pytest.mark.parametrize("per_point", [False, True])
def test_soft_predict_matches_direct_oracle(sizes, per_point):
    params = init_mlp(sizes, StreamId(47))
    rng = np.random.default_rng(48)
    B, m, d = 5, 7, sizes[0]
    X = rng.standard_normal((B, d))
    deltas = rng.standard_normal((B, m, d) if per_point else (m, d)) * 0.6
    noise = first_layer_noise(params, deltas if per_point else deltas[None])
    got = soft_smoothed_predict(params, X, np.broadcast_to(noise, (B,) + noise.shape[1:]))
    np.testing.assert_allclose(got, direct_soft_predict(params, X, deltas), rtol=0, atol=1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_input_raises(bad):
    # argmax of a NaN row is class 0: without the check, CERTIFY certified it
    params = init_mlp([3, 8, 2], StreamId(0))
    x = np.array([bad, 0.0, 0.0])
    with pytest.raises(ValueError, match="non-finite"):
        certify(params, x, SmoothingConfig(sigma=0.5), StreamId(1))
    with pytest.raises(ValueError, match="non-finite"):
        hard_class_counts(params, x, 10, 0.5, StreamId(1))
    with pytest.raises(ValueError, match="non-finite"):
        soft_smoothed_predict(params, x[None, :], np.zeros((1, 4, 3)))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("sizes", [[2, 8, 8, 3], [12, 8, 8, 3]], ids=["d<=h1", "d>h1"])
def test_overflowing_logits_raise_instead_of_voting(sizes):
    # every weight is finite, but W1 and W2 scaled by 1e300 overflow the
    # logits to inf and NaN: argmax counted those rows as votes and CERTIFY
    # certified such a net
    params = init_mlp(sizes, StreamId(0))
    params.weights[0] *= 1e300
    params.weights[1] *= 1e300
    x = np.full(sizes[0], 0.5)
    with pytest.raises(NonFiniteError, match="non-finite logits"):
        hard_class_counts(params, x, 200, 0.5, StreamId(1))
    with pytest.raises(NonFiniteError, match="non-finite logits"):
        certify(params, x, SmoothingConfig(sigma=0.5), StreamId(2))
    with pytest.raises(NonFiniteError, match="non-finite logits"):
        soft_smoothed_predict(params, x[None, :],
                              first_layer_noise(params, np.zeros((1, 4, sizes[0]))))


def test_wrong_width_raises_dimension_mismatch():
    params = init_mlp([3, 8, 2], StreamId(0))
    with pytest.raises(DimensionMismatch):
        certify(params, np.zeros(4), SmoothingConfig(sigma=0.5), StreamId(1))
    with pytest.raises(DimensionMismatch):
        hard_class_counts(params, np.zeros(2), 10, 0.5, StreamId(1))
    with pytest.raises(DimensionMismatch):
        soft_smoothed_predict(params, np.zeros((2, 4)), np.zeros((2, 4, 4)))
    with pytest.raises(DimensionMismatch):
        soft_smoothed_predict(params, np.zeros((2, 3)), np.zeros((2, 4, 5)))
    with pytest.raises(DimensionMismatch):
        soft_smoothed_predict(params, np.zeros((2, 3)), np.zeros((3, 4, 3)))
    with pytest.raises(DimensionMismatch):  # one (m, d) batch is a (1, m, d) batch
        soft_smoothed_predict(params, np.zeros((2, 3)), np.zeros((4, 3)))
    wide = init_mlp([6, 4, 2], StreamId(0))
    with pytest.raises(DimensionMismatch):  # raw draws where delta W1 belongs
        soft_smoothed_predict(wide, np.zeros((2, 6)), np.zeros((2, 4, 6)))


def test_noise_for_more_points_than_inputs_raises(monkeypatch):
    # one point per forward: the forwards over X alone would each see a
    # matching slice of the noise and never the extra batches
    monkeypatch.setattr(smoothing, "COUNT_CHUNK", 1)
    params = init_mlp([3, 8, 2], StreamId(0))
    with pytest.raises(DimensionMismatch):
        soft_smoothed_predict(params, np.zeros((2, 3)), np.zeros((5, 4, 3)))


# ---------------------------------------------------------------- quantile


def test_quantile_center():
    # just above 1/2 the radius is linear in p - 1/2, with slope sqrt(2 pi)
    h = 1e-9
    assert certified_radius(0.5 + h, 1.0) == pytest.approx(
        h * math.sqrt(2.0 * math.pi), rel=1e-6)


def test_quantile_frozen_oracles():
    for p, want in PHI_INV_ORACLE.items():
        if p > 0.5:
            assert certified_radius(p, 1.0) == pytest.approx(want, abs=1e-9)
    assert certified_radius(0.975, 1.0) == pytest.approx(1.959964, abs=1e-6)


def test_quantile_round_trip_tight():
    rng = np.random.default_rng(11)
    ps = np.concatenate([rng.uniform(0.5 + 1e-6, 1 - 1e-6, 1000),
                         [0.5 + 1e-12, 1 - 1e-9, 1 - 1e-12]])
    for p in ps:
        assert abs(_phi(certified_radius(p, 1.0)) - p) < 1e-12


def _certifying_p_lowers(n, stride, alpha=0.001):
    """Clopper-Pearson limits above 1/2 for k = n, n - stride, ... ."""
    out = []
    for k in range(n, 0, -stride):
        p = clopper_pearson_lower(k, n, alpha)
        if p <= 0.5:
            break
        out.append(p)
    return out


def test_certified_radius_matches_mpmath():
    # sigma * Phi^{-1}(p_lower) against mpmath's erfinv at 40 digits, for every
    # certifying count at n = 1000 and a stride at n = 10^4; the radius column
    # is written with 6 decimals, so those strings must agree too
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    ps = _certifying_p_lowers(1000, 1) + _certifying_p_lowers(10_000, 7)
    assert len(ps) > 1000
    for p in ps:
        phi_inv = mpmath.sqrt(2) * mpmath.erfinv(2 * mpmath.mpf(p) - 1)
        for sigma in (0.25, 0.5, 1.0):
            want = float(sigma * phi_inv)
            got = certified_radius(p, sigma)
            assert abs(got - want) < 1e-12, (p, sigma)
            assert f"{got:.6f}" == f"{want:.6f}", (p, sigma)


# ---------------------------------------------------------------- clopper-pearson


def test_cp_k_zero_exact():
    assert clopper_pearson_lower(0, 100, 0.001) == 0.0


def test_cp_k_equals_n_closed_form():
    assert abs(clopper_pearson_lower(100, 100, 0.001) - 0.001 ** 0.01) < 1e-12
    assert abs(clopper_pearson_lower(1000, 1000, 0.001)
               - 0.001 ** 0.001) < 1e-12
    assert abs(clopper_pearson_lower(10, 10, 0.05) - 0.05 ** 0.1) < 1e-12
    assert clopper_pearson_lower(100, 100, 0.001) == pytest.approx(
        0.933254300796991, abs=1e-12)


def test_cp_frozen_oracles():
    for (k, n, a), want in CP_ORACLE.items():
        assert clopper_pearson_lower(k, n, a) == pytest.approx(want, abs=1e-9)


def test_cp_against_live_beta_quantile():
    beta = pytest.importorskip("scipy.stats").beta
    rng = np.random.default_rng(12)
    for n in (10, 100, 1000):
        for k in rng.integers(1, n, 8):
            k = int(k)
            want = beta.ppf(0.001, k, n - k + 1)
            assert clopper_pearson_lower(k, n, 0.001) == pytest.approx(
                want, abs=1e-9)


def test_cp_validation():
    with pytest.raises(ValueError):
        clopper_pearson_lower(-1, 10, 0.001)
    with pytest.raises(ValueError):
        clopper_pearson_lower(11, 10, 0.001)
    with pytest.raises(ValueError):
        clopper_pearson_lower(5, 10, 0.0)


@settings(max_examples=200, deadline=None)
@given(n=st.sampled_from([10, 100, 1000]), frac=st.floats(0.0, 1.0),
       alpha=st.floats(1e-6, 0.5))
def test_cp_bounded_by_frequency(n, frac, alpha):
    k = int(round(frac * n))
    p = clopper_pearson_lower(k, n, alpha)
    assert 0.0 <= p <= k / n + 1e-12


@settings(max_examples=60, deadline=None)
@given(n=st.sampled_from([10, 100, 1000]), frac=st.floats(0.0, 0.99),
       alpha=st.floats(1e-5, 0.2))
def test_cp_monotone_in_k(n, frac, alpha):
    k = int(frac * n)
    assert (clopper_pearson_lower(k + 1, n, alpha)
            >= clopper_pearson_lower(k, n, alpha) - 1e-12)


def _bisection_lower(k, n, alpha):
    """The plain Clopper-Pearson bisection: every one of its midpoints
    evaluates the exact tail (the oracle for the Newton-guided solver)."""
    if k == 0:
        return 0.0
    if k == n:
        return math.exp(math.log(alpha) / n)
    lo, hi = 0.0, 1.0
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        if smoothing._binom_upper_tail(k, n, mid) < alpha:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("alpha", [0.001, 0.05])
@pytest.mark.parametrize("n", [1, 2, 3, 10, 37, 100, 1000])
def test_cp_equals_bisection_every_k(n, alpha):
    got = [clopper_pearson_lower(k, n, alpha) for k in range(n + 1)]
    assert got == [_bisection_lower(k, n, alpha) for k in range(n + 1)]


@pytest.mark.parametrize("alpha", [0.001, 0.05])
@pytest.mark.parametrize("n, stride", [(10_000, 97), (100_000, 1999)])
def test_cp_equals_bisection_on_a_stride(n, stride, alpha):
    # CERTIFY's k sits near n, so the stride adds the last few counts
    ks = list(range(1, n, stride)) + [n // 2, n - 3, n - 2, n - 1]
    assert ([clopper_pearson_lower(k, n, alpha) for k in ks]
            == [_bisection_lower(k, n, alpha) for k in ks])


def test_cp_equals_bisection_at_extreme_alpha():
    for k, n in [(1, 50), (25, 50), (49, 50), (999, 1000), (3, 1000)]:
        for alpha in (1e-300, 1e-12, 0.5, 0.999):
            assert clopper_pearson_lower(k, n, alpha) == _bisection_lower(k, n, alpha)


def test_cp_memo_returns_the_uncached_values():
    uncached = clopper_pearson_lower.__wrapped__
    keys = [(k, n, alpha) for n in (1, 50, 1000) for alpha in (1e-12, 0.001, 0.5)
            for k in sorted({0, 1, n // 3, n // 2, n - 1, n})]
    first = [clopper_pearson_lower(*key) for key in keys]
    again = [clopper_pearson_lower(*key) for key in keys]  # from the memo
    assert first == again == [uncached(*key) for key in keys]
    assert clopper_pearson_lower.cache_info().hits >= len(keys)


def test_cp_evaluates_the_tail_far_fewer_times(monkeypatch):
    calls = []
    tail = smoothing._binom_upper_tail
    monkeypatch.setattr(smoothing, "_binom_upper_tail",
                        lambda *a: calls.append(a) or tail(*a))
    for k in range(900, 1000, 7):
        clopper_pearson_lower.__wrapped__(k, 1000, 0.001)  # past the memo
    # the plain bisection makes 34 evaluations per call
    assert len(calls) <= 14 * len(range(900, 1000, 7))


# ---------------------------------------------------------------- radius


def test_radius_boundary_not_certifiable():
    for p in (0.5, 0.3):
        with pytest.raises(NotCertifiable):
            certified_radius(p, 1.0)


def test_radius_quarter_at_phi_one():
    assert certified_radius(PHI_AT_1, 0.25) == pytest.approx(0.25, abs=1e-6)


def test_radius_monotone_in_p():
    assert certified_radius(0.9, 0.5) < certified_radius(0.99, 0.5)


def test_radius_domain():
    for p in [0.0, 1.0, -0.5, 1.5]:
        with pytest.raises(ValueError):
            certified_radius(p, 0.5)


# ---------------------------------------------------------------- certify


def test_certify_constant_classifier_closed_form():
    params = _constant_net(dim=2, classes=3)
    cfg = SmoothingConfig(sigma=0.5, n0=100, n=1000, alpha_cert=0.001)
    out = certify(params, np.zeros(2), cfg, StreamId(13, ("certify", 0)))
    assert out.certified and out.predicted_class == 0
    want_p = 0.001 ** (1 / 1000)
    assert out.p_lower == pytest.approx(want_p, abs=1e-12)
    # 0.5 * Phi^{-1}(want_p), from mpmath erfinv at 40 digits
    assert out.radius == pytest.approx(1.2316313073904056, abs=1e-12)


def test_certify_margin_zero_abstains():
    params = _linear_two_class(np.array([1.0, 0.0]), 0.0)
    cfg = SmoothingConfig(sigma=1.0, n0=50, n=500, alpha_cert=0.001)
    x = np.zeros(2)  # exactly on the decision boundary
    abstained = 0
    for rep in range(100):
        out = certify(params, x, cfg, StreamId(14, ("rep", rep)))
        abstained += not out.certified
        if not out.certified:
            assert out.predicted_class == ABSTAIN and out.radius == 0.0
    assert abstained >= 95


def test_certify_raises_on_radius_failure(monkeypatch):
    # only p_lower <= 1/2 abstains; a failure inside the radius computation
    # propagates instead of turning into an abstain
    import smoothcert.smoothing as smoothing

    def broken(p_lower, sigma):
        raise ValueError("radius computation failed")

    monkeypatch.setattr(smoothing, "certified_radius", broken)
    params = _constant_net(dim=2, classes=3)
    cfg = SmoothingConfig(sigma=0.5, n0=100, n=1000, alpha_cert=0.001)
    with pytest.raises(ValueError, match="radius computation failed"):
        certify(params, np.zeros(2), cfg, StreamId(13, ("certify", 0)))


def test_certify_zero_count_abstains(monkeypatch):
    # selection picks class 0 but the estimation round never sees it: k = 0
    # gives p_lower = 0, an abstain rather than an error
    import smoothcert.smoothing as smoothing

    def counts(params, x, count, sigma, stream, R=None):
        top = 0 if stream.path[-1] == "selection" else 1
        return np.bincount([top], minlength=2) * count

    monkeypatch.setattr(smoothing, "hard_class_counts", counts)
    cfg = SmoothingConfig(sigma=0.5, n0=10, n=100, alpha_cert=0.001)
    out = certify(_constant_net(dim=2, classes=2), np.zeros(2), cfg, StreamId(17))
    assert not out.certified and out.predicted_class == ABSTAIN
    assert out.p_lower == 0.0


def test_certify_reproducible():
    params = _linear_two_class(np.array([0.3, -0.7]), 0.2)
    cfg = SmoothingConfig(sigma=0.5)
    a = certify(params, np.array([0.1, 0.4]), cfg, StreamId(15, ("pt", 3)))
    b = certify(params, np.array([0.1, 0.4]), cfg, StreamId(15, ("pt", 3)))
    assert a == b


def test_certify_radius_nondecreasing_in_n_unanimous():
    params = _constant_net(dim=2, classes=2)
    radii = []
    for n in (100, 1000, 10000):
        cfg = SmoothingConfig(sigma=1.0, n0=100, n=n, alpha_cert=0.001)
        radii.append(certify(params, np.zeros(2), cfg, StreamId(16)).radius)
    assert radii[0] < radii[1] < radii[2]


def test_outcome_invariants_enforced():
    with pytest.raises(ValueError):
        CertifyOutcome(certified=True, predicted_class=1, radius=0.1,
                       p_lower=0.4)  # certified requires p_lower > 1/2
    with pytest.raises(ValueError):
        CertifyOutcome(certified=False, predicted_class=2, radius=0.0,
                       p_lower=0.4)  # abstain carries the sentinel class
    with pytest.raises(ValueError):
        CertifyOutcome(certified=False, predicted_class=ABSTAIN, radius=0.5,
                       p_lower=0.4)  # abstain carries no radius


def test_smoothing_config_validation():
    with pytest.raises(ValueError):
        SmoothingConfig(sigma=0.5, n0=200, n=100)
    with pytest.raises(ValueError):
        SmoothingConfig(sigma=-1.0)
    with pytest.raises(ValueError):
        SmoothingConfig(sigma=0.5, alpha_cert=1.0)


# ---------------------------------------------------------------- csv


def test_certification_csv_round_trip(tmp_path):
    rows = [[0, 1, 1, "0.293001", "0.933254300797", 1, 0, "0.0032"],
            [1, 0, ABSTAIN, "0.000000", "0.41", 0, 1, "0.0041"]]
    path = tmp_path / "cert.csv"
    write_certification_csv(path, rows)
    header = path.read_text().splitlines()[0]
    assert header == "idx,label,predicted,radius,p_lower,correct,abstain,seconds"
    back = read_certification_csv(path, sigma=0.5)
    assert back.labels == (1, 0) and back.sigma == 0.5
    assert back.outcomes == (
        CertifyOutcome(certified=True, predicted_class=1, radius=0.293001,
                       p_lower=0.933254300797),
        CertifyOutcome(certified=False, predicted_class=ABSTAIN, radius=0.0,
                       p_lower=0.41))


def test_certification_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
        read_certification_csv(path, sigma=0.5)
