import csv
import hashlib
import math
import os
import sys
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import smoothcert.theory as theory
from smoothcert.cli import main, write_theory_csv
from smoothcert.rng import StreamId
from smoothcert.theory import (
    FAMILY_FOURTH_MOMENT,
    DecayReport,
    DecayRow,
    TheorySimConfig,
    d_threshold,
    interval_halfwidth_k,
    lemma_constant_C,
    verify_decay,
)

# hand-computed from the three closed-form terms at the reference config
# sigma=1, tau=1.5, eps=0.5, p=0.8
C_ORACLE = {
    "gaussian": 42.17751479289941,      # max(25.6, 0.4615..., 42.1775...)
    "uniform_pm": 21.472189349112426,   # max(10.24, 0.4615..., 21.4722...)
    "rademacher": 7.668639053254438,    # max(0, 0.4615..., 7.6686...)
}
THRESHOLD_ORACLE = {
    "gaussian": 25.6,
    "uniform_pm": 10.24,
    "rademacher": 0.46153846153846156,
}


def _ref_cfg(**kw):
    base = dict(d=64, sigma=1.0, tau=1.5, epsilon=0.5, p=0.8,
                noise_family="gaussian", trials=1000)
    base.update(kw)
    return TheorySimConfig(**base)


def _gaussian_rows_oracle(gen, trials, d, z, chunk=10_000):
    """Brute-force gaussian reference: draw full N(0, I_d) rows and reduce
    each to (|delta|^2, delta.z)."""
    sq, dz = [], []
    for done in range(0, trials, chunk):
        delta = gen.standard_normal((min(chunk, trials - done), d))
        sq.append(np.einsum("ij,ij->i", delta, delta))
        dz.append(delta @ z)
    return np.concatenate(sq), np.concatenate(dz)


def _direct_gaussian(gen, trials, d, z):
    """(|delta|^2, delta.z) from the gaussian law theory samples: rotation
    invariance makes delta.z equal in law to |z| times delta_1."""
    ((sq, dz),) = theory._noise_stats(gen, "gaussian", trials, d,
                                      float(np.linalg.norm(z)))
    return sq, dz


def _row_stats(gen, family, trials, d, z):
    """(|delta|^2, delta.z) for a row-sampled family, drawn with
    theory._draw_rows in theory's chunking and generator order."""
    step = min(trials, max(1, theory._CHUNK_ELEMENTS // d))
    buf, sq, dz = np.empty((step, d)), [], []
    for done in range(0, trials, step):
        delta = theory._draw_rows(gen, family, buf[:min(step, trials - done)])
        sq.append(np.einsum("ij,ij->i", delta, delta))
        dz.append(delta @ z)
    return np.concatenate(sq), np.concatenate(dz)


def _event_stat(cfg, sq, dz, z):
    """val = |tau*delta + z|^2 / d, the statistic the event bins, in
    theory._event_values' order of operations."""
    return (cfg.tau * cfg.tau * sq + 2.0 * cfg.tau * dz + float(z @ z)) / cfg.d


def _oracle_values(cfg, z, stream):
    """The event statistic for cfg.trials draws under a shift z in any
    direction."""
    gen = stream.generator()
    if cfg.noise_family == "gaussian":
        sq, dz = _direct_gaussian(gen, cfg.trials, cfg.d, z)
    else:
        sq, dz = _row_stats(gen, cfg.noise_family, cfg.trials, cfg.d, z)
    return _event_stat(cfg, sq, dz, z)


def worst_case_prob(cfg, k, z, stream):
    """(estimate, std_error) of P(|tau*delta + z|^2 / d in [sigma^2 - k,
    sigma^2 + k]) by Monte Carlo; z is the shift itself, in any direction."""
    return theory._event_estimate(cfg, _oracle_values(cfg, z, stream), k)


def _axis_prob(cfg, k, stream):
    """The event stage verify_decay runs: the shift is epsilon along the
    first axis."""
    return theory._event_estimate(cfg, theory._event_values(cfg, stream), k)


def _toward(cfg, direction):
    """The shift of length epsilon along direction."""
    direction = np.asarray(direction, dtype=np.float64)
    return (cfg.epsilon / float(np.linalg.norm(direction))) * direction


def _first_axis(cfg):
    return _toward(cfg, np.eye(1, cfg.d)[0])


# ---------------------------------------------------------------- constants


def test_constant_plug_values():
    for fam, want in C_ORACLE.items():
        cfg = _ref_cfg(noise_family=fam)
        assert lemma_constant_C(cfg) == pytest.approx(want, rel=1e-12)
        assert d_threshold(cfg) == pytest.approx(THRESHOLD_ORACLE[fam],
                                                 rel=1e-12)


def test_constant_scale_invariance():
    a = _ref_cfg()
    b = _ref_cfg(sigma=0.5, tau=0.75, epsilon=0.25)
    assert lemma_constant_C(b) == pytest.approx(lemma_constant_C(a), rel=1e-12)
    assert d_threshold(b) == pytest.approx(d_threshold(a), rel=1e-12)


def _eta_kurt(cfg):
    """sqrt(E[r^4] - 1), the fourth-moment spread entering the constant."""
    return math.sqrt(FAMILY_FOURTH_MOMENT[cfg.noise_family] - 1.0)


def test_eta_kurt_per_family():
    assert _eta_kurt(_ref_cfg()) == pytest.approx(math.sqrt(2.0), rel=1e-15)
    assert _eta_kurt(_ref_cfg(noise_family="uniform_pm")) == pytest.approx(
        math.sqrt(0.8), rel=1e-15)
    assert _eta_kurt(_ref_cfg(noise_family="rademacher")) == 0.0


def test_config_validation():
    with pytest.raises(ValueError):
        _ref_cfg(noise_family="cauchy")
    with pytest.raises(ValueError):
        _ref_cfg(d=0)
    with pytest.raises(ValueError):
        _ref_cfg(tau=1.0)  # sigma == tau
    with pytest.raises(ValueError):
        _ref_cfg(epsilon=0.0)
    with pytest.raises(ValueError):
        _ref_cfg(epsilon=0.6)
    with pytest.raises(ValueError):
        _ref_cfg(p=0.5)
    with pytest.raises(ValueError):
        _ref_cfg(p=1.0)
    with pytest.raises(ValueError):
        _ref_cfg(trials=0)


# ---------------------------------------------------------------- sampling


def test_buffered_uniform_draw_is_gen_uniform():
    # chunks drawn into one buffer, in sequence, are one gen.uniform draw
    want = np.random.default_rng(7).uniform(-math.sqrt(3.0), math.sqrt(3.0),
                                            size=(70, 13))
    gen, buf, got = np.random.default_rng(7), np.empty((32, 13)), []
    for rows in (32, 32, 6):
        got.append(theory._draw_rows(gen, "uniform_pm", buf[:rows]).copy())
    assert np.concatenate(got).tobytes() == want.tobytes()


def test_family_draw_ranges():
    gen = np.random.default_rng(0)
    u = theory._draw_rows(gen, "uniform_pm", np.empty((2000, 8)))
    assert np.max(np.abs(u)) <= math.sqrt(3.0)
    assert np.var(u) == pytest.approx(1.0, rel=0.05)
    r = theory._draw_rows(gen, "rademacher", np.empty((100, 8)))
    assert set(np.unique(r)) == {-1.0, 1.0}


def test_rademacher_halfwidth_exactly_zero():
    cfg = _ref_cfg(noise_family="rademacher", trials=200)
    assert interval_halfwidth_k(cfg, 200, StreamId(0)) == 0.0


def test_halfwidth_matches_clt_quantile():
    # |chi2_d/d - 1| at p=0.8 ~= sqrt(2/d) * PhiInv(0.9) for large d
    cfg = _ref_cfg(d=4096, trials=200_000)
    k = interval_halfwidth_k(cfg, 200_000, StreamId(1))
    assert k == pytest.approx(0.02831855632615073, rel=0.10)


def test_halfwidth_monotone_in_p():
    k_lo = interval_halfwidth_k(_ref_cfg(p=0.8), 5000, StreamId(2))
    k_hi = interval_halfwidth_k(_ref_cfg(p=0.95), 5000, StreamId(2))
    assert 0.0 <= k_lo <= k_hi


def test_halfwidth_decays_with_dimension():
    k64 = interval_halfwidth_k(_ref_cfg(d=64), 50_000, StreamId(3))
    k1024 = interval_halfwidth_k(_ref_cfg(d=1024), 50_000, StreamId(3))
    assert k64 > 2.0 * k1024


def chebyshev_k_bound(cfg):
    """Chebyshev upper bound sigma^2 * eta / sqrt(d (1-p)) on the quantile k."""
    return cfg.sigma ** 2 * _eta_kurt(cfg) / math.sqrt(cfg.d * (1.0 - cfg.p))


def test_chebyshev_bound_dominates_empirical_k():
    for fam in ("gaussian", "uniform_pm"):
        for d in (64, 256):
            cfg = _ref_cfg(noise_family=fam, d=d)
            k = interval_halfwidth_k(cfg, 25_000, StreamId(4))
            assert k <= chebyshev_k_bound(cfg)


def test_halfwidth_trials_validation():
    with pytest.raises(ValueError):
        interval_halfwidth_k(_ref_cfg(), 0, StreamId(0))


def test_linear_quantile_is_np_quantile_bit_for_bit():
    # np.quantile, the oracle, at 10,000 random (n, p) pairs and at the edges:
    # n = 1 and 2, ties, whole (n - 1) p, both interpolation branches, p near 1
    rng = np.random.default_rng(61)
    cases = [(1, 0.8), (2, 0.8), (2, 0.25), (5, 0.75), (11, 0.81), (11, 0.87),
             (1000, float(np.nextafter(1.0, 0.0))), (7, 1.0), (7, 0.0)]
    cases += [(int(n), float(p)) for n, p in zip(rng.integers(1, 300, 10_000),
                                                  rng.random(10_000))]
    gammas = []
    for i, (n, p) in enumerate(cases):
        if i % 3 == 0:  # ties
            values = rng.integers(0, 5, n).astype(np.float64)
        else:
            values = np.abs(rng.standard_normal(n)) * 10.0 ** rng.integers(-3, 4)
        want = np.quantile(values, p)
        got = theory._linear_quantile(values.copy(), p)
        assert np.float64(got).tobytes() == np.float64(want).tobytes(), (n, p)
        gammas.append((n - 1) * p - math.floor((n - 1) * p))
    assert 0.0 in gammas and min(g for g in gammas if g > 0) < 0.5 <= max(gammas)


# ---------------------------------------------------------------- event prob


def test_worst_case_prob_se_formula_and_range():
    cfg = _ref_cfg(trials=20_000)
    est, se = _axis_prob(cfg, 1.0, StreamId(5))
    assert 0.0 < est < 1.0
    assert se == pytest.approx(math.sqrt(est * (1 - est) / 20_000), rel=1e-12)


@pytest.mark.parametrize("family", ["gaussian", "uniform_pm", "rademacher"])
def test_oracle_on_the_first_axis_is_the_event_stage(monkeypatch, family):
    # the scalar shift epsilon * delta_1 gives the bits of delta.z with the
    # d-long z = epsilon e_1; 1,024 elements per chunk end 1,001 trials in a
    # partial chunk at d = 100
    monkeypatch.setattr(theory, "_CHUNK_ELEMENTS", 1024)
    for d in (1, 16, 100):
        cfg = _ref_cfg(d=d, trials=1001, noise_family=family)
        got = theory._event_values(cfg, StreamId(44, (d,)))
        want = _oracle_values(cfg, _first_axis(cfg), StreamId(44, (d,)))
        assert got.tobytes() == want.tobytes(), d


def test_rotation_invariance_of_gaussian_event():
    # isotropic noise: the shift direction must not matter beyond MC error
    cfg = _ref_cfg(trials=200_000)
    a, se_a = _axis_prob(cfg, 1.0, StreamId(6, ("a",)))
    b, se_b = worst_case_prob(cfg, 1.0, _toward(cfg, np.ones(64)),
                              StreamId(6, ("b",)))
    assert abs(a - b) <= 4.0 * math.hypot(se_a, se_b)


def test_chunk_size_does_not_change_results(monkeypatch):
    # uniform_pm draws rows in chunks; gaussian must ignore the chunk size
    for family in ("gaussian", "uniform_pm"):
        cfg = _ref_cfg(d=16, trials=500, noise_family=family)
        k_big = interval_halfwidth_k(cfg, 500, StreamId(7))
        p_big = _axis_prob(cfg, 0.8, StreamId(8))
        with monkeypatch.context() as m:
            m.setattr(theory, "_CHUNK_ELEMENTS", 128)  # 8 rows per chunk
            k_small = interval_halfwidth_k(cfg, 500, StreamId(7))
            p_small = _axis_prob(cfg, 0.8, StreamId(8))
        assert k_big == k_small, family
        assert p_big == p_small, family


# Reference values of the row sampler at version 0.1.0; the families that
# draw rows must reproduce them exactly.
# (k, estimate on the first axis, estimate along 1..16), d=16, trials=3000.
_ROW_FAMILY_PINS = {
    "uniform_pm": (0.2820142533504719, 0.5286666666666666, 0.5473333333333333),
    "rademacher": (0.0, 0.49766666666666665, 0.626),
}


def test_row_sampled_families_unchanged():
    for family, (k_want, axis_want, diag_want) in _ROW_FAMILY_PINS.items():
        cfg = _ref_cfg(d=16, trials=3000, noise_family=family)
        assert interval_halfwidth_k(cfg, 3000, StreamId(41)) == k_want
        axis, _ = _axis_prob(cfg, 1.3, StreamId(42))
        diag, _ = worst_case_prob(cfg, 1.3, _toward(cfg, np.arange(1.0, 17.0)),
                                  StreamId(43))
        assert axis == axis_want, family
        assert diag == diag_want, family


# ------------------------------------------------ gaussian chi-square sampler


@pytest.mark.parametrize("d", [2, 16])
def test_gaussian_law_matches_row_oracle_ks(d):
    stats = pytest.importorskip("scipy.stats")
    cfg = _ref_cfg(d=d)
    z = np.full(d, cfg.epsilon / math.sqrt(d))  # off-axis shift, |z| = eps
    sq_o, dz_o = _gaussian_rows_oracle(StreamId(51, ("oracle", d)).generator(),
                                       20_000, d, z)
    sq_n, dz_n = _direct_gaussian(StreamId(51, ("direct", d)).generator(),
                                  20_000, d, z)
    assert stats.ks_2samp(sq_o / d, sq_n / d).pvalue > 0.01
    val_o = _event_stat(cfg, sq_o, dz_o, z)
    val_n = _event_stat(cfg, sq_n, dz_n, z)
    assert stats.ks_2samp(val_o, val_n).pvalue > 0.01


def test_gaussian_event_matches_row_oracle_at_d64():
    cfg = _ref_cfg(d=64, trials=100_000)
    z = _first_axis(cfg)
    sq, dz = _gaussian_rows_oracle(StreamId(52, ("oracle",)).generator(),
                                   cfg.trials, 64, z)
    val = _event_stat(cfg, sq, dz, z)
    p_o = float(np.count_nonzero((val >= 0.0) & (val <= 2.0))) / cfg.trials
    se_o = math.sqrt(p_o * (1.0 - p_o) / cfg.trials)
    got, se = _axis_prob(cfg, 1.0, StreamId(52, ("direct",)))
    assert 0.05 < got < 0.95
    assert abs(got - p_o) <= 4.0 * math.hypot(se, se_o)


def test_gaussian_d1_has_no_chi_square_remainder():
    # chi2_0 is zero, so at d=1 |delta|^2 is exactly (delta.unit(z))^2
    sq, dz = _direct_gaussian(np.random.default_rng(0), 1000, 1,
                              np.array([0.5]))
    np.testing.assert_array_equal(sq, (dz / 0.5) ** 2)
    cfg = _ref_cfg(d=1, trials=1000)
    assert interval_halfwidth_k(cfg, 1000, StreamId(53)) > 0.0
    est, _ = _axis_prob(cfg, 1.0, StreamId(54))
    assert 0.0 < est < 1.0


def test_gaussian_memory_does_not_grow_with_dimension():
    # (trials x d) rows would take 3 GiB at d = 4,096; the O(trials) path
    # holds a few arrays of 100,000 doubles (3.1 MiB measured). A small run
    # first, untraced, so that what a first call imports is not counted.
    cfg = _ref_cfg(d=4096, trials=100_000)
    small = _ref_cfg(d=4096, trials=10)
    _axis_prob(small, interval_halfwidth_k(small, 10, StreamId(53)),
               StreamId(54))
    tracemalloc.start()
    try:
        k = interval_halfwidth_k(cfg, cfg.trials, StreamId(55))
        _axis_prob(cfg, k, StreamId(56))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


# ---------------------------------------------------------------- decay check


def _sequential_decay(cfg, dims, stream):
    """The k-then-event loop over dims, one stage at a time, through the
    public interval_halfwidth_k and the d-long shift of worst_case_prob."""
    c = lemma_constant_C(cfg)
    rows = []
    for d in dims:
        cfg_d = replace(cfg, d=d)
        k = interval_halfwidth_k(cfg_d, cfg_d.trials, stream.child("k", d))
        est, se = worst_case_prob(cfg_d, k, _first_axis(cfg_d),
                                  stream.child("event", d))
        bound = c / d
        rows.append(DecayRow(d, k, est, se, bound, est <= bound + 3.0 * se))
    return DecayReport(cfg.noise_family, c, tuple(rows),
                       all(r.passed for r in rows))


def _set_cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)),
                        raising=False)


@pytest.mark.parametrize("cpus", [1, 8])
@pytest.mark.parametrize("family", ["gaussian", "uniform_pm", "rademacher"])
def test_verify_decay_equals_sequential_oracle(monkeypatch, family, cpus):
    # d = 100 and 300 are not powers of two; at 1,024 elements per chunk,
    # 1,001 trials end in a partial chunk at every d. With 8 CPUs the six
    # stages run on six threads that switch often, so an event stage may
    # finish its draws before its k.
    _set_cpus(monkeypatch, cpus)
    monkeypatch.setattr(theory, "_CHUNK_ELEMENTS", 1024)
    cfg = _ref_cfg(noise_family=family, trials=1001)
    dims = (64, 100, 300)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = verify_decay(cfg, dims, StreamId(58))
    finally:
        sys.setswitchinterval(interval)
    assert got == _sequential_decay(cfg, dims, StreamId(58))


def test_verify_decay_k_failure_reaches_the_caller(monkeypatch):
    # an event stage waits for its k; a k stage that raises must not leave
    # it waiting
    def failing_k(*args):
        raise MemoryError("k")

    _set_cpus(monkeypatch, 8)
    monkeypatch.setattr(theory, "interval_halfwidth_k", failing_k)
    cfg = _ref_cfg(noise_family="uniform_pm", trials=5000)
    raised = []

    def call():
        try:
            verify_decay(cfg, (64, 256), StreamId(59))
        except MemoryError as exc:
            raised.append(exc)

    worker = threading.Thread(target=call, daemon=True)
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive()
    assert [str(e) for e in raised] == ["k"]


def test_row_family_decay_holds_one_chunk_per_stage(monkeypatch):
    # uniform_pm over 2,048 trials at d = 1,024, 2,048 and 4,096: every stage
    # fills one 512 KiB buffer in chunks (128 of 16 rows at d = 4,096). At 8
    # CPUs at most rng.MAX_STREAM_THREADS of the six stages run at once, so
    # the peak stays under three buffers, 1.5 MiB (1.1 MiB measured); a fresh
    # array per chunk keeps two of them live per stage, 2.1 MiB, and a stage
    # per CPU holds 3.2 MiB. One run first, untraced, so that what its first
    # call imports and caches is not counted.
    _set_cpus(monkeypatch, 8)
    cfg = _ref_cfg(trials=2048, noise_family="uniform_pm")
    verify_decay(cfg, (1024,), StreamId(56))
    tracemalloc.start()
    try:
        verify_decay(cfg, (1024, 2048, 4096), StreamId(57))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 2 ** 20


def test_reference_decay_run_passes():
    cfg = _ref_cfg(trials=50_000)
    report = verify_decay(cfg, (64, 256), StreamId(9))
    assert report.family == "gaussian"
    assert report.constant_c == pytest.approx(C_ORACLE["gaussian"], rel=1e-12)
    assert [r.d for r in report.rows] == [64, 256]
    for r in report.rows:
        assert r.bound_c_over_d == pytest.approx(report.constant_c / r.d,
                                                 rel=1e-12)
        assert r.passed
    assert report.passed


def test_verify_decay_dims_validation():
    cfg = _ref_cfg(trials=100)
    with pytest.raises(ValueError):
        verify_decay(cfg, (), StreamId(0))
    with pytest.raises(ValueError):
        verify_decay(cfg, (256, 64), StreamId(0))
    with pytest.raises(ValueError, match="25.6"):
        verify_decay(cfg, (16, 64), StreamId(0))  # 16 below the threshold


# ---------------------------------------------------------------- csv


def test_theory_csv_layout(tmp_path):
    rows = (DecayRow(64, 0.1234, 0.01, 0.001, 0.5, True),
            DecayRow(256, 0.0617, 0.002, 0.0005, 0.125, False))
    rep = DecayReport("gaussian", 42.0, rows, False)
    path = tmp_path / "theory.csv"
    write_theory_csv(path, [rep])
    with open(path, newline="") as fh:
        got = list(csv.reader(fh))
    assert got[0] == ["family", "d", "k", "estimate", "std_error",
                      "bound_C_over_d", "pass"]
    assert got[1] == ["gaussian", "64", "0.1234", "0.01", "0.001", "0.5", "1"]
    assert got[2][0] == "gaussian" and got[2][-1] == "0"


def test_theory_sim_csv_bytes(tmp_path):
    # a real run of all three families, pinned by the sha256 of version
    # 0.7.0's theory.csv; tau = 1.8 puts d = 16 above every d-threshold and
    # leaves nonzero estimates at d = 16
    cfg = tmp_path / "theory.cfg"
    cfg.write_text("families = gaussian, uniform_pm, rademacher\ntau = 1.8\n"
                   "dims = 16, 64\ntrials = 2000\nseed = 3\n", encoding="ascii")
    assert main(["theory-sim", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    assert hashlib.sha256((tmp_path / "theory.csv").read_bytes()).hexdigest() == (
        "4ce3e810d2ccf74d5165243e537d37e52e47a5f45129cc227e56a469644affd1")
