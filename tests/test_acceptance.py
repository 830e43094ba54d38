"""Acceptance gate: one test per criterion, each printing one PASS/FAIL line.

Run `pytest tests/test_acceptance.py -v -s` to watch the lines live; the
whole file takes roughly ten minutes, dominated by the dimension-decay
simulation. Training recipes here were calibrated once and frozen; every
asserted tolerance is stated next to its assertion.

The MNIST half of the training-comparison criterion needs the four IDX files
under data/mnist/ (or $SMOOTHCERT_MNIST_DIR). This sandbox has no network
access and no local copy, so that leg reports an environment-limitation skip
unless the files are provided; the synthetic-data leg always runs.
"""

import contextlib
import io
import math
import os
import time

import numpy as np
import pytest

from data_oracle import from_provenance
from idx_files import write_idx_pair
from nn_oracle import (
    cross_entropy,
    forward,
    grad_input,
    grad_params,
    init_mlp,
    validate_soft_label,
)
from smoothcert.adversary import AttackConfig, ascend, equal_confidence_mixing_ratio
from smoothcert.cli import main
from smoothcert.data import gen_two_moons, load_mnist_idx
from smoothcert.evaluation import CertifiedResultSet, acr, certified_accuracy_curve
from smoothcert.nn import ModelParams, first_layer_noise, softmax
from smoothcert.rng import StreamId
from smoothcert.smoothing import (
    SmoothingConfig,
    certify,
    clopper_pearson_lower,
    hard_class_counts,
    sample_noise,
)
from smoothcert.theory import TheorySimConfig, lemma_constant_C, verify_decay
from smoothcert.training import (
    GaussianConfig,
    SmoothMixConfig,
    TrainRunConfig,
    _minibatch_randomness,
    make_mix_pair,
    train,
)

SEEDS = (0, 1, 2)
SIGMA = 0.5
CERT = SmoothingConfig(sigma=SIGMA, n0=100, n=1000, alpha_cert=0.001)


def _report(num, ok, detail):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}", flush=True)
    assert ok, f"criterion {num}: {detail}"


def _train_moons(seed, method, eta=5.0, alpha=0.5, steps=4, epochs=20, lr=0.1):
    ds = gen_two_moons(2000, 0.1, seed, split="train")
    run = TrainRunConfig(method=method, epochs=epochs, batch_size=50, lr=lr,
                         seed=seed)
    if method == "gaussian":
        mcfg = GaussianConfig(sigma=SIGMA, m=4)
    else:
        mcfg = SmoothMixConfig(sigma=SIGMA, eta=eta,
                               attack=AttackConfig(alpha, steps), m=4)
    params, _ = train(ds, run, mcfg)
    return params


def _certify_set(params, seed, n_test=500):
    ds = gen_two_moons(n_test, 0.1, seed + 1000, split="test")
    root = StreamId(seed)
    outcomes = tuple(certify(params, ds.inputs[i], CERT,
                             root.child("certify", i)) for i in range(n_test))
    return CertifiedResultSet(tuple(int(v) for v in ds.labels), outcomes,
                              SIGMA), ds


@pytest.fixture(scope="module")
def paired_models():
    """Gaussian/SmoothMix pairs for each seed, shared by criteria 4 and 7."""
    out = {}
    for seed in SEEDS:
        out[seed] = (_train_moons(seed, "gaussian"),
                     _train_moons(seed, "smoothmix"))
    return out


# -------------------------------------------------------------- criterion 1


def test_criterion_1_gradients_match_finite_differences():
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    eps, worst = 1e-5, 0.0

    def check(analytic, numeric):
        nonlocal worst
        a, f = float(analytic), float(numeric)
        if abs(f) >= 1e-6:
            worst = max(worst, abs(a - f) / abs(f))
            assert abs(a - f) / abs(f) < 1e-4
        else:
            assert abs(a - f) < 1e-6

    for trial in range(100):
        sizes = [int(rng.integers(2, 5)), int(rng.integers(3, 7)),
                 int(rng.integers(2, 5))]
        params = init_mlp(sizes, StreamId(7, ("accept", trial)))
        x = rng.standard_normal(sizes[0])
        t = rng.uniform(0.05, 1.0, sizes[-1])
        t /= t.sum()
        gW, gb = grad_params(params, [(x, t)])
        for k in range(len(params.weights)):
            for idx in np.ndindex(params.weights[k].shape):
                p = params.copy()
                p.weights[k][idx] += eps
                up = cross_entropy(forward(p, x), t)
                p.weights[k][idx] -= 2 * eps
                check(gW[k][idx],
                      (up - cross_entropy(forward(p, x), t)) / (2 * eps))
            for j in range(len(params.biases[k])):
                p = params.copy()
                p.biases[k][j] += eps
                up = cross_entropy(forward(p, x), t)
                p.biases[k][j] -= 2 * eps
                check(gb[k][j],
                      (up - cross_entropy(forward(p, x), t)) / (2 * eps))
        gx = grad_input(params, x, t)
        for j in range(len(x)):
            xp, xm = x.copy(), x.copy()
            xp[j] += eps
            xm[j] -= eps
            check(gx[j], (cross_entropy(forward(params, xp), t)
                          - cross_entropy(forward(params, xm), t)) / (2 * eps))
    dt = time.perf_counter() - t0
    _report(1, dt < 60,
            f"100 nets: param+input grads vs central FD, worst significant "
            f"rel err {worst:.2e} < 1e-4 ({dt:.1f}s < 60s)")


# -------------------------------------------------------------- criterion 2


def test_criterion_2_clopper_pearson_oracle():
    stats = pytest.importorskip("scipy.stats")
    brentq = pytest.importorskip("scipy.optimize").brentq
    t0 = time.perf_counter()
    alpha = 0.001
    worst = 0.0
    for n in (10, 100, 1000):
        # closed-form endpoints, tolerance 1e-12
        assert clopper_pearson_lower(0, n, alpha) == 0.0
        assert abs(clopper_pearson_lower(n, n, alpha)
                   - alpha ** (1.0 / n)) < 1e-12
        rng = np.random.default_rng(n)
        inner = np.arange(1, n)
        ks = inner if len(inner) <= 50 else np.sort(
            rng.choice(inner, size=50, replace=False))
        for k in ks:
            k = int(k)
            # independent oracle: root of the exact binomial upper tail
            want = brentq(lambda p: stats.binom.sf(k - 1, n, p) - alpha,
                          1e-15, 1 - 1e-15, xtol=1e-13)
            got = clopper_pearson_lower(k, n, alpha)
            worst = max(worst, abs(got - want))
            assert abs(got - want) < 1e-9
    dt = time.perf_counter() - t0
    _report(2, dt < 60,
            f"exact-binomial-tail oracle over n in (10,100,1000), 50 k-points "
            f"each: worst |diff| {worst:.2e} < 1e-9, endpoints exact to 1e-12 "
            f"({dt:.1f}s < 60s)")


# -------------------------------------------------------------- criterion 3


def test_criterion_3_linear_certification_soundness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(33)
    scfg = SmoothingConfig(sigma=SIGMA, n0=100, n=10_000, alpha_cert=0.001)
    root = StreamId(3003)
    violations = 0
    for i in range(200):
        d = int(rng.integers(2, 5))
        w = rng.standard_normal(d)
        w /= np.linalg.norm(w)
        margin = float(rng.uniform(0.05, 1.2))
        # place x at exactly `margin` distance from the hyperplane w.x = 0,
        # plus an arbitrary tangential offset
        tang = rng.standard_normal(d)
        tang -= (tang @ w) * w
        side = 1.0 if rng.random() < 0.5 else -1.0
        x = side * margin * w + tang
        params = ModelParams([np.column_stack([np.zeros(d), w])],
                             [np.zeros(2)])
        outcome = certify(params, x, scfg, root.child(i))
        if outcome.certified and outcome.radius > margin + 1e-12:
            violations += 1
    dt = time.perf_counter() - t0
    _report(3, violations <= 1 and dt < 300,
            f"200 linear nets, n=10000: {200 - violations}/200 certified radii "
            f"<= analytic margin (allowed >=199) ({dt:.0f}s < 300s)")


# -------------------------------------------------------------- criterion 4


def test_criterion_4_smoothmix_beats_gaussian_two_moons(paired_models):
    t0 = time.perf_counter()
    gains = []
    per_seed = []
    for seed in SEEDS:
        params_g, params_m = paired_models[seed]
        acr_g = acr(_certify_set(params_g, seed)[0])
        acr_m = acr(_certify_set(params_m, seed)[0])
        per_seed.append(acr_m > acr_g)
        gains.append((acr_m - acr_g) / acr_g)
    mean_gain = float(np.mean(gains))
    dt = time.perf_counter() - t0
    _report(4, all(per_seed) and mean_gain >= 0.05 and dt < 1800,
            f"two-moons ACR(SmoothMix) > ACR(Gaussian) on {sum(per_seed)}/3 "
            f"paired seeds, mean relative gain {100 * mean_gain:.1f}% >= 5% "
            f"({dt:.0f}s < 1800s)")


def _mnist_dir():
    cand = os.environ.get("SMOOTHCERT_MNIST_DIR", os.path.join("data", "mnist"))
    names = ["train-images-idx3-ubyte", "train-labels-idx1-ubyte",
             "t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte"]
    paths = [os.path.join(cand, n) for n in names]
    return paths if all(os.path.exists(p) for p in paths) else None


def test_criterion_4_smoothmix_beats_gaussian_mnist():
    paths = _mnist_dir()
    if paths is None:
        print("[criterion 4/mnist] SKIP: MNIST IDX files not found under "
              "data/mnist/ or $SMOOTHCERT_MNIST_DIR; this environment has no "
              "network access to fetch them. The loader and 784-d training "
              "path are exercised by unit tests on synthetic IDX fixtures.",
              flush=True)
        pytest.skip("MNIST IDX files unavailable in this environment")
    t0 = time.perf_counter()
    tr_i, tr_l, te_i, te_l = paths
    gains, per_seed = [], []
    for seed in SEEDS:
        ds = load_mnist_idx(tr_i, tr_l, subsample=2000, seed=seed)
        ds_test = load_mnist_idx(te_i, te_l, subsample=500, seed=seed,
                                 split="test")
        acrs = {}
        for method in ("gaussian", "smoothmix"):
            run = TrainRunConfig(method=method, epochs=10, batch_size=100,
                                 lr=0.05, seed=seed)
            mcfg = (GaussianConfig(sigma=SIGMA, m=4) if method == "gaussian"
                    else SmoothMixConfig(sigma=SIGMA, eta=5.0,
                                         attack=AttackConfig(1.0, 4), m=4))
            params, _ = train(ds, run, mcfg)
            root = StreamId(seed)
            outcomes = tuple(certify(params, ds_test.rows(i), CERT,
                                     root.child("certify", i))
                             for i in range(len(ds_test)))
            acrs[method] = acr(CertifiedResultSet(
                tuple(int(v) for v in ds_test.labels), outcomes, SIGMA))
        per_seed.append(acrs["smoothmix"] > acrs["gaussian"])
        gains.append((acrs["smoothmix"] - acrs["gaussian"]) / acrs["gaussian"])
    mean_gain = float(np.mean(gains))
    dt = time.perf_counter() - t0
    _report("4/mnist", all(per_seed) and mean_gain >= 0.05 and dt < 1800,
            f"MNIST-2000 ACR ordering on {sum(per_seed)}/3 paired seeds, mean "
            f"relative gain {100 * mean_gain:.1f}% >= 5% ({dt:.0f}s < 1800s)")


# -------------------------------------------------------------- criterion 5


def test_criterion_5_eta_monotone_frontier():
    t0 = time.perf_counter()
    radii = (0.0, 0.25, 0.5, 0.75, 1.0)
    clean, robust = [], []
    for eta in (1.0, 4.0, 16.0):
        curves = []
        for seed in SEEDS:
            params = _train_moons(seed, "smoothmix", eta=eta)
            rs, _ = _certify_set(params, seed)
            curves.append(certified_accuracy_curve(rs, radii))
        mean = np.mean(curves, axis=0)
        clean.append(float(mean[0]))
        robust.append(float(mean[-1]))
    ok = (robust[0] <= robust[1] <= robust[2]
          and clean[0] >= clean[1] >= clean[2])
    dt = time.perf_counter() - t0
    _report(5, ok and dt < 1800,
            f"eta in (1,4,16): cert-acc at r=1.0 {[f'{v:.3f}' for v in robust]}"
            f" nondecreasing, clean cert-acc {[f'{v:.3f}' for v in clean]} "
            f"nonincreasing ({dt:.0f}s < 1800s)")


# -------------------------------------------------------------- criterion 6


def test_criterion_6_alpha_t_tradeoff_flat():
    t0 = time.perf_counter()
    means = []
    for alpha, steps in ((2.0, 4), (4.0, 2), (8.0, 1)):
        acrs = []
        for seed in SEEDS:
            params = _train_moons(seed, "smoothmix", alpha=alpha, steps=steps,
                                  epochs=40, lr=0.05)
            acrs.append(acr(_certify_set(params, seed)[0]))
        means.append(float(np.mean(acrs)))
    spread = (max(means) - min(means)) / float(np.mean(means))
    dt = time.perf_counter() - t0
    _report(6, spread <= 0.10 and dt < 1800,
            f"alpha*T=8 mean ACRs {[f'{v:.4f}' for v in means]}: relative "
            f"spread {100 * spread:.1f}% <= 10% ({dt:.0f}s < 1800s)")


# -------------------------------------------------------------- criterion 7


def test_criterion_7_miscalibration_diagnostics(paired_models):
    t0 = time.perf_counter()
    params_g, params_m = paired_models[0]
    ds = gen_two_moons(200, 0.1, 1000, split="test")

    # median equal-confidence mixing ratio; a point that never flips on the
    # grid carries the maximal ratio 1.0
    medians = {}
    for name, params in (("gaussian", params_g), ("smoothmix", params_m)):
        root = StreamId(707)
        lams = [equal_confidence_mixing_ratio(
            params, ds.inputs[i], int(ds.labels[i]), SIGMA, 20, 2.0, 500,
            root.child("mix", i)) for i in range(200)]
        medians[name] = float(np.median([1.0 if v is None else v
                                         for v in lams]))
    leg_a = medians["smoothmix"] > medians["gaussian"]

    # mean max off-class confidence of the gaussian model at PGD points must
    # rise strictly with the attack budget, beyond 3x the Monte Carlo error
    P, m = 100, 500
    stats = []
    for eps in (0.25, 0.5, 1.0, 2.0):
        root = StreamId(708)
        freqs = []
        for i in range(P):
            noise = sample_noise(SIGMA, 2, 200, root.child("pgdnoise", i))
            x_adv = ascend(params_g, ds.inputs[i][None], [int(ds.labels[i])],
                           first_layer_noise(params_g, noise[None]),
                           AttackConfig(2 * eps / 20, 20, eps))[0][0][0]
            counts = hard_class_counts(params_g, x_adv, m, SIGMA,
                                       root.child("conf", i))
            f = counts / m
            freqs.append(float(np.delete(f, int(ds.labels[i])).max()))
        mean = float(np.mean(freqs))
        se = float(np.sqrt(sum(f * (1 - f) / m for f in freqs)) / P)
        stats.append((mean, se))
    leg_b = all(b[0] > a[0] + 3 * math.hypot(a[1], b[1])
                for a, b in zip(stats, stats[1:]))
    dt = time.perf_counter() - t0
    _report(7, leg_a and leg_b and dt < 1800,
            f"median mixratio smoothmix {medians['smoothmix']:.3f} > gaussian "
            f"{medians['gaussian']:.3f}; off-class confidence "
            f"{[f'{v:.3f}' for v, _ in stats]} strictly increasing at 3 sigma "
            f"({dt:.0f}s < 1800s)")


# -------------------------------------------------------------- criterion 8


def test_criterion_8_dimension_decay_bound():
    t0 = time.perf_counter()
    dims = (64, 256, 1024, 4096)
    details = []
    ok = True
    for family in ("gaussian", "uniform_pm"):
        cfg = TheorySimConfig(d=dims[0], sigma=1.0, tau=1.5, epsilon=0.5,
                              p=0.8, noise_family=family, trials=1_000_000)
        report = verify_decay(cfg, dims, StreamId(808).child(family))
        c = lemma_constant_C(cfg)
        scaled_max = max(r.estimate * r.d for r in report.rows)
        ok = ok and report.passed and scaled_max <= c
        details.append(f"{family}: C={c:.4g}, all estimates <= C/d + 3SE: "
                       f"{report.passed}, max estimate*d {scaled_max:.3g} <= C")
    dt = time.perf_counter() - t0
    _report(8, ok and dt < 600,
            "; ".join(details) + f" ({dt:.0f}s < 600s)")


# -------------------------------------------------------------- criterion 9


def test_criterion_9_invariant_suite(tmp_path):
    t0 = time.perf_counter()
    rng = np.random.default_rng(99)

    # softmax / soft-label validity, including extreme logits
    for scale in (1.0, 50.0, 700.0):
        probs = softmax(rng.standard_normal((50, 4)) * scale)
        assert np.all(probs >= 0)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
        for row in probs:
            validate_soft_label(row)
    with pytest.raises(ValueError):
        validate_soft_label(np.array([0.7, 0.7]))

    # mixup identity at lambda = 0
    x, fhat = rng.standard_normal(3), np.array([0.2, 0.5, 0.3])
    x_mix, y_mix = make_mix_pair(x, fhat, rng.standard_normal(3), 0.0, 3)
    np.testing.assert_array_equal(x_mix, x)
    np.testing.assert_array_equal(y_mix, fhat)

    # lambda ~ U([0, 1/2]) by Kolmogorov-Smirnov at 1%
    stats = pytest.importorskip("scipy.stats")
    lams = _minibatch_randomness(StreamId(9, ("ks",)), np.arange(10_000), 1, 2, 1.0,
                                 True)[1]
    ks = stats.kstest(lams, "uniform", args=(0.0, 0.5))
    assert ks.pvalue > 0.01

    # attack step norms are exactly alpha (or zero), trajectory-wide
    params = init_mlp([2, 6, 2], StreamId(91))
    noise = sample_noise(SIGMA, 2, 3, StreamId(92))
    points = ascend(params, np.array([[0.3, -0.2]]), [0], first_layer_noise(params, noise[None]),
                    AttackConfig(0.37, 5), keep=range(6))[0]
    for a, b in zip(points, points[1:]):
        step = float(np.linalg.norm(b - a))
        assert step == 0.0 or abs(step - 0.37) < 1e-9

    # smoothadv iterates stay inside the epsilon ball
    x0 = np.array([0.3, -0.2])
    for eps in (0.25, 1.0):
        x_adv = ascend(params, x0[None], [0], first_layer_noise(params, noise[None]),
                       AttackConfig(0.5, 6, eps))[0][0][0]
        assert np.linalg.norm(x_adv - x0) <= eps + 1e-9

    # certified accuracy curves are nonincreasing
    rs, _ = (lambda p: _certify_set(p, 0, n_test=40))(params)
    curve = certified_accuracy_curve(rs, np.linspace(0, 2, 9))
    assert np.all(np.diff(curve) <= 1e-15)

    # IDX round-trip through provenance
    imgs = rng.integers(0, 256, size=(12, 2, 2), dtype=np.uint8)
    labs = rng.integers(0, 10, size=12, dtype=np.uint8)
    ip, lp = write_idx_pair(tmp_path / "i.idx", tmp_path / "l.idx", imgs, labs)
    ds = load_mnist_idx(ip, lp, subsample=6, seed=1)
    again = from_provenance(ds.provenance)
    np.testing.assert_array_equal(ds.inputs, again.inputs)
    np.testing.assert_array_equal(ds.labels, again.labels)

    # global determinism: identical runs produce byte-identical artifacts
    # (the manifest timings are the declared exception)
    cfg_text = """
method = smoothmix
sigma = 0.5
eta = 2.0
m = 2
attack_steps = 2
alpha_step = 0.5
epochs = 2
batch_size = 10
lr = 0.05
seed = 5
dataset.kind = two_moons
dataset.n = 20
"""
    cfgp = tmp_path / "train.cfg"
    cfgp.write_text(cfg_text)
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["train", "--config", str(cfgp), "--out", str(out)]) == 0
            ccfg = tmp_path / f"cert_{name}.cfg"
            ccfg.write_text(f"""
checkpoint = {out / 'checkpoint.json'}
sigma = 0.5
n0 = 20
n = 50
alpha_cert = 0.01
seed = 6
dataset.kind = two_moons
dataset.n = 8
""")
            assert main(["certify", "--config", str(ccfg), "--out", str(out)]) == 0
        outs.append(out)
    a, b = outs
    for name in ("checkpoint.json", "train_log.csv", "certify.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name

    dt = time.perf_counter() - t0
    _report(9, dt < 300,
            f"soft-label validity, mixup identity, lambda KS (p={ks.pvalue:.3f}),"
            f" step-norm exactness, PGD ball containment, curve monotonicity, "
            f"IDX round-trip, byte-identical reruns ({dt:.0f}s < 300s)")
