import math
import tracemalloc
import warnings

import numpy as np
import pytest

from attack_oracle import ascend_with_endpoint_gradient
from nn_oracle import ModelParams, cross_entropy, forward, validate_soft_label
from noise_oracle import direct_noisy_ce_grads
from smoothcert.adversary import AttackConfig, ascend
from smoothcert.data import Dataset, gen_two_moons
from smoothcert.nn import NonFiniteError, first_layer_noise, init_mlp, noisy_ce_grads
from smoothcert.rng import StreamId, _mix_part
from smoothcert.smoothing import sample_noise, soft_smoothed_predict
from smoothcert import training
from smoothcert.training import (
    GaussianConfig,
    SmoothAdvConfig,
    SmoothMixConfig,
    TrainRunConfig,
    _minibatch_randomness,
    _minibatch_step,
    make_mix_pair,
    train,
)


def _constant_net(dim, classes):
    return ModelParams([np.zeros((dim, classes))], [np.zeros(classes)])


def _random_net(seed, sizes):
    rng = np.random.default_rng(seed)
    weights = [rng.standard_normal((a, b)) * 0.6
               for a, b in zip(sizes[:-1], sizes[1:])]
    biases = [rng.standard_normal(b) * 0.1 for b in sizes[1:]]
    return ModelParams(weights, biases)


def _mix_cfg(**kw):
    base = dict(sigma=0.5, eta=2.0, attack=AttackConfig(0.5, 2), m=3)
    base.update(kw)
    return SmoothMixConfig(**base)


def _method_cfg(method, m):
    return {"gaussian": GaussianConfig(sigma=0.5, m=m),
            "smoothadv": SmoothAdvConfig(sigma=0.5, m=m, epsilon=1.0, steps=2),
            "smoothmix": _mix_cfg(m=m)}[method]


# ---------------------------------------------------------------- oracles


def _mean_ce(params, x, target, deltas):
    """(1/m) sum_i CE(f(x + delta_i), target), one cross_entropy per draw."""
    return float(np.mean([cross_entropy(forward(params, x + d), target)
                          for d in deltas]))


def _keyed(streams):
    """(epoch stream, indices) of example streams StreamId(seed, (*epoch, i))
    that share one epoch stream: the arguments of the minibatch steps."""
    (epoch,) = {StreamId(s.master_seed, s.path[:-1]) for s in streams}
    return epoch, np.array([s.path[-1] for s in streams])


def _draws(stream, m, dim, sigma):
    """One example's noise batch and lambda, in the training order, from
    numpy's own Philox keyed by the epoch stream at counter (0, 0, 0, i)."""
    epoch, (i,) = _keyed([stream])
    entropy = [epoch.master_seed] + [_mix_part(p) for p in epoch.path]
    key = np.random.SeedSequence(entropy).generate_state(2, np.uint64)
    gen = np.random.Generator(np.random.Philox(key=key, counter=[0, 0, 0, i]))
    deltas = gen.standard_normal((m, dim)) * sigma
    return deltas, gen.uniform(0.0, 0.5)


def _example(params, x, y, cfg, stream):
    """The batched SmoothMix step at B=1, with its noise batch."""
    grads, nat, mix, diag = _minibatch_step(
        params, np.asarray(x)[None, :], np.array([y]), cfg, *_keyed([stream]), 0)
    deltas, _ = _draws(stream, cfg.m, len(x), cfg.sigma)
    return grads, nat, mix, diag, deltas


# ---------------------------------------------------------------- gaussian loss


def test_gaussian_loss_uniform_net():
    params = _constant_net(2, 4)
    noise = sample_noise(0.5, 2, 5, StreamId(0))
    deltas = noise[None]
    _, (loss,) = noisy_ce_grads(params, deltas, first_layer_noise(params, deltas),
                                [(np.ones((1, 2)), np.eye(4)[[1]], 1.0)])
    assert loss == pytest.approx(math.log(4), abs=1e-12)


def test_gaussian_loss_perfect_classifier():
    params = ModelParams([np.zeros((2, 2))], [np.array([0.0, 300.0])])
    noise = sample_noise(0.5, 2, 5, StreamId(1))
    deltas = noise[None]
    _, (loss,) = noisy_ce_grads(params, deltas, first_layer_noise(params, deltas),
                                [(np.zeros((1, 2)), np.eye(2)[[1]], 1.0)])
    assert loss < 1e-12


def test_gaussian_loss_manual_two_terms():
    params = _random_net(2, [3, 5, 4])
    noises = np.stack([sample_noise(0.8, 3, 2, StreamId(3, (i,)))
                       for i in range(2)])
    X, Y = np.array([[0.1, -0.3, 0.2], [0.5, 0.0, -0.4]]), np.array([2, 0])
    _, (loss,) = noisy_ce_grads(params, noises, first_layer_noise(params, noises),
                                [(X, np.eye(4)[Y], 1.0)])
    want = np.mean([_mean_ce(params, X[b], np.eye(4)[Y[b]], noises[b])
                    for b in range(2)])
    assert loss == pytest.approx(want, abs=1e-12)


def test_smoothadv_step_is_gaussian_step_at_pgd_endpoint():
    params = _random_net(4, [2, 6, 3])
    cfg = SmoothAdvConfig(sigma=0.5, m=3, epsilon=0.6, steps=3, warmup_epochs=2)
    X, Y = np.array([[0.2, -0.1], [0.7, 0.3]]), np.array([1, 2])
    streams = [StreamId(5, ("train", 0, i)) for i in range(2)]
    grads, loss, mix, diag = _minibatch_step(params, X, Y, cfg, *_keyed(streams), epoch=0)
    assert mix == 0.0 and diag is None
    noises = np.stack([_draws(s, 3, 2, 0.5)[0] for s in streams])
    eps = cfg.epsilon_at(0)
    # each example's PGD on its own (B = 1): with some BLAS builds a row's
    # product differs in the last bits with the row count, hence the tolerance
    x_hat = np.stack([
        ascend(params, X[b:b + 1], Y[b:b + 1], first_layer_noise(params, noises[b:b + 1]),
               AttackConfig(2.0 * eps / 3, 3, eps))[0][-1, 0]
        for b in range(2)])
    want_grads, (want,) = noisy_ce_grads(params, noises, first_layer_noise(params, noises),
                                         [(x_hat, np.eye(3)[Y], 1.0)])
    assert loss == pytest.approx(want, abs=1e-12)
    for a, b in zip(grads[0] + grads[1], want_grads[0] + want_grads[1]):
        np.testing.assert_allclose(a, b, rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("method", ["gaussian", "smoothadv", "smoothmix"])
def test_factored_ce_gradient_matches_direct_at_mnist_shape(method, monkeypatch):
    # at d > h1 the CE step adds x W1 to the delta W1 the attack formed and
    # splits gW1 over the points and the draws; the oracle sends every
    # d-wide noisy row of the method's parts through W1
    params = init_mlp([784, 256, 256, 10], StreamId(50))
    rng = np.random.default_rng(51)
    X, Y = rng.uniform(0.0, 1.0, (6, 784)), rng.integers(0, 10, 6)
    stream, idx = StreamId(52, ("train", 0)), np.arange(6)
    calls, step = [], training.noisy_ce_grads

    def recorded(params, deltas, noise, parts):
        calls.append((deltas, parts, step(params, deltas, noise, parts)))
        return calls[-1][-1]

    monkeypatch.setattr(training, "noisy_ce_grads", recorded)
    _minibatch_step(params, X, Y, _method_cfg(method, 4), stream, idx, epoch=3)
    ((deltas, parts, ((gW, gb), losses)),) = calls
    (want_W, want_b), want_losses = direct_noisy_ce_grads(params, deltas, parts)
    for got, want in zip(gW + gb, want_W + want_b):
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
    np.testing.assert_allclose(losses, want_losses, rtol=1e-12)


# ---------------------------------------------------------------- mix pair


def test_mix_pair_lambda_zero_identity():
    x = np.array([1.0, 2.0])
    fhat = np.array([0.3, 0.7])
    x_mix, y_mix = make_mix_pair(x, fhat, np.array([5.0, 5.0]), 0.0, 2)
    np.testing.assert_array_equal(x_mix, x)
    np.testing.assert_array_equal(y_mix, fhat)


def test_mix_pair_half_lambda_arithmetic():
    _, y_mix = make_mix_pair(np.zeros(2), np.array([1.0, 0.0]), np.ones(2), 0.5, 2)
    np.testing.assert_allclose(y_mix, [0.75, 0.25], atol=1e-15)


def test_mix_pair_quarter_point():
    v = np.array([4.0, -8.0])
    x_mix, _ = make_mix_pair(np.zeros(2), np.array([0.5, 0.5]), v, 0.25, 2)
    np.testing.assert_allclose(x_mix, 0.25 * v, atol=1e-15)


def test_mix_pair_lambda_range():
    with pytest.raises(ValueError):
        make_mix_pair(np.zeros(2), np.array([0.5, 0.5]), np.ones(2), 0.6, 2)
    with pytest.raises(ValueError):
        make_mix_pair(np.zeros(2), np.array([0.5, 0.5]), np.ones(2), -0.1, 2)


def test_mix_pair_on_segment_and_valid():
    rng = np.random.default_rng(4)
    for _ in range(30):
        x = rng.standard_normal(3)
        v = rng.standard_normal(3)
        t = rng.uniform(0.1, 1.0, 4)
        fhat = t / t.sum()
        lam = rng.uniform(0.0, 0.5)
        x_mix, y_mix = make_mix_pair(x, fhat, v, lam, 4)
        # x_mix on the segment [x, v]
        np.testing.assert_allclose(x_mix, (1 - lam) * x + lam * v, atol=1e-12)
        validate_soft_label(y_mix)


def test_mix_pair_invariant_enforced():
    # an invalid soft label is rejected, for one pair and for a batch with
    # one bad row; so is a batch with one lambda outside [0, 1/2]
    with pytest.raises(ValueError, match="sums to"):
        make_mix_pair(np.zeros(2), np.array([0.7, 0.7]), np.ones(2), 0.2, 2)
    with pytest.raises(ValueError, match="sums to"):
        make_mix_pair(np.zeros((2, 2)), np.array([[0.5, 0.5], [0.7, 0.7]]),
                      np.ones((2, 2)), np.array([0.2, 0.2]), 2)
    with pytest.raises(ValueError, match="outside"):
        make_mix_pair(np.zeros((2, 2)), np.array([[0.5, 0.5], [-0.1, 1.1]]),
                      np.ones((2, 2)), np.array([0.2, 0.2]), 2)
    with pytest.raises(ValueError, match="lambda"):
        make_mix_pair(np.zeros((2, 2)), np.full((2, 2), 0.5), np.ones((2, 2)),
                      np.array([0.2, 0.7]), 2)


def test_mix_pair_rejects_nan_soft_labels():
    # NaN fails every comparison, so a range check written as "< lo or > hi"
    # lets it through
    with pytest.raises(ValueError, match="outside"):
        make_mix_pair(np.zeros(2), np.full(2, np.nan), np.ones(2), 0.2, 2)
    with pytest.raises(ValueError, match="outside"):
        make_mix_pair(np.zeros((2, 2)), np.array([[0.5, 0.5], [np.nan, 0.5]]),
                      np.ones((2, 2)), np.array([0.2, 0.2]), 2)


def test_mix_pair_batch_is_rowwise():
    rng = np.random.default_rng(5)
    X, V = rng.standard_normal((4, 3)), rng.standard_normal((4, 3))
    t = rng.uniform(0.1, 1.0, (4, 2))
    F = t / t.sum(axis=1, keepdims=True)
    lams = rng.uniform(0.0, 0.5, 4)
    x_mix, y_mix = make_mix_pair(X, F, V, lams, 2)
    for b in range(4):
        xb, yb = make_mix_pair(X[b], F[b], V[b], lams[b], 2)
        np.testing.assert_array_equal(x_mix[b], xb)
        np.testing.assert_array_equal(y_mix[b], yb)


# ---------------------------------------------------------------- mix loss


def test_smoothmix_loss_uniform_net_log_c():
    params = _constant_net(2, 3)
    _, nat, mix, _, _ = _example(params, np.zeros(2), 1, _mix_cfg(m=4),
                                 StreamId(5, ("train", 0, 0)))
    assert nat == pytest.approx(math.log(3), abs=1e-12)
    assert mix == pytest.approx(math.log(3), abs=1e-12)


def test_smoothmix_loss_manual_recomputation():
    params = _random_net(6, [2, 6, 3])
    cfg = _mix_cfg(sigma=0.7, m=2)
    _, _, mix, diag, deltas = _example(params, np.array([0.3, -0.2]), 0, cfg,
                                       StreamId(7, ("train", 0, 2)))
    assert mix == pytest.approx(
        _mean_ce(params, diag["x_mix"][0], diag["y_mix"][0], deltas), abs=1e-12)


def test_smoothmix_loss_lambda_zero_is_soft_target_gaussian_form(monkeypatch):
    # lambda = 0: the mix term is the noisy CE at x against the soft target
    # Fhat(x)
    draw = training._minibatch_randomness
    monkeypatch.setattr(training, "_minibatch_randomness",
                        lambda *a: (draw(*a)[0], np.zeros(len(a[1]))))
    params = _random_net(8, [2, 5, 2])
    x = np.array([0.4, 0.1])
    _, _, mix, diag, deltas = _example(params, x, 1, _mix_cfg(),
                                       StreamId(9, ("train", 0, 0)))
    np.testing.assert_array_equal(diag["x_mix"][0], x)
    fhat = soft_smoothed_predict(params, x[None, :], first_layer_noise(params, deltas[None]))[0]
    np.testing.assert_array_equal(diag["y_mix"][0], fhat)
    assert mix == pytest.approx(_mean_ce(params, x, fhat, deltas), abs=1e-12)


# ---------------------------------------------------------------- full pipeline


def test_batch_loss_additivity_and_recomputable_terms():
    params = _random_net(10, [2, 8, 3])
    cfg = _mix_cfg()
    stream = StreamId(11, ("train", 0, 7))
    x, y = np.array([0.5, -0.4]), 1
    _, nat, mix, diag, deltas = _example(params, x, y, cfg, stream)
    # the gradient is affine in eta: grad L_nat + eta * grad L_mix
    g = [_example(params, x, y, _mix_cfg(eta=e), stream)[0] for e in (1.0, 2.0, 3.0)]
    for part in (0, 1):
        for k in range(len(params.weights)):
            np.testing.assert_allclose(g[2][part][k] - g[1][part][k],
                                       g[1][part][k] - g[0][part][k], atol=1e-12)
    # both terms recomputable from the reported anchor, mix pair and noise
    assert nat == pytest.approx(
        _mean_ce(params, diag["anchor"][0], np.eye(3)[y], deltas), abs=1e-12)
    assert mix == pytest.approx(
        _mean_ce(params, diag["x_mix"][0], diag["y_mix"][0], deltas), abs=1e-12)
    lam = _draws(stream, cfg.m, 2, cfg.sigma)[1]
    assert diag["lambda"][0] == lam
    np.testing.assert_allclose(
        diag["x_mix"][0], (1 - lam) * diag["anchor"][0] + lam * diag["x_adv"][0],
        atol=1e-12)
    assert diag["j_path"].shape == (cfg.attack.steps, 1)
    validate_soft_label(diag["y_mix"][0])


def test_batch_loss_eta_limit_is_gaussian():
    # as eta -> 0 the SmoothMix step becomes the Gaussian step on the same noise
    params = _random_net(12, [2, 6, 2])
    stream = StreamId(13, ("train", 0, 0))
    X, Y = np.array([[0.2, 0.8]]), np.array([0])
    g_mix, nat, _, _ = _minibatch_step(params, X, Y, _mix_cfg(eta=1e-12),
                                       *_keyed([stream]), 0)
    g_gauss, loss, mix, diag = _minibatch_step(params, X, Y, GaussianConfig(sigma=0.5, m=3),
                                               *_keyed([stream]), 0)
    assert nat == loss
    assert mix == 0.0 and diag is None
    for a, b in zip(g_mix[0] + g_mix[1], g_gauss[0] + g_gauss[1]):
        np.testing.assert_allclose(a, b, rtol=1e-9, atol=1e-12)


def test_batch_loss_component_sum_oracle_t0():
    # T=0: x_adv = x, so for any lambda the mix point is x itself
    params = _random_net(14, [2, 7, 3])
    cfg = _mix_cfg(attack=AttackConfig(0.5, 0), eta=3.0)
    x, y = np.array([-0.3, 0.6]), 2
    _, nat, mix, diag, deltas = _example(params, x, y, cfg,
                                         StreamId(15, ("train", 2, 4)))
    np.testing.assert_array_equal(diag["x_mix"][0], x)
    np.testing.assert_array_equal(diag["x_adv"][0], x)
    assert nat == pytest.approx(_mean_ce(params, x, np.eye(3)[y], deltas),
                                abs=1e-12)
    assert mix == pytest.approx(_mean_ce(params, x, diag["y_mix"][0], deltas),
                                abs=1e-12)


def test_batch_loss_deterministic():
    params = _random_net(16, [2, 6, 2])
    cfg = _mix_cfg()
    stream = StreamId(17, ("train", 1, 3))
    a = _example(params, np.array([0.1, 0.2]), 0, cfg, stream)
    b = _example(params, np.array([0.1, 0.2]), 0, cfg, stream)
    assert a[1:3] == b[1:3]
    for key in ("lambda", "x_mix", "y_mix", "j_path"):
        np.testing.assert_array_equal(a[3][key], b[3][key])


def test_one_step_substitution_changes_anchor():
    params = _random_net(18, [2, 8, 2])
    stream = StreamId(19, ("train", 0, 1))
    x, y = np.array([0.4, -0.1]), 1
    d_plain = _example(params, x, y, _mix_cfg(), stream)[3]
    d_one = _example(params, x, y, _mix_cfg(use_one_step=True), stream)[3]
    np.testing.assert_array_equal(d_plain["anchor"][0], x)
    # one-step anchor is the first ascent iterate, one full step from x
    noise = first_layer_noise(params, _draws(stream, 3, 2, 0.5)[0][None])
    points = ascend(params, x[None], [y], noise, AttackConfig(0.5, 2))[0][:, 0]
    np.testing.assert_array_equal(d_one["anchor"][0], points[1])
    np.testing.assert_array_equal(d_one["x_adv"][0], points[-1])
    assert np.linalg.norm(d_one["anchor"][0] - x) == pytest.approx(0.5, abs=1e-9)
    # with a cap the anchor stays inside the cap ball
    d_cap = _example(params, x, y,
                     _mix_cfg(use_one_step=True, one_step_cap=0.2), stream)[3]
    assert np.linalg.norm(d_cap["anchor"][0] - x) <= 0.2 + 1e-9


@pytest.mark.parametrize("one_step, cap", [(False, None), (True, None),
                                           (True, 0.2), (True, 5.0)])
def test_y_mix_uses_fresh_anchor_fhat(one_step, cap):
    # y_mix reuses Fhat from the attack path unless the cap moved the anchor;
    # either way it must equal (1-lam) Fhat(anchor) + lam/C with Fhat
    # recomputed from scratch at the reported anchor
    params = _random_net(30, [2, 8, 3])
    cfg = _mix_cfg(use_one_step=one_step, one_step_cap=cap)
    X = np.array([[0.3, -0.2], [0.8, 0.4], [-0.5, 0.1]])
    Y = np.array([0, 2, 1])
    streams = [StreamId(31, ("train", 0, i)) for i in range(3)]
    *_, diag = _minibatch_step(params, X, Y, cfg, *_keyed(streams), 0)
    noises = np.stack([_draws(s, cfg.m, 2, cfg.sigma)[0] for s in streams])
    fhat = soft_smoothed_predict(params, diag["anchor"], first_layer_noise(params, noises))
    lam = diag["lambda"][:, None]
    np.testing.assert_array_equal(diag["y_mix"], (1 - lam) * fhat + lam / 3)
    if cap == 0.2:  # the cap moved every anchor (the first step has length 0.5)
        np.testing.assert_allclose(np.linalg.norm(diag["anchor"] - X, axis=1), 0.2)


@pytest.mark.parametrize("sizes", [[2, 8, 3], [6, 4, 3]], ids=["d<=h1", "d>h1"])
def test_one_step_y_mix_at_one_attack_step_keeps_the_endpoint_gradient_bits(sizes):
    # at attack_steps = 1 the one-step anchor is the attack's endpoint, where
    # the loop takes no gradient: one forward gives its Fhat, with the bits
    # of the gradient pass the loop used to run there
    params = _random_net(34, sizes)
    cfg = _mix_cfg(use_one_step=True, attack=AttackConfig(0.5, 1))
    rng = np.random.default_rng(35)
    X, Y = rng.standard_normal((5, sizes[0])), np.array([0, 2, 1, 1, 0])
    streams = [StreamId(36, ("train", 0, i)) for i in range(5)]
    *_, diag = _minibatch_step(params, X, Y, cfg, *_keyed(streams), 0)
    noises = np.stack([_draws(s, cfg.m, sizes[0], cfg.sigma)[0] for s in streams])
    points, fhat_path, _ = ascend_with_endpoint_gradient(
        params, X, Y, first_layer_noise(params, noises), cfg.attack)
    np.testing.assert_array_equal(diag["anchor"], points[1])
    _, y_mix = make_mix_pair(points[1], fhat_path[1], points[1], diag["lambda"], 3)
    np.testing.assert_array_equal(diag["y_mix"], y_mix)


def test_no_gradient_leakage_through_fhat_target():
    # the parameter gradient must equal the frozen-target gradient: FD on the
    # loss with the step's anchor, mix pair and noise frozen matches the
    # analytic grads even though y_mix would itself change with the parameters
    params = _random_net(20, [2, 4, 2])
    x, y, eta = np.array([0.3, 0.2]), 0, 2.0
    cfg = _mix_cfg(eta=eta, m=2, attack=AttackConfig(0.3, 2))
    grads, _, _, diag, deltas = _example(params, x, y, cfg,
                                         StreamId(21, ("train", 0, 0)))
    anchor, x_mix, y_mix = diag["anchor"][0], diag["x_mix"][0], diag["y_mix"][0]

    def frozen_loss(p, target=y_mix):
        return (_mean_ce(p, anchor, np.eye(2)[y], deltas)
                + eta * _mean_ce(p, x_mix, target, deltas))

    eps = 1e-5
    gW, gb = grads
    for k in range(len(params.weights)):
        for idx in np.ndindex(params.weights[k].shape):
            p = params.copy(); p.weights[k][idx] += eps; up = frozen_loss(p)
            p = params.copy(); p.weights[k][idx] -= eps; dn = frozen_loss(p)
            fd = (up - dn) / (2 * eps)
            assert abs(fd - gW[k][idx]) < 1e-5 * max(1.0, abs(fd))
    # a perturbed target changes the loss value (the target is not inert)
    assert frozen_loss(params, y_mix[::-1]) != pytest.approx(
        frozen_loss(params), abs=1e-9)


def test_lambda_uniform_ks():
    stats = pytest.importorskip("scipy.stats")
    lams = _minibatch_randomness(StreamId(23, ("train", 0)), np.arange(10_000),
                                 1, 2, 1.0, True)[1]
    assert np.all((lams >= 0) & (lams <= 0.5))
    res = stats.kstest(lams, "uniform", args=(0.0, 0.5))
    assert res.pvalue > 0.01


# ---------------------------------------------------------------- batched path


def test_minibatch_matches_per_example_pipeline():
    params = _random_net(24, [2, 10, 3])
    cfg = _mix_cfg(eta=1.5, attack=AttackConfig(0.4, 3), m=2)
    X = np.array([[0.3, -0.2], [0.8, 0.4], [-0.5, 0.1]])
    Y = np.array([0, 2, 1])
    streams = [StreamId(25, ("train", 0, i)) for i in range(3)]
    grads_b, nat_b, mix_b, diag_b = _minibatch_step(params, X, Y, cfg,
                                                    *_keyed(streams), 0)

    singles = [_example(params, X[i], int(Y[i]), cfg, streams[i]) for i in range(3)]
    assert nat_b == pytest.approx(np.mean([s[1] for s in singles]), rel=1e-10)
    assert mix_b == pytest.approx(np.mean([s[2] for s in singles]), rel=1e-10)
    for part in (0, 1):
        for k in range(len(params.weights)):
            want = sum(s[0][part][k] for s in singles) / 3
            np.testing.assert_allclose(grads_b[part][k], want, rtol=1e-8, atol=1e-12)
    for key in ("anchor", "x_adv", "x_mix", "y_mix"):
        np.testing.assert_allclose(diag_b[key],
                                   np.concatenate([s[3][key] for s in singles]),
                                   atol=1e-12)


# ---------------------------------------------------------------- schedules


def test_lr_schedule_milestones():
    cfg = TrainRunConfig(method="gaussian", epochs=6, batch_size=10, lr=0.1,
                         lr_milestones=(2, 4), lr_gamma=0.1)
    assert cfg.lr_at(0) == pytest.approx(0.1)
    assert cfg.lr_at(1) == pytest.approx(0.1)
    assert cfg.lr_at(2) == pytest.approx(0.01)
    assert cfg.lr_at(3) == pytest.approx(0.01)
    assert cfg.lr_at(4) == pytest.approx(0.001)
    for bad in ((4, 2), (0, 2), (-5, 1)):
        with pytest.raises(ValueError, match="lr_milestones"):
            TrainRunConfig(method="gaussian", epochs=1, batch_size=1, lr=0.1,
                           lr_milestones=bad)


def test_smoothadv_warmup_linear_ramp():
    cfg = SmoothAdvConfig(sigma=0.5, m=2, epsilon=1.0, steps=2,
                          warmup_epochs=10)
    for e in range(10):
        assert cfg.epsilon_at(e) == pytest.approx(1.0 * (e + 1) / 10)
    assert cfg.epsilon_at(9) == 1.0
    assert cfg.epsilon_at(50) == 1.0


@pytest.mark.parametrize("settings", [
    dict(lr=math.nan), dict(lr=-0.1), dict(weight_decay=math.nan),
    dict(weight_decay=-1e-4), dict(lr_gamma=math.nan), dict(lr_gamma=-1.0),
    dict(momentum=math.nan),
], ids=["lr-nan", "lr-negative", "weight-decay-nan", "weight-decay-negative",
        "lr-gamma-nan", "lr-gamma-negative", "momentum-nan"])
def test_run_config_rejects_negative_or_nan_optimizer_settings(settings):
    # a NaN learning rate trains into a checkpoint load_checkpoint refuses,
    # and a negative lr_gamma turns every step after a milestone into ascent
    base = dict(method="gaussian", epochs=1, batch_size=1, lr=0.1, lr_milestones=(1,))
    with pytest.raises(ValueError, match="lr_gamma >= 0"):
        TrainRunConfig(**{**base, **settings})


@pytest.mark.parametrize("settings", [dict(lr=math.nan), dict(weight_decay=math.nan)],
                         ids=["lr-nan", "weight-decay-nan"])
def test_optimizer_state_rejects_nan(settings, monkeypatch):
    # the optimizer keeps no settings of its own: train hands the run config's
    # lr and weight_decay to sgd_nesterov_step, so a NaN there is refused
    # before any step is taken
    steps = []
    monkeypatch.setattr(training, "sgd_nesterov_step", lambda *args: steps.append(args))
    with pytest.raises(ValueError, match="need lr >= 0"):
        train(gen_two_moons(10, 0.1, 0),
              TrainRunConfig(**{"method": "gaussian", "epochs": 1, "batch_size": 5,
                                "lr": 0.1, **settings}),
              GaussianConfig(sigma=0.5))
    assert steps == []


def test_config_validation():
    with pytest.raises(ValueError):
        SmoothMixConfig(sigma=0.5, eta=0.0, attack=AttackConfig(1.0, 1), m=1)
    with pytest.raises(ValueError):
        SmoothMixConfig(sigma=0.5, eta=1.0, attack=AttackConfig(1.0, 1), m=0)
    with pytest.raises(ValueError):
        SmoothAdvConfig(sigma=0.5, m=1, epsilon=-1.0, steps=2)
    with pytest.raises(ValueError):
        GaussianConfig(sigma=0.0)


# ---------------------------------------------------------------- train loop


def test_train_method_config_mismatch_fails_before_compute():
    ds = gen_two_moons(10, 0.1, 0)
    run = TrainRunConfig(method="smoothmix", epochs=1, batch_size=5, lr=0.1)
    with pytest.raises(ValueError):
        train(ds, run, GaussianConfig(sigma=0.5))


@pytest.mark.parametrize("method", ["gaussian", "smoothadv", "smoothmix"])
def test_train_stops_at_the_first_non_finite_gradient(method, monkeypatch):
    # the second minibatch's gradient holds a NaN: train names the epoch and
    # the minibatch, and takes no optimizer step with it
    calls, steps = [], []
    real = training.noisy_ce_grads

    def poisoned(*args):
        (gW, gb), losses = real(*args)
        calls.append(args)
        if len(calls) == 2:
            gW[0][0, 0] = np.nan
        return (gW, gb), losses

    monkeypatch.setattr(training, "noisy_ce_grads", poisoned)
    monkeypatch.setattr(training, "sgd_nesterov_step", lambda *args: steps.append(args))
    run = TrainRunConfig(method=method, epochs=2, batch_size=5, lr=0.1)
    with pytest.raises(NonFiniteError, match="^epoch 0, minibatch 1: non-finite gradient$"):
        train(gen_two_moons(20, 0.1, 0), run, _method_cfg(method, 1))
    assert len(steps) == 1


def test_overflowing_gradient_raises_without_a_warning():
    # the logits are finite (+-8e8), but the first layer's cotangent sums to
    # 2e308 over the minibatch: the one report is the typed error, with no
    # numpy RuntimeWarning ahead of it
    params = ModelParams([np.full((2, 4), 1e-300), np.tile([1e308, -1e308], (4, 1))],
                         [np.zeros(4), np.zeros(2)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteError, match="^non-finite gradient$"):
            _minibatch_step(params, np.ones((4, 2)), np.ones(4, dtype=int),
                            GaussianConfig(sigma=1e-3, m=2), StreamId(0), np.arange(4), 0)


def test_train_zero_lr_no_weight_decay_is_noop():
    ds = gen_two_moons(20, 0.1, 1)
    run = TrainRunConfig(method="gaussian", epochs=1, batch_size=10, lr=0.0,
                         weight_decay=0.0, seed=3)
    params, _ = train(ds, run, GaussianConfig(sigma=0.5, m=1))
    init = init_mlp([2, 64, 64, 2], StreamId(3).child("init"))
    for a, b in zip(params.weights, init.weights):
        np.testing.assert_array_equal(a, b)


def test_train_deterministic_across_runs():
    ds = gen_two_moons(30, 0.1, 2)
    run = TrainRunConfig(method="smoothmix", epochs=2, batch_size=10, lr=0.05,
                         seed=7)
    mcfg = _mix_cfg(m=2, attack=AttackConfig(0.5, 1))
    p1, log1 = train(ds, run, mcfg)
    p2, log2 = train(ds, run, mcfg)
    for a, b in zip(p1.weights, p2.weights):
        np.testing.assert_array_equal(a, b)
    assert [r["loss_nat"] for r in log1] == [r["loss_nat"] for r in log2]


def test_train_log_lr_column_follows_schedule():
    ds = gen_two_moons(20, 0.1, 3)
    run = TrainRunConfig(method="gaussian", epochs=3, batch_size=10, lr=0.1,
                         lr_milestones=(2,), lr_gamma=0.1, seed=1)
    _, log = train(ds, run, GaussianConfig(sigma=0.5))
    assert [r["lr"] for r in log] == pytest.approx([0.1, 0.1, 0.01])
    assert [r["epoch"] for r in log] == [0, 1, 2]


def test_train_gaussian_separable_blobs_high_accuracy():
    # two Gaussian blobs of 50 points each, centred at (4, 0) and (-4, 0)
    labels = np.arange(100) % 2
    centers = np.array([[4.0, 0.0], [-4.0, 0.0]])
    X = centers[labels] + 0.3 * np.random.default_rng(5).standard_normal((100, 2))
    ds = Dataset(inputs=X, labels=labels, class_count=2, split="train")
    run = TrainRunConfig(method="gaussian", epochs=50, batch_size=20, lr=0.1,
                         seed=11)
    params, _ = train(ds, run, GaussianConfig(sigma=0.25, m=1))
    preds = np.argmax(forward(params, ds.inputs), axis=1)
    assert (preds == ds.labels).mean() >= 0.99


def test_minibatch_randomness_matches_each_stream_generator():
    # every example gets the draws of numpy's own Philox keyed by the epoch
    # stream at counter (0, 0, 0, i): noise first, then lambda
    parent = StreamId(41, ("train", 3))
    idx = np.array([7, 0, 1999, 42])
    noises, lams = _minibatch_randomness(parent, idx, 3, 5, 0.25, True)
    for b, i in enumerate(idx):
        deltas, lam = _draws(parent.child(int(i)), 3, 5, 0.25)
        np.testing.assert_array_equal(noises[b], deltas)
        assert lams[b] == lam


def test_minibatch_randomness_ignores_the_minibatch():
    # an example's draws depend on its index alone: not on the minibatch it
    # sits in or its place there; they differ across indices, epochs and seeds
    parent = StreamId(43, ("train", 0))
    whole = _minibatch_randomness(parent, np.arange(12), 2, 3, 0.5, True)
    order = np.random.default_rng(0).permutation(12)
    for batch in (order[:5], order[5:], order[::-1]):
        noises, lams = _minibatch_randomness(parent, batch, 2, 3, 0.5, True)
        np.testing.assert_array_equal(noises, whole[0][batch])
        np.testing.assert_array_equal(lams, whole[1][batch])
    draws = [whole] + [_minibatch_randomness(s, np.arange(12), 2, 3, 0.5, True)
                       for s in (StreamId(43, ("train", 1)), StreamId(44, ("train", 0)))]
    assert len({n.tobytes() for d in draws for n in d[0]}) == 36
    assert len({float(lam) for d in draws for lam in d[1]}) == 36


def test_smoothmix_train_peak_at_mnist_shape():
    # 784-256-256-10, B=100, m=4, T=4: one minibatch's working set, 21.9 MiB
    # of tracemalloc peak. Building the d-wide noisy rows of both loss terms
    # again (4.8 MiB; the peak was 26.0 MiB with them), or holding the
    # previous step's attack path (3 MiB of points) into the next step,
    # takes the peak past the bound.
    rng = np.random.default_rng(0)
    ds = Dataset(inputs=rng.uniform(0.0, 1.0, (200, 784)),
                 labels=np.arange(200) % 10, class_count=10, split="train")
    run = TrainRunConfig(method="smoothmix", epochs=1, batch_size=100, lr=0.05, seed=1)
    cfg = SmoothMixConfig(sigma=0.5, eta=5.0, m=4,
                          attack=AttackConfig(alpha_step=1.0, steps=4))
    tracemalloc.start()
    try:
        train(ds, run, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2**20
