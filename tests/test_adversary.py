import math
import warnings

import numpy as np
import pytest

from attack_oracle import ascend_with_endpoint_gradient
from nn_oracle import forward, init_mlp
from noise_oracle import direct_objective_and_grad
from smoothcert import adversary, cli
from smoothcert.adversary import (
    AttackConfig,
    _objective_and_grad,
    ascend,
    l2_project,
    objective,
)
from smoothcert.nn import (ModelParams, NonFiniteError, first_layer_noise, save_checkpoint,
                           softmax)
from smoothcert.rng import StreamId
from smoothcert.smoothing import sample_noise, soft_smoothed_predict


def _linear_two_class(w, b, scale=1.0):
    w = np.asarray(w, dtype=np.float64)
    W = np.column_stack([np.zeros_like(w), scale * w])
    return ModelParams([W], [np.array([0.0, scale * b])])


def _constant_net(dim, classes):
    return ModelParams([np.zeros((dim, classes))], [np.zeros(classes)])


def _random_net(seed, sizes):
    rng = np.random.default_rng(seed)
    weights = [rng.standard_normal((a, b)) * 0.6
               for a, b in zip(sizes[:-1], sizes[1:])]
    biases = [rng.standard_normal(b) * 0.1 for b in sizes[1:]]
    return ModelParams(weights, biases)


def _j(params, x, y, noise):
    """J at one point under one noise batch (m, d), through the attack's path."""
    J, _, _ = _objective_and_grad(params, np.asarray(x, dtype=np.float64)[None], [y],
                                  first_layer_noise(params, noise[None]))
    return float(J[0])


def _attack(params, x, y, noise, cfg):
    """The attack-demo trajectory of one point under one noise batch (m, d):
    ascend with B = 1, then Fhat and J at the endpoint from one forward.
    Returns points (T+1, d), fhat_path (T+1, C) and j_path (T+1,)."""
    noise = first_layer_noise(params, np.asarray(noise)[None])
    y = np.array([y])
    points, fhat_path, j_path = ascend(params, np.asarray(x, dtype=np.float64)[None], y,
                                       noise, cfg)
    fhat_end = soft_smoothed_predict(params, points[-1], noise)
    return (points[:, 0], np.concatenate([fhat_path[:, 0], fhat_end]),
            np.concatenate([j_path[:, 0], objective(fhat_end, y)[0]]))


def _pgd(params, x, y, noise, steps, step_size, epsilon):
    """The PGD endpoint of one point, noise as nn.first_layer_noise gives it."""
    cfg = AttackConfig(step_size, steps, epsilon)
    return ascend(params, np.asarray(x, dtype=np.float64)[None], [y], noise, cfg)[0][-1, 0]


# ---------------------------------------------------------------- objective


def test_objective_certain_true_class_is_zero():
    # logits pinned far toward class 1 -> F_y ~ 1 -> J ~ 0
    params = ModelParams([np.zeros((2, 2))], [np.array([0.0, 200.0])])
    noise = sample_noise(1.0, 2, 4, StreamId(0))
    assert abs(_j(params, np.zeros(2), 1, noise)) < 1e-12


def test_objective_uniform_is_log_c():
    params = _constant_net(3, 5)
    noise = sample_noise(1.0, 3, 6, StreamId(1))
    assert _j(params, np.ones(3), 2, noise) == pytest.approx(
        math.log(5), abs=1e-12)


def test_objective_matches_recomputation():
    params = _random_net(2, [3, 6, 4])
    noise = sample_noise(0.7, 3, 2, StreamId(3))
    x = np.array([0.2, -0.4, 0.9])
    y = 1
    probs = [softmax(forward(params, x + d))[y] for d in noise]
    want = -math.log(sum(probs) / len(probs))
    assert _j(params, x, y, noise) == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("sizes", [[9, 4, 5, 3], [3, 6, 3], [5, 2]])
def test_objective_and_grad_match_direct_oracle(sizes):
    # the attack adds x W1 to the noise already through W1 and sums each
    # point's first-layer cotangents; the oracle backprops every noisy row
    params = _random_net(30, sizes)
    rng = np.random.default_rng(31)
    B, m, d = 4, 6, sizes[0]
    X = rng.standard_normal((B, d))
    y = rng.integers(0, sizes[-1], B)
    noises = rng.standard_normal((B, m, d)) * 0.7
    got = _objective_and_grad(params, X, y, first_layer_noise(params, noises))
    for g, w in zip(got, direct_objective_and_grad(params, X, y, noises)):
        np.testing.assert_allclose(g, w, rtol=0, atol=1e-12)
    points, fhat_path, j_path = ascend(
        params, X, y, first_layer_noise(params, noises), AttackConfig(0.3, 3, 0.5))
    assert points.shape[0] == 4 and len(fhat_path) == len(j_path) == 3
    for t in range(3):
        J, _, fhat = direct_objective_and_grad(params, points[t], y, noises)
        np.testing.assert_allclose(j_path[t], J, rtol=0, atol=1e-12)
        np.testing.assert_allclose(fhat_path[t], fhat, rtol=0, atol=1e-12)


@pytest.mark.parametrize("sizes, steps, cap", [
    ([9, 4, 5, 3], 4, None), ([3, 6, 3], 4, 0.5), ([5, 2], 3, None), ([3, 6, 3], 0, None),
])
def test_ascend_batch_keeps_the_bits_of_the_endpoint_gradient_loop(sizes, steps, cap):
    # the loop stops after its last move; every iterate, and Fhat and J at
    # every iterate but the last, keep the bits of the loop that also took
    # the gradient at the endpoint
    params = _random_net(32, sizes)
    rng = np.random.default_rng(33)
    B, m, d = 5, 4, sizes[0]
    X, y = rng.standard_normal((B, d)), rng.integers(0, sizes[-1], B)
    noises = rng.standard_normal((B, m, d)) * 0.7
    noise, cfg = first_layer_noise(params, noises), AttackConfig(0.4, steps, cap)
    points, fhat_path, j_path = ascend(params, X, y, noise, cfg)
    want_points, want_fhat, want_j = ascend_with_endpoint_gradient(params, X, y, noise, cfg)
    np.testing.assert_array_equal(points, want_points)
    np.testing.assert_array_equal(fhat_path, want_fhat[:-1])
    np.testing.assert_array_equal(j_path, want_j[:-1])


def _oracle_attack(params, x, y, noise, cfg):
    points, fhat_path, j_path = ascend_with_endpoint_gradient(
        params, x[None, :], [y], first_layer_noise(params, noise[None]), cfg)
    return points[:, 0], fhat_path[:, 0], j_path[:, 0]


def _patch_cli_with_oracle(monkeypatch):
    """Make attack-demo take its iterates, and Fhat at the endpoint, from the
    loop that also takes the gradient there."""
    endpoints = []

    def oracle_ascend(params, X, y, noise, cfg):
        points, fhat_path, j_path = ascend_with_endpoint_gradient(params, X, y, noise, cfg)
        endpoints.append(fhat_path[-1])
        return points, fhat_path[:-1], j_path[:-1]

    monkeypatch.setattr(cli, "ascend", oracle_ascend)
    monkeypatch.setattr(cli, "soft_smoothed_predict", lambda *args: endpoints.pop())


@pytest.mark.parametrize("steps", [0, 1, 4])
def test_attack_trajectory_matches_endpoint_gradient_loop_at_mnist_shape(steps):
    # the endpoint's Fhat and J come from one forward, bit for bit the values
    # of the gradient pass; 784-256-256-10 takes the noise after W1
    params = init_mlp([784, 256, 256, 10], StreamId(34))
    x = np.random.default_rng(35).uniform(0.0, 1.0, 784)
    noise = sample_noise(0.5, 784, 8, StreamId(36))
    cfg = AttackConfig(1.0, steps)
    for got, exp in zip(_attack(params, x, 3, noise, cfg),
                        _oracle_attack(params, x, 3, noise, cfg)):
        np.testing.assert_array_equal(got, exp)


@pytest.mark.parametrize("sizes", [[2, 64, 64, 2], [2, 1, 8, 2]], ids=["d<=h1", "d>h1"])
def test_attack_demo_csv_matches_endpoint_gradient_loop(tmp_path, monkeypatch, sizes):
    ckpt = tmp_path / "checkpoint.json"
    save_checkpoint(str(ckpt), init_mlp(sizes, StreamId(37)))
    cfg = tmp_path / "attack.cfg"
    cfg.write_text(f"checkpoint = {ckpt}\nsigma = 0.5\nalpha_step = 0.3\nsteps = 5\n"
                   "m = 6\nepsilon_cap = 1.0\npoint_index = 4\nseed = 38\n"
                   "dataset.kind = two_moons\ndataset.n = 10\n", encoding="ascii")
    csvs = []
    for name in ("library", "oracle"):
        if name == "oracle":
            _patch_cli_with_oracle(monkeypatch)
        out = tmp_path / name
        assert cli.main(["attack-demo", "--config", str(cfg), "--out", str(out)]) == 0
        csvs.append((out / "attack_demo.csv").read_bytes())
    assert csvs[0] == csvs[1]
    assert csvs[0].count(b"\r\n") == 7  # header + 6 iterates


# ---------------------------------------------------------------- smoothmix attack


def test_attack_t0_trajectory_is_start_point():
    params = _random_net(4, [2, 5, 3])
    noise = sample_noise(0.5, 2, 3, StreamId(5))
    x = np.array([0.3, 0.8])
    points, fhat_path, _ = _attack(params, x, 0, noise, AttackConfig(1.0, 0))
    assert points.shape == (1, 2)
    np.testing.assert_array_equal(points[0], x)
    np.testing.assert_allclose(fhat_path[0],
                               soft_smoothed_predict(params, x[None, :],
                                                     first_layer_noise(params, noise[None]))[0],
                               atol=1e-12)


def test_attack_zero_gradient_skips_steps():
    params = _constant_net(2, 3)
    noise = sample_noise(0.5, 2, 3, StreamId(6))
    x = np.array([1.5, -0.5])
    points = _attack(params, x, 0, noise, AttackConfig(0.7, 5))[0]
    assert points.shape == (6, 2)
    for pt in points:
        np.testing.assert_array_equal(pt, x)


def test_attack_linear_model_straight_line():
    w, b = np.array([0.6, -0.8]), 0.3
    params = _linear_two_class(w, b)
    noise = sample_noise(0.5, 2, 8, StreamId(7))
    x = np.array([0.4, 0.2])
    cfg = AttackConfig(alpha_step=0.25, steps=6)
    points, _, j_path = _attack(params, x, 1, noise, cfg)
    # ascent on J for true class 1 walks exactly along -w/|w|
    direction = -w / np.linalg.norm(w)
    for t in range(1, 7):
        np.testing.assert_allclose(points[t],
                                   x + 0.25 * t * direction, atol=1e-9)
    assert np.linalg.norm(points[-1] - x) == pytest.approx(
        6 * 0.25, abs=1e-9)
    # on a linear model J is nondecreasing along the trajectory
    assert np.all(np.diff(j_path) >= -1e-12)


def test_attack_step_norm_exact():
    params = _random_net(8, [3, 10, 4])
    noise = sample_noise(0.8, 3, 4, StreamId(9))
    x = np.array([0.1, -0.2, 0.5])
    cfg = AttackConfig(alpha_step=0.42, steps=5)
    points = _attack(params, x, 2, noise, cfg)[0]
    steps = np.linalg.norm(np.diff(points, axis=0), axis=1)
    moved = steps > 1e-12
    assert np.all(np.abs(steps[moved] - 0.42) < 1e-9)
    assert np.all(steps <= 0.42 + 1e-9)


def test_attack_cap_projection():
    params = _random_net(10, [2, 8, 3])
    noise = sample_noise(0.6, 2, 4, StreamId(11))
    x = np.array([0.7, -0.3])
    cfg = AttackConfig(alpha_step=0.5, steps=8, epsilon_cap=0.6)
    points = _attack(params, x, 1, noise, cfg)[0]
    dists = np.linalg.norm(points - x, axis=1)
    assert np.all(dists <= 0.6 + 1e-9)


def test_attack_noise_reuse_provenance():
    # the noise's stream fixes the trajectory, and the attack leaves the
    # caller's batch unchanged for reuse
    params = _random_net(12, [2, 6, 3])
    noise = sample_noise(0.5, 2, 5, StreamId(13, ("atk",)))
    points = _attack(params, np.zeros(2), 0, noise, AttackConfig(0.3, 3))[0]
    again = sample_noise(0.5, 2, 5, StreamId(13, ("atk",)))
    np.testing.assert_array_equal(noise, again)
    redo = _attack(params, np.zeros(2), 0, again, AttackConfig(0.3, 3))[0]
    np.testing.assert_array_equal(redo, points)


def test_attack_trajectory_invariants():
    params = _random_net(14, [3, 7, 2])
    noise = sample_noise(0.4, 3, 3, StreamId(15))
    x = np.array([0.0, 0.1, -0.1])
    points, fhat_path, _ = _attack(params, x, 0, noise, AttackConfig(0.2, 4))
    assert points.shape[0] == 5
    np.testing.assert_array_equal(points[0], x)
    np.testing.assert_allclose(fhat_path.sum(axis=1), 1.0, atol=1e-9)


def test_attack_fhat_path_matches_fresh_prediction():
    # the path's Fhat comes from the gradient pass's softmax; it must equal
    # a separate soft-smoothed prediction at every iterate, bit for bit
    params = _random_net(22, [3, 7, 4])
    noise = sample_noise(0.6, 3, 5, StreamId(23))
    points, fhat_path, _ = _attack(params, np.array([0.2, -0.1, 0.4]), 3, noise,
                                   AttackConfig(0.3, 4, epsilon_cap=0.5))
    shared = np.broadcast_to(first_layer_noise(params, noise[None]), (5,) + noise.shape)
    fresh = soft_smoothed_predict(params, points, shared)
    np.testing.assert_array_equal(fhat_path, fresh)


def test_attack_config_validation():
    with pytest.raises(ValueError):
        AttackConfig(alpha_step=0.0, steps=3)
    with pytest.raises(ValueError):
        AttackConfig(alpha_step=0.5, steps=-1)
    with pytest.raises(ValueError):
        AttackConfig(alpha_step=0.5, steps=3, epsilon_cap=0.0)


# ---------------------------------------------------------------- smoothadv pgd


def test_pgd_constant_classifier_returns_x():
    params = _constant_net(2, 2)
    noise = first_layer_noise(params, sample_noise(0.5, 2, 3, StreamId(16))[None])
    x = np.array([0.4, 0.9])
    out = _pgd(params, x, 0, noise, steps=5, step_size=0.3, epsilon=1.0)
    np.testing.assert_array_equal(out, x)


def test_pgd_unprojected_distance_on_linear_model():
    params = _linear_two_class(np.array([1.0, 1.0]), 0.0)
    noise = first_layer_noise(params, sample_noise(0.5, 2, 6, StreamId(17))[None])
    x = np.array([0.2, -0.1])
    out = _pgd(params, x, 1, noise, steps=4, step_size=0.2, epsilon=1.0)
    assert np.linalg.norm(out - x) == pytest.approx(0.8, abs=1e-9)


def test_pgd_projection_hits_ball_boundary():
    params = _linear_two_class(np.array([1.0, 0.0]), 0.0)
    noise = first_layer_noise(params, sample_noise(0.5, 2, 6, StreamId(18))[None])
    x = np.array([0.5, 0.5])
    out = _pgd(params, x, 1, noise, steps=10, step_size=0.5, epsilon=0.75)
    assert np.linalg.norm(out - x) == pytest.approx(0.75, abs=1e-9)


def test_pgd_always_inside_ball():
    params = _random_net(19, [3, 8, 3])
    noise = first_layer_noise(params, sample_noise(0.7, 3, 4, StreamId(20))[None])
    x = np.array([0.3, 0.3, -0.6])
    for eps in (0.25, 1.0):
        out = _pgd(params, x, 1, noise, steps=7, step_size=0.6, epsilon=eps)
        assert np.linalg.norm(out - x) <= eps + 1e-9


def test_pgd_validation():
    params = _constant_net(2, 2)
    noise = first_layer_noise(params, sample_noise(0.5, 2, 2, StreamId(21))[None])
    with pytest.raises(ValueError):
        _pgd(params, np.zeros(2), 0, noise, steps=3, step_size=0.1, epsilon=0.0)
    with pytest.raises(ValueError):
        _pgd(params, np.zeros(2), 0, noise, steps=3, step_size=0.0, epsilon=1.0)


# ---------------------------------------------------------------- projection


def test_project_inside_unchanged():
    p = np.array([0.5, 0.5])
    np.testing.assert_array_equal(l2_project(p, np.zeros(2), 1.0), p)


def test_project_center_unchanged():
    c = np.array([2.0, -1.0])
    np.testing.assert_array_equal(l2_project(c.copy(), c, 0.5), c)


def test_project_scales_to_boundary():
    out = l2_project(np.array([2.0, 0.0]), np.zeros(2), 1.0)
    np.testing.assert_allclose(out, [1.0, 0.0], atol=1e-15)


def test_project_batch_is_rowwise():
    # each row is projected around its own center; rows inside stay put
    P = np.array([[0.5, 0.0], [3.0, 4.0], [1.0, 1.0]])
    C = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 3.0]])
    out = l2_project(P, C, 1.0)
    np.testing.assert_allclose(out, [[0.5, 0.0], [0.6, 0.8], [1.0, 2.0]], atol=1e-15)
    for p, c, o in zip(P, C, out):
        np.testing.assert_allclose(l2_project(p, c, 1.0), o, atol=1e-15)


def test_project_all_inside_returns_copy():
    # the result never aliases the input, also when no row moves
    P = np.array([[0.1, 0.2], [0.0, -0.3]])
    out = l2_project(P, np.zeros(2), 1.0)
    np.testing.assert_array_equal(out, P)
    assert not np.shares_memory(out, P)


def test_project_radius_validation():
    with pytest.raises(ValueError):
        l2_project(np.ones(2), np.zeros(2), 0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_ascend_refuses_a_non_finite_gradient(bad, monkeypatch):
    # NaN > GRAD_NORM_FLOOR is false: a NaN gradient read as a zero one and
    # the point stayed put
    params = _random_net(3, [2, 5, 2])
    real = adversary.class_prob_grad_input

    def poisoned(*args):
        probs, grads = real(*args)
        grads[-1] = bad
        return probs, grads

    monkeypatch.setattr(adversary, "class_prob_grad_input", poisoned)
    X = np.array([[0.2, -0.1], [0.4, 0.3]])
    noise = first_layer_noise(params, np.zeros((2, 3, 2)))
    with pytest.raises(NonFiniteError, match="non-finite attack gradient at step 0"):
        ascend(params, X, [1, 0], noise, AttackConfig(0.5, 2))


def test_overflowing_attack_gradient_raises_without_a_warning():
    # the gradient (1e308, -1e308) is finite but its norm overflows: the one
    # report is the typed error, with no numpy RuntimeWarning ahead of it
    params = ModelParams([np.array([[1e308, -1e308], [0.0, 0.0]])], [np.zeros(2)])
    noise = first_layer_noise(params, np.zeros((1, 1, 2)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteError, match="non-finite attack gradient at step 0"):
            ascend(params, np.array([[0.0, 0.5]]), [0], noise, AttackConfig(0.5, 1))
