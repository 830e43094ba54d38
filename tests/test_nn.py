import hashlib
import json
import warnings

import numpy as np
import pytest

from nn_oracle import (
    ModelParams,
    backward_allocating,
    class_prob_grad_input_allocating,
    cross_entropy,
    forward,
    grad_input,
    grad_params,
    noisy_ce_grads_allocating,
    validate_soft_label,
)
from smoothcert import nn
from smoothcert.nn import (
    CheckpointError,
    DimensionMismatch,
    NonFiniteError,
    class_prob_grad_input,
    first_layer,
    first_layer_noise,
    forward_tail,
    init_mlp,
    load_checkpoint,
    noisy_ce_grads,
    save_checkpoint,
    softmax,
)
from smoothcert.rng import StreamId
from smoothcert.training import sgd_nesterov_step


def _random_net(rng, sizes):
    weights = [rng.standard_normal((a, b)) * 0.7 for a, b in zip(sizes[:-1], sizes[1:])]
    biases = [rng.standard_normal(b) * 0.1 for b in sizes[1:]]
    return ModelParams(weights, biases)


def _random_soft_label(rng, c):
    t = rng.uniform(0.1, 1.0, c)
    return t / t.sum()


# ---------------------------------------------------------------- softmax


def test_softmax_is_distribution():
    rng = np.random.default_rng(0)
    z = rng.standard_normal((5, 7)) * 30
    p = softmax(z)
    assert np.all(p > 0)
    np.testing.assert_allclose(p.sum(axis=-1), 1.0, atol=1e-12)


def test_softmax_shift_invariance_and_overflow():
    z = np.array([1000.0, 1001.0, 999.0])
    p = softmax(z)
    np.testing.assert_allclose(p, softmax(z - 1000.0), atol=1e-15)
    assert np.all(np.isfinite(p))


def test_soft_label_validation():
    validate_soft_label(np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        validate_soft_label(np.array([0.7, 0.7]))
    with pytest.raises(ValueError):
        validate_soft_label(np.array([-0.1, 1.1]))


# ---------------------------------------------------------------- forward


def test_forward_linear_closed_form():
    # single layer, no hidden ReLU: logits = x W + b exactly
    W = np.array([[1.0, -2.0], [0.5, 3.0]])
    b = np.array([0.25, -1.0])
    params = ModelParams([W], [b])
    x = np.array([2.0, -1.0])
    np.testing.assert_allclose(forward(params, x), x @ W + b, atol=1e-15)


def test_forward_relu_closed_form():
    # one hidden unit computing relu(x) then identity
    params = ModelParams([np.array([[1.0]]), np.array([[1.0]])],
                         [np.zeros(1), np.zeros(1)])
    assert forward(params, np.array([3.0]))[0] == 3.0
    assert forward(params, np.array([-3.0]))[0] == 0.0


def test_forward_batch_matches_rows():
    rng = np.random.default_rng(1)
    params = _random_net(rng, [4, 8, 3])
    X = rng.standard_normal((6, 4))
    batch = forward(params, X)
    rows = np.stack([forward(params, x) for x in X])
    np.testing.assert_allclose(batch, rows, rtol=1e-12)


def test_forward_matches_cached_forward_bitwise():
    # the backward passes' forward writes each layer into the caller's outs
    from smoothcert.nn import first_layer, forward_tail
    rng = np.random.default_rng(5)
    params = _random_net(rng, [6, 16, 16, 4])
    X = rng.standard_normal((40, 6))
    X_before = X.copy()
    outs = [np.empty((40, W.shape[1])) for W in params.weights[1:]]
    logits = forward_tail(params, first_layer(params, X), outs)
    assert logits is outs[-1]
    np.testing.assert_array_equal(forward(params, X), logits)
    np.testing.assert_array_equal(X, X_before)  # the in-place steps leave x alone


def test_dimension_mismatch():
    params = _random_net(np.random.default_rng(2), [4, 3])
    with pytest.raises(DimensionMismatch):
        forward(params, np.zeros(5))


@pytest.mark.parametrize("sizes", [[2, 3, 2], [3, 2]], ids=["hidden", "single-layer"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_forward_tail_refuses_non_finite_logits(sizes, bad):
    params = init_mlp(sizes, StreamId(0))
    z1 = np.ones((4, sizes[1]))
    z1[2, 0] = bad
    with pytest.raises(NonFiniteError, match="non-finite logits"):
        forward_tail(params, z1)


def test_overflowing_first_layer_raises_without_a_warning():
    # x W1 overflows to inf: the one report is forward_tail's typed error,
    # with no numpy RuntimeWarning printed ahead of it
    params = ModelParams([np.full((2, 3), 1.7e308), np.ones((3, 2))],
                         [np.zeros(3), np.zeros(2)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteError, match="non-finite logits"):
            class_prob_grad_input(params, np.array([[3.0, 3.0]]), 0)


def test_cross_entropy_gibbs():
    # H(t, p) >= H(t, t) with equality iff p == t
    rng = np.random.default_rng(3)
    t = _random_soft_label(rng, 5)
    zt = np.log(t)
    h_min = cross_entropy(zt, t)
    for _ in range(20):
        z = rng.standard_normal(5)
        assert cross_entropy(z, t) >= h_min - 1e-12


# ---------------------------------------------------------------- gradients


def _fd_params_grad(params, x, target, eps=1e-5):
    gW = [np.zeros_like(W) for W in params.weights]
    gb = [np.zeros_like(b) for b in params.biases]
    def loss(p):
        return cross_entropy(forward(p, x), target)
    for k, W in enumerate(params.weights):
        for idx in np.ndindex(W.shape):
            p = params.copy(); p.weights[k][idx] += eps; up = loss(p)
            p = params.copy(); p.weights[k][idx] -= eps; dn = loss(p)
            gW[k][idx] = (up - dn) / (2 * eps)
    for k, b in enumerate(params.biases):
        for idx in np.ndindex(b.shape):
            p = params.copy(); p.biases[k][idx] += eps; up = loss(p)
            p = params.copy(); p.biases[k][idx] -= eps; dn = loss(p)
            gb[k][idx] = (up - dn) / (2 * eps)
    return gW, gb


def _rel_err(a, b):
    scale = max(np.abs(a).max(), np.abs(b).max(), 1e-8)
    return np.abs(a - b).max() / scale


def test_param_gradients_match_finite_differences():
    rng = np.random.default_rng(4)
    for _ in range(5):
        params = _random_net(rng, [3, 6, 4])
        x = rng.standard_normal(3)
        t = _random_soft_label(rng, 4)
        gW, gb = grad_params(params, [(x, t)])
        fW, fb = _fd_params_grad(params, x, t)
        for a, b in zip(gW, fW):
            assert _rel_err(a, b) < 1e-6
        for a, b in zip(gb, fb):
            assert _rel_err(a, b) < 1e-6


def test_input_gradient_matches_finite_differences():
    rng = np.random.default_rng(5)
    for _ in range(10):
        params = _random_net(rng, [4, 7, 3])
        x = rng.standard_normal(4)
        t = _random_soft_label(rng, 3)
        g = grad_input(params, x, t)
        eps = 1e-5
        fd = np.empty(4)
        for i in range(4):
            up = x.copy(); up[i] += eps
            dn = x.copy(); dn[i] -= eps
            fd[i] = (cross_entropy(forward(params, up), t)
                     - cross_entropy(forward(params, dn), t)) / (2 * eps)
        assert _rel_err(g, fd) < 1e-6


def test_mean_gradient_over_batch():
    # grad over a 2-example batch equals mean of the singleton grads
    rng = np.random.default_rng(6)
    params = _random_net(rng, [3, 5, 2])
    ex = [(rng.standard_normal(3), _random_soft_label(rng, 2)) for _ in range(2)]
    gW, gb = grad_params(params, ex)
    g0W, g0b = grad_params(params, [ex[0]])
    g1W, g1b = grad_params(params, [ex[1]])
    for k in range(2):
        np.testing.assert_allclose(gW[k], (g0W[k] + g1W[k]) / 2, rtol=1e-10)
        np.testing.assert_allclose(gb[k], (g0b[k] + g1b[k]) / 2, rtol=1e-10)


def test_class_prob_grad_input_fd():
    rng = np.random.default_rng(7)
    params = _random_net(rng, [4, 6, 3])
    X = rng.standard_normal((3, 4))
    probs, dX = class_prob_grad_input(params, X, 1)
    np.testing.assert_allclose(probs, softmax(forward(params, X)), rtol=1e-12)
    eps = 1e-6
    for r in range(3):
        for i in range(4):
            up = X[r].copy(); up[i] += eps
            dn = X[r].copy(); dn[i] -= eps
            fd = (softmax(forward(params, up))[1]
                  - softmax(forward(params, dn))[1]) / (2 * eps)
            assert abs(fd - dX[r, i]) < 1e-6 * max(1.0, abs(fd))


# ------------------------------------------- in-place passes, bit for bit

# noise added to x (d <= h1), noise after W1 (d > h1), one hidden layer, and
# the mnist shape
DIFF_NETS = {"unfactored": [3, 6, 5, 4], "factored": [9, 4, 5, 3],
             "one-hidden": [7, 3, 2], "mnist": [784, 256, 256, 10]}


def _bytes(arrays):
    return [a.tobytes() for a in arrays]


@pytest.mark.parametrize("need_params", [True, False])
@pytest.mark.parametrize("sizes", DIFF_NETS.values(), ids=DIFF_NETS.keys())
def test_backward_in_place_keeps_the_bits_of_the_allocating_pass(sizes, need_params):
    rng = np.random.default_rng(40)
    params = _random_net(rng, sizes)
    X = rng.standard_normal((5, sizes[0]))
    z1 = first_layer(params, X, first_layer_noise(params, rng.standard_normal((5, 3, sizes[0]))))
    outs = [np.empty((len(z1), W.shape[1])) for W in params.weights[1:]]
    dlogits = softmax(forward_tail(params, z1, outs)) - np.eye(sizes[-1])[
        rng.integers(0, sizes[-1], len(z1))]
    acts = [z1, *outs[:-1]]
    want, want_dz1 = backward_allocating(params, [a.copy() for a in acts], dlogits, need_params)
    got, dz1 = nn._backward(params, acts, dlogits, need_params)
    assert dz1.tobytes() == want_dz1.tobytes()
    assert np.shares_memory(dz1, z1)  # the activations were consumed
    if need_params:
        assert got[0][0] is None and _bytes(got[0][1:]) == _bytes(want[0][1:])
        assert _bytes(got[1]) == _bytes(want[1])
    else:
        assert got is None


@pytest.mark.parametrize("noisy", [True, False])
@pytest.mark.parametrize("sizes", DIFF_NETS.values(), ids=DIFF_NETS.keys())
def test_class_prob_grad_input_keeps_the_bits_of_the_allocating_pass(sizes, noisy):
    rng = np.random.default_rng(41)
    params = _random_net(rng, sizes)
    X, y = rng.standard_normal((6, sizes[0])), rng.integers(0, sizes[-1], 6)
    noise = (first_layer_noise(params, rng.standard_normal((6, 4, sizes[0])) * 0.5)
             if noisy else None)
    assert (_bytes(class_prob_grad_input(params, X, y, noise))
            == _bytes(class_prob_grad_input_allocating(params, X, y, noise)))


@pytest.mark.parametrize("part_count", [1, 2])
@pytest.mark.parametrize("sizes", DIFF_NETS.values(), ids=DIFF_NETS.keys())
def test_noisy_ce_grads_keeps_the_bits_of_the_allocating_step(sizes, part_count):
    # one part is the Gaussian and SmoothAdv step, two the SmoothMix step
    rng = np.random.default_rng(42)
    params = _random_net(rng, sizes)
    B, m, d, C = 8, 4, sizes[0], sizes[-1]
    deltas = rng.standard_normal((B, m, d)) * 0.5
    noise = first_layer_noise(params, deltas)
    parts = [(rng.standard_normal((B, d)), softmax(rng.standard_normal((B, C))), w)
             for w in (1.0, 5.0)[:part_count]]
    (gW, gb), ce = noisy_ce_grads(params, deltas, noise, parts)
    (want_gW, want_gb), want_ce = noisy_ce_grads_allocating(params, deltas, noise, parts)
    assert _bytes(gW) == _bytes(want_gW) and _bytes(gb) == _bytes(want_gb)
    assert ce == want_ce


# ---------------------------------------------------------------- optimizer


def _zero_velocity(params):
    return [(np.zeros_like(W), np.zeros_like(b)) for W, b in zip(params.weights, params.biases)]


def test_nesterov_two_steps_by_hand():
    # theta 1-d, constant gradient g: check the documented recursion exactly
    params = ModelParams([np.array([[1.0]])], [np.array([0.0])])
    velocity = _zero_velocity(params)
    grads = ([np.array([[2.0]])], [np.array([0.0])])

    theta, v = 1.0, 0.0
    for _ in range(2):
        gp = 2.0
        v = 0.9 * v + gp
        theta = theta - 0.1 * (gp + 0.9 * v)
    sgd_nesterov_step(params, grads, velocity, 0.1, 0.9, 0.0)
    sgd_nesterov_step(params, grads, velocity, 0.1, 0.9, 0.0)
    assert params.weights[0][0, 0] == pytest.approx(theta, abs=1e-15)


def test_weight_decay_enters_gradient():
    params = ModelParams([np.array([[1.0]])], [np.array([0.0])])
    grads = ([np.array([[0.0]])], [np.array([0.0])])
    sgd_nesterov_step(params, grads, _zero_velocity(params), 0.1, 0.0, 0.5)
    # gp = 0 + 0.5*1.0; theta = 1 - 0.1*0.5
    assert params.weights[0][0, 0] == pytest.approx(0.95, abs=1e-15)


def test_zero_lr_is_noop():
    rng = np.random.default_rng(8)
    params = _random_net(rng, [3, 4, 2])
    before = params.copy()
    grads = ([np.ones_like(W) for W in params.weights],
             [np.ones_like(b) for b in params.biases])
    sgd_nesterov_step(params, grads, _zero_velocity(params), 0.0, 0.9, 1e-4)
    for a, b in zip(params.weights, before.weights):
        np.testing.assert_array_equal(a, b)


def test_nesterov_step_rejects_misshapen_grad():
    params = ModelParams([np.array([[1.0]])], [np.array([0.0])])
    grads = ([np.array([[1.0, 2.0]])], [np.array([0.0])])
    with pytest.raises(DimensionMismatch, match="grad for layer 0"):
        sgd_nesterov_step(params, grads, _zero_velocity(params), 0.1, 0.9, 0.0)


# ---------------------------------------------------------------- init / io


def test_init_deterministic_and_scaled():
    a = init_mlp([10, 20, 3], StreamId(42, ("init",)))
    b = init_mlp([10, 20, 3], StreamId(42, ("init",)))
    for Wa, Wb in zip(a.weights, b.weights):
        np.testing.assert_array_equal(Wa, Wb)
    assert all(np.all(bias == 0) for bias in a.biases)
    # He scale: std ~ sqrt(2/fan_in)
    big = init_mlp([400, 400], StreamId(0, ("init",)))
    assert big.weights[0].std() == pytest.approx(np.sqrt(2 / 400), rel=0.05)


def test_checkpoint_round_trip_byte_identical(tmp_path):
    params = _random_net(np.random.default_rng(9), [5, 8, 3])
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    save_checkpoint(p1, params, init_stream=StreamId(3, ("init",)))
    loaded, meta = load_checkpoint(p1)
    for a, b in zip(loaded.weights + loaded.biases, params.weights + params.biases):
        assert a.tobytes() == b.tobytes()  # bit-exact
    save_checkpoint(p2, loaded, init_stream=StreamId(3, ("init",)))
    assert p1.read_bytes() == p2.read_bytes()
    assert meta["init"] == StreamId(3, ("init",)).as_json()


def test_checkpoint_rejects_foreign_json(tmp_path):
    p = tmp_path / "x.json"
    p.write_text('{"format": "something-else"}')
    with pytest.raises(ValueError):
        load_checkpoint(p)


def _saved(tmp_path, sizes=(5, 8, 3)):
    """A checkpoint of a random net: (path, header dict, payload bytes)."""
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, _random_net(np.random.default_rng(4), list(sizes)))
    line, payload = path.read_bytes().split(b"\n", 1)
    return path, json.loads(line), payload


def test_checkpoint_header_line_holds_the_payload_digest(tmp_path):
    path, header, payload = _saved(tmp_path)
    with open(path, "rb") as fh:
        first = json.loads(fh.readline())  # what `head -1` shows
    assert first == header
    assert header["version"] == 2 and header["layer_sizes"] == [5, 8, 3]
    assert header["payload_bytes"] == len(payload) == 8 * (5 * 8 + 8 + 8 * 3 + 3)
    assert header["sha256"] == hashlib.sha256(payload).hexdigest()


def _flip_byte(header, payload):
    damaged = bytearray(payload)
    damaged[17] ^= 0x01
    return header, bytes(damaged)


def _v1_file(header, payload):
    # the nested-list JSON layout of format version 1
    return {"format": "smoothcert.checkpoint", "version": 1, "activation": "relu",
            "layer_sizes": [1, 1], "init": None, "weights": [[[0.5]]],
            "biases": [[0.0]]}, b""


@pytest.mark.parametrize("damage, message", [
    (lambda h, p: (h, p[:-5]), "payload holds"),
    (_flip_byte, "sha256"),
    (lambda h, p: (dict(h, payload_bytes=len(p) - 8), p), "need a"),
    (lambda h, p: (dict(h, layer_sizes=[5, 8, 4]), p), "need a"),
    (_v1_file, "unsupported checkpoint version 1"),
], ids=["truncated", "flipped-byte", "wrong-length", "layer-sizes", "version-1"])
def test_checkpoint_rejects_damaged_files(tmp_path, damage, message):
    path, header, payload = _saved(tmp_path)
    header, payload = damage(header, payload)
    path.write_bytes(json.dumps(header, sort_keys=True).encode() + b"\n" + payload)
    with pytest.raises(CheckpointError, match=message):
        load_checkpoint(path)


def test_checkpoint_rejects_a_bad_header_line(tmp_path):
    path, _, payload = _saved(tmp_path)
    path.write_bytes(b"not json\n" + payload)
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_loaded_checkpoint_arrays_are_owned_and_writeable(tmp_path):
    path, _, _ = _saved(tmp_path)
    params, _ = load_checkpoint(path)
    for a in params.weights + params.biases:
        assert a.dtype == np.float64 and a.dtype.isnative
        assert a.flags.owndata and a.flags.writeable
        assert a.flags.c_contiguous and a.flags.aligned
