import os
import struct
import tracemalloc

import numpy as np
import pytest

from data_oracle import from_provenance
from idx_files import write_idx, write_idx_pair, write_mnist_shape_pair
from smoothcert import data
from smoothcert.cli import main
from smoothcert.data import (
    CountMismatch,
    Dataset,
    IDX_IMAGES_MAGIC,
    IDX_LABELS_MAGIC,
    IdxFormatError,
    MagicMismatch,
    TruncatedPayload,
    gen_two_moons,
    load_mnist_idx,
    stratified_subsample_indices,
)
from smoothcert.nn import init_mlp, save_checkpoint
from smoothcert.rng import StreamId


def _fixture_pair(tmp_path, images, labels):
    return write_idx_pair(tmp_path / "imgs.idx", tmp_path / "labs.idx", images, labels)


# ---------------------------------------------------------------- two moons


def test_two_moons_noiseless_canonical_points():
    ds = gen_two_moons(4, 0.0, 0)
    want = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 0.5], [2.0, 0.5]])
    np.testing.assert_allclose(ds.inputs, want, atol=1e-12)
    np.testing.assert_array_equal(ds.labels, [0, 0, 1, 1])
    assert ds.class_count == 2 and ds.dim == 2 and len(ds) == 4


def test_two_moons_balance_odd_n():
    ds = gen_two_moons(7, 0.1, 0)
    n0 = int((ds.labels == 0).sum())
    n1 = int((ds.labels == 1).sum())
    assert abs(n0 - n1) <= 1 and n0 + n1 == 7


def test_two_moons_deterministic_per_seed():
    a = gen_two_moons(30, 0.2, 5)
    b = gen_two_moons(30, 0.2, 5)
    c = gen_two_moons(30, 0.2, 6)
    np.testing.assert_array_equal(a.inputs, b.inputs)
    assert not np.array_equal(a.inputs, c.inputs)


def test_two_moons_validation():
    with pytest.raises(ValueError):
        gen_two_moons(1, 0.1, 0)
    with pytest.raises(ValueError):
        gen_two_moons(10, -0.1, 0)


# ---------------------------------------------------------------- idx loader


def test_idx_fixture_exact_pixels(tmp_path):
    imgs = np.arange(12, dtype=np.uint8).reshape(2, 2, 3)
    ip, lp = _fixture_pair(tmp_path, imgs, [3, 8])
    ds = load_mnist_idx(ip, lp)
    assert ds.inputs.shape == (2, 6) and ds.inputs.dtype == np.uint8
    np.testing.assert_array_equal(ds.rows(0), np.arange(6) / 255.0)
    np.testing.assert_array_equal(ds.rows(1), np.arange(6, 12) / 255.0)
    np.testing.assert_array_equal(ds.labels, [3, 8])
    assert ds.class_count == 10
    assert ds.rows([0, 1]).min() >= 0.0 and ds.rows([0, 1]).max() <= 1.0


@pytest.mark.parametrize("idx", [0, 29, [4, 4, 17, 2], "minibatch"],
                         ids=["first", "last", "list", "minibatch"])
def test_idx_rows_are_the_codes_over_255_bit_for_bit(tmp_path, idx):
    # the images stay uint8 codes; rows() forms the floats the loader used to
    # hold, pixels / 255.0, for any index set
    imgs = np.random.default_rng(6).integers(0, 256, (30, 4, 3), dtype=np.uint8)
    ip, lp = _fixture_pair(tmp_path, imgs, np.arange(30) % 10)
    ds = load_mnist_idx(ip, lp)
    if idx == "minibatch":  # a shuffled minibatch, as training draws it
        idx = StreamId(3).child("shuffle", 0).generator().permutation(30)[:8]
    pixels = imgs.reshape(30, 12)
    np.testing.assert_array_equal(ds.inputs, pixels)
    assert ds.inputs.dtype == np.uint8
    got, want = ds.rows(idx), (pixels / 255.0)[idx]
    assert got.dtype == np.float64 and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("idx", [0, [5, 1, 5], np.arange(3, 9)],
                         ids=["scalar", "list", "array"])
def test_two_moons_rows_come_back_unchanged(idx):
    ds = gen_two_moons(12, 0.2, 4)
    assert ds.inputs.dtype == np.float64
    got = ds.rows(idx)
    assert got.tobytes() == ds.inputs[idx].tobytes()
    got += 1.0  # a fresh array: the dataset keeps its rows
    assert not np.shares_memory(got, ds.inputs)


def test_idx_magic_mismatch(tmp_path):
    ip, lp = _fixture_pair(tmp_path, np.zeros((1, 2, 2), dtype=np.uint8), [0])
    with pytest.raises(MagicMismatch) as err:
        load_mnist_idx(lp, lp)  # labels file where images are expected
    assert err.value.expected == IDX_IMAGES_MAGIC
    assert err.value.actual == IDX_LABELS_MAGIC
    assert isinstance(err.value, IdxFormatError)
    assert "0x00000803" in str(err.value)


def test_idx_truncated_payload(tmp_path):
    path = tmp_path / "trunc.idx"
    # header promises 2 x 2 x 2 = 8 payload bytes, provide 5
    path.write_bytes(struct.pack(">IIII", IDX_IMAGES_MAGIC, 2, 2, 2) + b"\x00" * 5)
    lp = tmp_path / "labs.idx"
    write_idx(lp, [0, 1])
    with pytest.raises(TruncatedPayload) as err:
        load_mnist_idx(path, lp)
    assert err.value.expected == 16 + 8 and err.value.actual == 16 + 5


def test_idx_truncated_header(tmp_path):
    path = tmp_path / "short.idx"
    path.write_bytes(b"\x00\x00")
    with pytest.raises(TruncatedPayload):
        load_mnist_idx(path, path)


def test_idx_count_mismatch(tmp_path):
    ip = tmp_path / "imgs.idx"
    write_idx(ip, np.zeros((2, 2, 2), dtype=np.uint8))
    lp = tmp_path / "labs.idx"
    write_idx(lp, [0, 1, 2])
    with pytest.raises(CountMismatch) as err:
        load_mnist_idx(ip, lp)
    assert err.value.n_images == 2 and err.value.n_labels == 3


def test_idx_subsample_deterministic(tmp_path):
    imgs = np.arange(80, dtype=np.uint8).reshape(20, 2, 2)
    ip, lp = _fixture_pair(tmp_path, imgs, [0] * 10 + [1] * 10)
    a = load_mnist_idx(ip, lp, subsample=10, seed=5)
    b = load_mnist_idx(ip, lp, subsample=10, seed=5)
    np.testing.assert_array_equal(a.inputs, b.inputs)
    np.testing.assert_array_equal(a.labels, b.labels)
    assert len(a) == 10
    # 10 of 20 with equal classes: exactly 5 per class
    assert int((a.labels == 0).sum()) == 5


def test_idx_subsample_equals_full_load_then_index(tmp_path):
    rng = np.random.default_rng(0)
    imgs = rng.integers(0, 256, (60, 4, 3), dtype=np.uint8)
    ip, lp = _fixture_pair(tmp_path, imgs, np.arange(60) % 10)
    full = load_mnist_idx(ip, lp)
    sub = load_mnist_idx(ip, lp, subsample=17, seed=4)
    idx = stratified_subsample_indices(full.labels, 17, 4)
    np.testing.assert_array_equal(sub.inputs, full.inputs[idx])
    np.testing.assert_array_equal(sub.labels, full.labels[idx])


@pytest.mark.parametrize("rows", [[0, 21, 22, 59], [0, 1, 2], [59], []],
                         ids=["first-adjacent-last", "one-run", "last", "none"])
def test_idx_kept_rows_match_the_full_load(tmp_path, rows):
    # one seek and read per run of adjacent rows: the first, the last, a
    # pair, a run from the start and no rows all give the full load's rows
    imgs = np.random.default_rng(2).integers(0, 256, (60, 4, 3), dtype=np.uint8)
    ip, lp = _fixture_pair(tmp_path, imgs, np.arange(60) % 10)
    dims, kept = data._read_idx(ip, IDX_IMAGES_MAGIC, 60, rows)
    full = load_mnist_idx(ip, lp).inputs
    assert dims == (60, 4, 3) and kept.shape == (len(rows), 12)
    np.testing.assert_array_equal(kept, full[rows])
    np.testing.assert_array_equal(full, imgs.reshape(60, 12))


class _RecordingFile:
    """A binary file whose read and readinto record the byte ranges they return."""

    def __init__(self, fh, ranges):
        self._fh, self.ranges = fh, ranges

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()

    def read(self, size=-1):
        at, chunk = self._fh.tell(), self._fh.read(size)
        self.ranges.append((at, len(chunk)))
        return chunk

    def readinto(self, buf):
        at, got = self._fh.tell(), self._fh.readinto(buf)
        self.ranges.append((at, got))
        return got


def _bytes_read(path, ranges):
    """Per byte of the file at path, how many times the ranges read it."""
    hits = np.zeros(os.path.getsize(path), dtype=np.int64)
    for at, size in ranges:
        hits[at:at + size] += 1
    return hits


def test_idx_subsample_reads_only_the_header_and_kept_rows(tmp_path, monkeypatch):
    n, width, header = 500, 12, 16
    imgs = np.random.default_rng(3).integers(0, 256, (n, 4, 3), dtype=np.uint8)
    ip, lp = _fixture_pair(tmp_path, imgs, np.arange(n) % 10)
    ranges = {str(ip): [], str(lp): []}
    monkeypatch.setattr(
        data, "open", lambda path, *args, **kwargs: _RecordingFile(
            open(path, *args, **kwargs), ranges[str(path)]), raising=False)
    ds = load_mnist_idx(ip, lp, subsample=37, seed=8)
    kept = stratified_subsample_indices(np.arange(n) % 10, 37, 8)
    want = np.zeros(header + n * width, dtype=np.int64)
    want[:header] = 1
    for i in kept:
        want[header + i * width:header + (i + 1) * width] = 1
    np.testing.assert_array_equal(_bytes_read(ip, ranges[str(ip)]), want)
    np.testing.assert_array_equal(_bytes_read(lp, ranges[str(lp)]), 1)
    np.testing.assert_array_equal(ds.inputs, imgs.reshape(n, width)[kept])


def test_idx_trailing_bytes_are_not_read(tmp_path):
    # the header sets the payload's size; bytes after it are not rows
    imgs = np.arange(24, dtype=np.uint8).reshape(2, 3, 4)
    ip, lp = _fixture_pair(tmp_path, imgs, [1, 2])
    with open(ip, "ab") as fh:
        fh.write(b"trailing")
    ds = load_mnist_idx(ip, lp, subsample=2)
    np.testing.assert_array_equal(ds.rows([0, 1]), imgs.reshape(2, 12) / 255.0)


def test_idx_subsample_memory_follows_subsample(tmp_path):
    # only the kept rows of the image file are read: beyond them the peak is
    # what picking the subsample from the label file takes, a few int64
    # copies of its n labels
    n, side, kept = 6000, 28, 20
    imgs = np.random.default_rng(1).integers(0, 256, (n, side, side), dtype=np.uint8)
    ip, lp = _fixture_pair(tmp_path, imgs, np.arange(n) % 10)
    del imgs
    tracemalloc.start()
    try:
        ds = load_mnist_idx(ip, lp, subsample=kept)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(ds) == kept
    assert peak < 4 * 8 * n + kept * side * side


# ---------------------------------------------------------------- subsampling


def test_stratified_counts_near_proportional():
    labels = np.array([0] * 10 + [1] * 10 + [2] * 10)
    idx = stratified_subsample_indices(labels, 10, seed=0)
    _, counts = np.unique(labels[idx], return_counts=True)
    assert counts.sum() == 10
    assert all(abs(c - 10 / 3) <= 1 for c in counts)


def test_stratified_exact_proportionality_when_divisible():
    labels = np.array([0] * 70 + [1] * 30)
    idx = stratified_subsample_indices(labels, 10, seed=1)
    sub = labels[idx]
    assert int((sub == 0).sum()) == 7 and int((sub == 1).sum()) == 3


def test_stratified_size_validation():
    labels = np.zeros(5, dtype=np.int64)
    with pytest.raises(ValueError):
        stratified_subsample_indices(labels, 0, seed=0)
    with pytest.raises(ValueError):
        stratified_subsample_indices(labels, 6, seed=0)


# ---------------------------------------------------------------- provenance


def test_provenance_round_trip_two_moons():
    ds = gen_two_moons(25, 0.15, 11, split="test")
    again = from_provenance(ds.provenance)
    np.testing.assert_array_equal(ds.inputs, again.inputs)
    np.testing.assert_array_equal(ds.labels, again.labels)
    assert again.split == "test"


def test_provenance_round_trip_mnist(tmp_path):
    imgs = np.arange(80, dtype=np.uint8).reshape(20, 2, 2)
    ip, lp = _fixture_pair(tmp_path, imgs, [0] * 10 + [1] * 10)
    ds = load_mnist_idx(ip, lp, subsample=8, seed=2)
    assert ds.provenance == {"kind": "mnist", "images_path": str(ip),
                             "labels_path": str(lp), "subsample": 8, "seed": 2,
                             "split": "train"}
    again = from_provenance(ds.provenance)
    np.testing.assert_array_equal(ds.inputs, again.inputs)
    np.testing.assert_array_equal(ds.labels, again.labels)


def test_provenance_unknown_kind():
    with pytest.raises(ValueError):
        from_provenance({"kind": "imagenet"})


# ---------------------------------------------------------------- dataset type


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(inputs=np.array([[np.inf, 0.0]]), labels=np.array([0]),
                class_count=2, split="train")
    with pytest.raises(ValueError):
        Dataset(inputs=np.zeros((2, 2)), labels=np.array([0]),
                class_count=2, split="train")
    with pytest.raises(ValueError):
        Dataset(inputs=np.zeros((1, 2)), labels=np.array([5]),
                class_count=2, split="train")


# ---------------------------------------------------------------- CLI memory at MNIST shape


def _cli_peak(tmp_path, name, command, text):
    """Run one CLI subcommand in-process; return its tracemalloc peak."""
    cfg = tmp_path / f"{name}.cfg"
    cfg.write_text(text)
    tracemalloc.start()
    try:
        code = main([command, "--config", str(cfg), "--out", str(tmp_path / name)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    return peak


def test_cli_peaks_bounded_at_mnist_shape(tmp_path):
    # 784-256-256-10 on 6,000 IDX images: the loader keeps only the subsample
    # (a float64 copy of every image would be 36 MiB), CERTIFY holds at most
    # COUNT_CHUNK noisy rows however large n is (10,000 rows at once would be
    # 60 MiB of noise), and evaluate reads CSV rows only.
    ip, lp = write_mnist_shape_pair(tmp_path, 6000)
    data = (f"dataset.kind = mnist\ndataset.images = {ip}\n"
            f"dataset.labels = {lp}\ndataset.seed = 2\n")
    train_peak = _cli_peak(tmp_path, "train", "train", data + """
method = smoothmix
sigma = 0.5
m = 2
eta = 5.0
alpha_step = 1.0
attack_steps = 1
epochs = 1
batch_size = 50
lr = 0.05
seed = 4
dataset.subsample = 200
""")
    certify_peak = _cli_peak(tmp_path, "certify", "certify", data + f"""
checkpoint = {tmp_path / 'train' / 'checkpoint.json'}
sigma = 0.5
n0 = 100
n = 10000
max_points = 2
seed = 5
dataset.subsample = 20
dataset.split = test
""")
    evaluate_peak = _cli_peak(tmp_path, "evaluate", "evaluate", f"""
cert_csv = {tmp_path / 'certify' / 'certify.csv'}
sigma = 0.5
radii = 0.0, 0.5
""")
    mib = 2**20
    assert train_peak < 24 * mib
    assert certify_peak < 32 * mib
    assert evaluate_peak < 1 * mib


def test_certify_peak_does_not_grow_with_cpu_count(tmp_path, monkeypatch):
    # 8 points at 784-256-256-10 with n > POOL_MIN_DRAWS, so certify pools them:
    # at 8 CPUs at most rng.MAX_STREAM_THREADS points hold a chunk at once,
    # and the peak stays under 24 MiB (17 MiB measured); a point per CPU
    # would hold 45 MiB
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)),
                        raising=False)
    ip, lp = write_mnist_shape_pair(tmp_path, 200)
    ckpt = tmp_path / "checkpoint.json"
    save_checkpoint(ckpt, init_mlp((784, 256, 256, 10), StreamId(1)))
    peak = _cli_peak(tmp_path, "certify", "certify", f"""
dataset.kind = mnist
dataset.images = {ip}
dataset.labels = {lp}
dataset.seed = 2
dataset.subsample = 20
dataset.split = test
checkpoint = {ckpt}
sigma = 0.5
n0 = 100
n = 2500
max_points = 8
seed = 5
""")
    assert peak < 24 * 2 ** 20
