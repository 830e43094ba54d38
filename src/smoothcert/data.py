"""Datasets: a two-moons generator and an IDX-format MNIST loader.

Every Dataset records the parameters that regenerate it in provenance, a
plain dict: the generator's arguments for two-moons; the file paths, the
subsample size and its seed for IDX. The IDX loader checks each file's
header against its size, picks a subsample from the label file, then reads
only the image rows it keeps, so a subsample costs reads and memory in
proportion to its size, not to the file's. It hashes nothing: the CLI
digests the rows and labels a run holds into its manifest. It holds the kept
images as their uint8 pixel codes, one byte per pixel; Dataset.rows scales
the rows a caller asks for to [0, 1] as float64 (code / 255). No other
preprocessing is applied.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Dataset",
    "IdxFormatError",
    "MagicMismatch",
    "TruncatedPayload",
    "CountMismatch",
    "gen_two_moons",
    "load_mnist_idx",
    "stratified_subsample_indices",
    "IDX_IMAGES_MAGIC",
    "IDX_LABELS_MAGIC",
]

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


class IdxFormatError(ValueError):
    """Base for structured IDX parsing errors."""


class MagicMismatch(IdxFormatError):
    def __init__(self, path, expected, actual):
        super().__init__(f"{path}: expected magic 0x{expected:08x}, got 0x{actual:08x}")
        self.expected = expected
        self.actual = actual


class TruncatedPayload(IdxFormatError):
    def __init__(self, path, expected, actual):
        super().__init__(f"{path}: payload holds {actual} bytes, header promises {expected}")
        self.expected = expected
        self.actual = actual


class CountMismatch(IdxFormatError):
    def __init__(self, n_images, n_labels):
        super().__init__(f"image file holds {n_images} items, label file {n_labels}")
        self.n_images = n_images
        self.n_labels = n_labels


@dataclass
class Dataset:
    """Immutable-by-convention container: inputs (n, d), integer labels (n,).

    inputs holds float64 features, or uint8 codes of features in [0, 1]
    (code / 255, as IDX images store pixels); any other dtype becomes
    float64. rows(idx) gives the float64 features.
    """

    inputs: np.ndarray
    labels: np.ndarray
    class_count: int
    split: str
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        self.inputs = np.asarray(self.inputs)
        if self.inputs.dtype != np.uint8:
            self.inputs = self.inputs.astype(np.float64, copy=False)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.inputs.ndim != 2 or len(self.inputs) != len(self.labels):
            raise ValueError("inputs must be (n, d) aligned with (n,) labels")
        if self.inputs.dtype != np.uint8 and not np.all(np.isfinite(self.inputs)):
            raise ValueError("inputs contain non-finite values")
        if len(self.labels) and (self.labels.min() < 0
                                 or self.labels.max() >= self.class_count):
            raise ValueError("labels must lie in [0, class_count)")

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def dim(self) -> int:
        return self.inputs.shape[1]

    def rows(self, idx) -> np.ndarray:
        """float64 features of the rows idx (an index, a list or an index
        array), a fresh array: inputs[idx] / 255 for uint8 codes, else
        inputs[idx] / 1 (x / 1.0 is x bit for bit)."""
        return self.inputs[idx] / (255.0 if self.inputs.dtype == np.uint8 else 1.0)


def gen_two_moons(n: int, noise_std: float, seed: int, split: str = "train") -> Dataset:
    """Two interleaved half-circles with Gaussian jitter, balanced classes.

    Class 0 sits on the upper arc (cos t, sin t) and class 1 on the lower arc
    (1 - cos t, 1/2 - sin t), t evenly spaced over [0, pi]; the classes differ
    in size by at most one point.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if noise_std < 0:
        raise ValueError("noise_std must be nonnegative")
    n_out = (n + 1) // 2
    n_in = n // 2
    t_out = np.linspace(0.0, np.pi, n_out)
    t_in = np.linspace(0.0, np.pi, n_in)
    outer = np.column_stack([np.cos(t_out), np.sin(t_out)])
    inner = np.column_stack([1.0 - np.cos(t_in), 0.5 - np.sin(t_in)])
    X = np.concatenate([outer, inner])
    y = np.concatenate([np.zeros(n_out, dtype=np.int64), np.ones(n_in, dtype=np.int64)])
    rng = np.random.default_rng(seed)
    X = X + noise_std * rng.standard_normal(X.shape)
    prov = {"kind": "two_moons", "n": int(n), "noise_std": float(noise_std),
            "seed": int(seed), "split": split}
    return Dataset(inputs=X, labels=y, class_count=2, split=split, provenance=prov)


def stratified_subsample_indices(labels: np.ndarray, size: int, seed: int) -> np.ndarray:
    """Deterministic class-stratified subsample; per-class counts within 1 of

    exact proportionality. Returns sorted indices into labels.
    """
    labels = np.asarray(labels)
    n = len(labels)
    if not (1 <= size <= n):
        raise ValueError(f"subsample size must lie in [1, {n}], got {size}")
    classes, counts = np.unique(labels, return_counts=True)
    # Largest-remainder apportionment of `size` across classes.
    exact = counts * (size / n)
    take = np.floor(exact).astype(np.int64)
    remainder = exact - take
    shortfall = size - int(take.sum())
    if shortfall > 0:
        order = np.argsort(-remainder, kind="stable")
        take[order[:shortfall]] += 1
    rng = np.random.default_rng(seed)
    picked = []
    for cls, k in zip(classes, take):
        pool = np.flatnonzero(labels == cls)
        if k > len(pool):
            raise ValueError(f"class {cls} has only {len(pool)} items, need {k}")
        picked.append(rng.choice(pool, size=k, replace=False))
    return np.sort(np.concatenate(picked))


def _read_idx(path, expected_magic: int, count: int = None, rows=None):
    """Parse an IDX file; returns (dims, uint8 items).

    The items are the payload's entries along its first axis, flattened to
    rows of an (n, item size) array. The header is checked against the
    file's size, and with count (the label file's) a first dimension other
    than count raises CountMismatch, before any payload byte is read. Then
    the whole payload is read with one readinto, or with rows (sorted
    indices) only those items, one seek and readinto per run of adjacent
    rows.
    """
    with open(path, "rb", buffering=0) as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(4)
        if len(head) < 4:
            raise TruncatedPayload(path, 4, size)
        (magic,) = struct.unpack(">I", head)
        if magic != expected_magic:
            raise MagicMismatch(path, expected_magic, magic)
        ndim = magic & 0xFF
        head += fh.read(4 * ndim)
        if len(head) < 4 + 4 * ndim:
            raise TruncatedPayload(path, 4 + 4 * ndim, size)
        dims = struct.unpack(f">{ndim}I", head[4:])
        n, width = int(dims[0]), int(np.prod(dims[1:]))
        if size - len(head) < n * width:
            raise TruncatedPayload(path, len(head) + n * width, size)
        if count is not None and n != count:
            raise CountMismatch(n, count)
        keep = np.arange(n) if rows is None else np.asarray(rows, dtype=np.intp)
        out = np.empty((len(keep), width), dtype=np.uint8)
        flat = memoryview(out.reshape(-1))
        starts = np.flatnonzero(np.diff(keep, prepend=-2) != 1)
        bounds = (np.append(starts, len(keep)) * width).tolist()
        offsets = (len(head) + keep[starts] * width).tolist()
        for at, lo, hi in zip(offsets, bounds, bounds[1:]):
            fh.seek(at)
            view = flat[lo:hi]
            # one raw read returns at most about 2 GiB
            while view and (got := fh.readinto(view)):
                view = view[got:]
            if view:
                raise TruncatedPayload(path, len(head) + n * width, size)
    return dims, out


def load_mnist_idx(images_path, labels_path, subsample: int = None, seed: int = 0,
                   split: str = "train") -> Dataset:
    """Load an IDX image/label file pair (big-endian magic, dims, ubyte payload).

    Images are flattened row-major and kept as their uint8 codes in
    `inputs`: `rows(idx)` gives them in [0, 1] as float64, code / 255, with
    no further preprocessing. With `subsample`, a deterministic class-
    stratified subset of that size is selected per seed from the labels, and
    only the selected image rows are kept.
    """
    lab_dims, labels = _read_idx(labels_path, IDX_LABELS_MAGIC)
    y = labels.reshape(-1).astype(np.int64)
    idx = None if subsample is None else stratified_subsample_indices(y, subsample, seed)
    _, pixels = _read_idx(images_path, IDX_IMAGES_MAGIC, lab_dims[0], idx)
    prov = {"kind": "mnist", "images_path": str(images_path),
            "labels_path": str(labels_path),
            "subsample": None if subsample is None else int(subsample),
            "seed": int(seed), "split": split}
    return Dataset(inputs=pixels, labels=y if idx is None else y[idx],
                   class_count=10, split=split, provenance=prov)
