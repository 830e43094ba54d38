"""Well-formed IDX files for tests: a big-endian header, then the uint8 payload.

The magic is 0x0800 plus the number of dimensions: 0x00000803
(data.IDX_IMAGES_MAGIC) for an (n, rows, cols) image array and 0x00000801
(data.IDX_LABELS_MAGIC) for n labels. Tests of malformed files write their
bytes by hand.
"""

import struct

import numpy as np


def write_idx(path, items, repeat=1):
    """Write the uint8 array items as an IDX file at path, its payload
    repeated `repeat` times along the first axis (a large file from a small
    block); returns path."""
    items = np.asarray(items, dtype=np.uint8)
    dims = (len(items) * repeat,) + items.shape[1:]
    with open(path, "wb") as fh:
        fh.write(struct.pack(f">{1 + len(dims)}I", 0x0800 | len(dims), *dims))
        for _ in range(repeat):
            fh.write(items.tobytes())
    return path


def write_idx_pair(images_path, labels_path, images, labels):
    """An image file and its label file; returns both paths."""
    return write_idx(images_path, images), write_idx(labels_path, labels)


def write_mnist_shape_pair(directory, n):
    """n 28 x 28 images in 10 balanced classes, a fixed pattern per class
    under pixel jitter, as images.idx and labels.idx in directory; returns
    both paths."""
    rng = np.random.default_rng(3)
    labels = np.arange(n) % 10
    protos = rng.integers(0, 256, (10, 28, 28))
    jitter = rng.integers(-40, 41, (n, 28, 28))
    return write_idx_pair(directory / "images.idx", directory / "labels.idx",
                          np.clip(protos[labels] + jitter, 0, 255), labels)
