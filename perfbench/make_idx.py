"""Write synthetic IDX files with MNIST's shapes for the `mnist` workload.

Usage: python perfbench/make_idx.py SEED OUT_DIR

Writes train-{images-idx3,labels-idx1}-ubyte (60000 images) and the t10k
pair (10000 images), 28x28 uint8 with 10 balanced classes. Each class is a
fixed random pattern of bright pixels and each image is its class pattern
under Gaussian pixel jitter, so a one-epoch model learns the classes and
certifies nonzero radii. The bytes depend only on SEED.

It runs in its own process so that the benchmark process, whose peak RSS
every child it starts inherits as a floor, stays small.
"""

import os
import struct
import sys

import numpy as np

SIDE = 28
COUNTS = {"train": 60000, "t10k": 10000}
CHUNK = 10000  # images per float64 temporary


def _write_idx(path, array, magic):
    with open(path, "wb") as fh:
        fh.write(struct.pack(">I", magic))
        fh.write(b"".join(struct.pack(">I", s) for s in array.shape))
        fh.write(array.tobytes())


def main(argv) -> int:
    seed, out = int(argv[0]), argv[1]
    os.makedirs(out, exist_ok=True)
    rng = np.random.default_rng(seed)
    protos = (rng.random((10, SIDE * SIDE)) < 0.2) * 80.0
    for split, count in COUNTS.items():
        labels = rng.permutation(np.arange(count) % 10).astype(np.uint8)
        images = np.empty((count, SIDE * SIDE), dtype=np.uint8)
        for start in range(0, count, CHUNK):
            rows = labels[start:start + CHUNK]
            jittered = protos[rows] + rng.normal(0.0, 40.0, (len(rows), SIDE * SIDE))
            images[start:start + CHUNK] = np.clip(np.rint(jittered), 0, 255)
        _write_idx(os.path.join(out, f"{split}-images-idx3-ubyte"),
                   images.reshape(count, SIDE, SIDE), 0x00000803)
        _write_idx(os.path.join(out, f"{split}-labels-idx1-ubyte"), labels,
                   0x00000801)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
