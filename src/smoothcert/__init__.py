"""Certified robustness via randomized smoothing, with SmoothMix training.

Core pieces: a small NumPy MLP with exact gradients (`nn`), Monte Carlo
smoothing and Clopper-Pearson certification (`smoothing`), attacks on the
soft-smoothed classifier (`adversary`), Gaussian / SmoothAdv / SmoothMix
training loops (`training`), certification metrics (`evaluation`), a
dimension-decay bound simulator (`theory`), dataset generators and an IDX
loader (`data`), and a deterministic CLI harness (`cli`).

Only what a library user calls is re-exported here. Submodule internals
are importable but are not a stable API.
"""

__version__ = "0.5.0"

from .adversary import AttackConfig
from .data import gen_two_moons, load_mnist_idx
from .evaluation import CertifiedResultSet, acr
from .nn import load_checkpoint, save_checkpoint
from .rng import StreamId
from .smoothing import SmoothingConfig, certify
from .theory import TheorySimConfig, verify_decay
from .training import (
    GaussianConfig,
    SmoothAdvConfig,
    SmoothMixConfig,
    TrainRunConfig,
    train,
)

__all__ = [
    "__version__",
    "StreamId",
    "AttackConfig",
    "GaussianConfig",
    "SmoothAdvConfig",
    "SmoothMixConfig",
    "TrainRunConfig",
    "SmoothingConfig",
    "TheorySimConfig",
    "train",
    "certify",
    "acr",
    "CertifiedResultSet",
    "verify_decay",
    "save_checkpoint",
    "load_checkpoint",
    "gen_two_moons",
    "load_mnist_idx",
]
