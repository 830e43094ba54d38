"""Certified robustness via randomized smoothing, with SmoothMix training.

Core pieces: a small NumPy MLP with exact gradients (`nn`), Monte Carlo
smoothing and Clopper-Pearson certification (`smoothing`), attacks on the
soft-smoothed classifier (`adversary`), Gaussian / SmoothAdv / SmoothMix
training loops (`training`), certification metrics (`evaluation`), a
dimension-decay bound simulator (`theory`), a two-moons generator and an
IDX loader (`data`), and a deterministic CLI harness (`cli`).

Only what a library user calls is re-exported here. Submodule internals
are importable but are not a stable API. Each re-exported name is imported
on first use, so importing the package loads no numpy.
"""

from ._lazy import module_getattr

__version__ = "0.7.0"

_EXPORTS = {
    "adversary": ("AttackConfig",),
    "data": ("gen_two_moons", "load_mnist_idx"),
    "evaluation": ("CertifiedResultSet", "acr"),
    "nn": ("load_checkpoint", "save_checkpoint"),
    "rng": ("StreamId",),
    "smoothing": ("SmoothingConfig", "certify"),
    "theory": ("TheorySimConfig", "verify_decay"),
    "training": ("GaussianConfig", "SmoothAdvConfig", "SmoothMixConfig",
                 "TrainRunConfig", "train"),
}
__getattr__ = module_getattr(globals(), _EXPORTS)

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
