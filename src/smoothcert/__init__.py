"""Certified robustness via randomized smoothing, with SmoothMix training.

Core pieces: a small NumPy MLP with exact gradients (`nn`), Monte Carlo
smoothing and Clopper-Pearson certification (`smoothing`), attacks on the
soft-smoothed classifier (`adversary`), Gaussian / SmoothAdv / SmoothMix
training loops (`training`), certification metrics (`evaluation`), a
dimension-decay bound simulator (`theory`), dataset generators and an IDX
loader (`data`), and a deterministic CLI harness (`cli`).
"""

__version__ = "0.3.0"

from .adversary import (
    AttackConfig,
    AttackTrajectory,
    attack_objective,
    l2_project,
    smoothadv_pgd,
    smoothmix_attack,
)
from .data import (
    Dataset,
    IdxFormatError,
    MagicMismatch,
    TruncatedPayload,
    CountMismatch,
    from_provenance,
    gen_gaussian_blobs,
    gen_two_moons,
    load_mnist_idx,
)
from .evaluation import (
    CertifiedResultSet,
    acr,
    certified_accuracy_curve,
    equal_confidence_mixing_ratio,
)
from .nn import (
    ModelParams,
    OptimizerState,
    cross_entropy,
    forward,
    grad_input,
    grad_params,
    init_mlp,
    load_checkpoint,
    one_hot,
    save_checkpoint,
    sgd_nesterov_step,
    softmax,
)
from .rng import StreamId
from .smoothing import (
    ABSTAIN,
    CertifyOutcome,
    NoiseBatch,
    NotCertifiable,
    SmoothingConfig,
    certified_radius,
    certify,
    clopper_pearson_lower,
    hard_class_counts,
    sample_noise,
    soft_smoothed_predict,
    std_normal_cdf,
    std_normal_quantile,
)
from .theory import (
    TheorySimConfig,
    chebyshev_k_bound,
    interval_halfwidth_k,
    lemma_constant_C,
    verify_decay,
    worst_case_prob,
)
from .training import (
    GaussianConfig,
    SmoothAdvConfig,
    SmoothMixConfig,
    TrainRunConfig,
    make_mix_pair,
    train,
)

__all__ = [
    "__version__",
    "ABSTAIN",
    "AttackConfig",
    "AttackTrajectory",
    "CertifiedResultSet",
    "CertifyOutcome",
    "CountMismatch",
    "Dataset",
    "GaussianConfig",
    "IdxFormatError",
    "MagicMismatch",
    "ModelParams",
    "NoiseBatch",
    "NotCertifiable",
    "OptimizerState",
    "SmoothAdvConfig",
    "SmoothMixConfig",
    "SmoothingConfig",
    "StreamId",
    "TheorySimConfig",
    "TrainRunConfig",
    "TruncatedPayload",
    "acr",
    "attack_objective",
    "certified_accuracy_curve",
    "certified_radius",
    "certify",
    "chebyshev_k_bound",
    "clopper_pearson_lower",
    "cross_entropy",
    "equal_confidence_mixing_ratio",
    "forward",
    "from_provenance",
    "gen_gaussian_blobs",
    "gen_two_moons",
    "grad_input",
    "grad_params",
    "hard_class_counts",
    "init_mlp",
    "interval_halfwidth_k",
    "l2_project",
    "lemma_constant_C",
    "load_checkpoint",
    "load_mnist_idx",
    "make_mix_pair",
    "one_hot",
    "sample_noise",
    "save_checkpoint",
    "sgd_nesterov_step",
    "smoothadv_pgd",
    "smoothmix_attack",
    "soft_smoothed_predict",
    "softmax",
    "std_normal_cdf",
    "std_normal_quantile",
    "train",
    "verify_decay",
    "worst_case_prob",
]
