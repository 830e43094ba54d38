"""The benchmark's three workloads: what each runs, and how its outputs are checked.

A workload is a fixed sequence of CLI subcommands (a closed loop with one
client: each starts after the previous one exits). Its inputs derive from
the workload seed alone: dataset seeds, master seeds and, for `mnist`, the
bytes of the synthetic IDX files.

- moons: the three-method comparison (gaussian, smoothadv, smoothmix) at toy
  scale. Time goes to per-call overhead: per-example stream derivation, the
  Clopper-Pearson bisection and small-matrix Python steps.
- mnist: the 784-256-256-10 path on synthetic MNIST-shaped IDX files. Time
  goes to BLAS forward/backward, noise sampling, 10k-row certify chunks, the
  101 x m-row mixratio forward, IDX parsing and JSON checkpoint I/O.
- theory: theory-sim with the dimension-decay settings, the only workload
  that runs theory.py, with O(trials * d) sampling.
"""

from __future__ import annotations

import os
import random
import sys
from dataclasses import dataclass, field

from checks import (
    check_certify_csv,
    check_metrics_csv,
    check_mixratio_csv,
    check_theory_csv,
    check_train_log,
)

HERE = os.path.dirname(os.path.abspath(__file__))

# moons sizes
MOONS_TRAIN_N = 2000
MOONS_EPOCHS = 6
MOONS_TEST_N = 300
MOONS_SIGMA = 0.5
MOONS_METHODS = ("gaussian", "smoothadv", "smoothmix")

# mnist sizes: a stratified 2000-point subsample of the 60000 training images
MNIST_TRAIN_SUBSAMPLE = 2000
MNIST_TEST_SUBSAMPLE = 100
MNIST_CERT_POINTS = 10
MNIST_CERT_N = 10000
MNIST_MIX_POINTS = 10
MNIST_SIGMA = 0.5
# large enough that PGD flips most smoothed predictions on the synthetic data
MNIST_PGD_EPS = 4.0

# theory sizes
THEORY_FAMILIES = ("gaussian", "uniform_pm")
THEORY_DIMS = (64, 256, 1024, 4096)
THEORY_TRIALS = 10000

CERT_N0 = 100
CERT_ALPHA = 0.001
RADII = "0.0, 0.25, 0.5, 0.75, 1.0"


@dataclass
class Step:
    """One CLI subcommand run: its config text, output dir and work units."""

    name: str
    command: str
    config: str
    out: str
    work: int = 0  # training examples, certified points or trials


@dataclass
class Workload:
    name: str
    steps: list
    # steps whose datasets the setup probe builds
    setup_steps: tuple
    # traced span names that must record calls on this workload
    expected_spans: tuple
    artifacts: list
    checks: list = field(default_factory=list)  # (op name, callable(dir))
    # command that writes shared inputs into the work directory (its cwd)
    prepare: list = field(default_factory=list)

    def config_path(self, step: Step) -> str:
        return os.path.join("cfg", f"{step.name}.cfg")

    def write_inputs(self, iter_dir: str) -> None:
        os.makedirs(os.path.join(iter_dir, "cfg"), exist_ok=True)
        for step in self.steps:
            with open(os.path.join(iter_dir, self.config_path(step)), "w",
                      encoding="utf-8") as fh:
                fh.write(step.config)


def _seeds(workload: str, seed: int, count: int) -> list:
    rng = random.Random(f"{workload}:{seed}")
    return [rng.randrange(1 << 31) for _ in range(count)]


def _cfg(**kv) -> str:
    return "".join(f"{k.replace('__', '.')} = {v}\n" for k, v in kv.items())


def moons(seed: int) -> Workload:
    train_ds, test_ds, master, cert_seed = _seeds("moons", seed, 4)
    data = dict(dataset__kind="two_moons", dataset__noise_std=0.1)
    steps = []
    for method in MOONS_METHODS:
        extra = {
            "gaussian": {},
            "smoothadv": dict(adv_epsilon=0.5, adv_steps=4,
                              warmup_epochs=MOONS_EPOCHS),
            "smoothmix": dict(eta=5.0, alpha_step=0.5, attack_steps=4),
        }[method]
        steps.append(Step(
            f"train_{method}", "train",
            _cfg(method=method, sigma=MOONS_SIGMA, m=4, epochs=MOONS_EPOCHS,
                 batch_size=50, lr=0.1, seed=master, **extra, **data,
                 dataset__n=MOONS_TRAIN_N, dataset__seed=train_ds),
            method, MOONS_TRAIN_N * MOONS_EPOCHS))
    for method in MOONS_METHODS:
        steps.append(Step(
            f"certify_{method}", "certify",
            _cfg(checkpoint=f"{method}/checkpoint.json", sigma=MOONS_SIGMA,
                 n0=CERT_N0, n=1000, alpha_cert=CERT_ALPHA, seed=cert_seed,
                 **data, dataset__n=MOONS_TEST_N, dataset__seed=test_ds,
                 dataset__split="test"),
            method, MOONS_TEST_N))
    steps.append(Step(
        "evaluate", "evaluate",
        _cfg(cert_csv=", ".join(f"{m}/certify.csv" for m in MOONS_METHODS),
             model_ids=", ".join(MOONS_METHODS), radii=RADII,
             sigma=MOONS_SIGMA),
        "eval"))
    certs = {m: f"{m}/certify.csv" for m in MOONS_METHODS}
    checks = []
    for m in MOONS_METHODS:
        checks.append((f"check train_log {m}", lambda d, m=m: check_train_log(
            os.path.join(d, m, "train_log.csv"), MOONS_EPOCHS)))
        checks.append((f"check certify {m}", lambda d, m=m: check_certify_csv(
            os.path.join(d, certs[m]), MOONS_SIGMA, 1000, CERT_ALPHA,
            MOONS_TEST_N)))
    checks.append(("check metrics", lambda d: check_metrics_csv(
        os.path.join(d, "eval", "metrics.csv"),
        {m: os.path.join(d, p) for m, p in certs.items()})))
    artifacts = [f"{m}/{f}" for m in MOONS_METHODS
                 for f in ("checkpoint.json", "train_log.csv", "certify.csv",
                           "manifest.json")]
    artifacts += ["eval/metrics.csv", "eval/manifest.json"]
    return Workload(
        "moons", steps, ("train_gaussian", "certify_gaussian"),
        expected_spans=(
            "rng.generator", "config.build_dataset", "nn.forward.by_smoothing",
            "nn.forward.by_adversary", "nn.class_prob_grad_input",
            "nn.sgd_nesterov_step", "nn.save_checkpoint", "nn.load_checkpoint",
            "smoothing.certify", "smoothing.hard_class_counts",
            "smoothing.clopper_pearson_lower",
            "smoothing.write_certification_csv",
            "smoothing.read_certification_csv", "training.train.gaussian",
            "training.train.smoothadv", "training.train.smoothmix",
            "evaluation.write_metrics_csv"),
        artifacts=artifacts, checks=checks)


def mnist(seed: int) -> Workload:
    idx_seed, train_sub, test_sub, master, cert_seed, mix_seed = _seeds(
        "mnist", seed, 6)

    def data(split, sub, sub_seed):
        prefix = "train" if split == "train" else "t10k"
        return dict(dataset__kind="mnist",
                    dataset__images=f"../data/{prefix}-images-idx3-ubyte",
                    dataset__labels=f"../data/{prefix}-labels-idx1-ubyte",
                    dataset__subsample=sub, dataset__seed=sub_seed,
                    dataset__split=split)

    test = data("test", MNIST_TEST_SUBSAMPLE, test_sub)
    steps = [
        Step("train_smoothmix", "train",
             _cfg(method="smoothmix", sigma=MNIST_SIGMA, m=4, eta=5.0,
                  alpha_step=1.0, attack_steps=4, epochs=1, batch_size=100,
                  lr=0.05, seed=master,
                  **data("train", MNIST_TRAIN_SUBSAMPLE, train_sub)),
             "smoothmix", MNIST_TRAIN_SUBSAMPLE),
        Step("certify_smoothmix", "certify",
             _cfg(checkpoint="smoothmix/checkpoint.json", sigma=MNIST_SIGMA,
                  n0=CERT_N0, n=MNIST_CERT_N, alpha_cert=CERT_ALPHA,
                  max_points=MNIST_CERT_POINTS, seed=cert_seed, **test),
             "smoothmix", MNIST_CERT_POINTS),
        Step("mixratio_smoothmix", "mixratio",
             _cfg(checkpoint="smoothmix/checkpoint.json", sigma=MNIST_SIGMA,
                  pgd_steps=8, pgd_eps=MNIST_PGD_EPS, estimation_m=100,
                  points=MNIST_MIX_POINTS, seed=mix_seed, **test),
             "mix", MNIST_MIX_POINTS),
        Step("evaluate", "evaluate",
             _cfg(cert_csv="smoothmix/certify.csv", model_ids="smoothmix",
                  radii=RADII, sigma=MNIST_SIGMA),
             "eval"),
    ]
    checks = [
        ("check train_log smoothmix", lambda d: check_train_log(
            os.path.join(d, "smoothmix", "train_log.csv"), 1)),
        ("check certify smoothmix", lambda d: check_certify_csv(
            os.path.join(d, "smoothmix", "certify.csv"), MNIST_SIGMA,
            MNIST_CERT_N, CERT_ALPHA, MNIST_CERT_POINTS)),
        ("check mixratio", lambda d: check_mixratio_csv(
            os.path.join(d, "mix", "mixratio.csv"), MNIST_MIX_POINTS)),
        ("check metrics", lambda d: check_metrics_csv(
            os.path.join(d, "eval", "metrics.csv"),
            {"smoothmix": os.path.join(d, "smoothmix", "certify.csv")})),
    ]
    return Workload(
        "mnist", steps, ("train_smoothmix", "certify_smoothmix"),
        expected_spans=(
            "rng.generator", "config.build_dataset", "data.load_mnist_idx",
            "nn.forward.by_smoothing", "nn.forward.by_adversary",
            "nn.forward.by_evaluation", "nn.class_prob_grad_input",
            "nn.sgd_nesterov_step", "nn.save_checkpoint", "nn.load_checkpoint",
            "smoothing.certify", "smoothing.hard_class_counts",
            "smoothing.clopper_pearson_lower", "smoothing.sample_noise",
            "smoothing.write_certification_csv",
            "smoothing.read_certification_csv", "adversary.smoothadv_pgd",
            "training.train.smoothmix",
            "evaluation.equal_confidence_mixing_ratio",
            "evaluation.write_metrics_csv"),
        artifacts=["smoothmix/checkpoint.json", "smoothmix/train_log.csv",
                   "smoothmix/certify.csv", "smoothmix/manifest.json",
                   "mix/mixratio.csv", "mix/manifest.json",
                   "eval/metrics.csv", "eval/manifest.json"],
        checks=checks,
        prepare=[sys.executable, os.path.join(HERE, "make_idx.py"),
                 str(idx_seed), "data"])


def theory(seed: int) -> Workload:
    (master,) = _seeds("theory", seed, 1)
    step = Step(
        "theory_sim", "theory-sim",
        _cfg(families=", ".join(THEORY_FAMILIES), sigma=1.0, tau=1.5,
             epsilon=0.5, p=0.8, dims=", ".join(map(str, THEORY_DIMS)),
             trials=THEORY_TRIALS, seed=master),
        "theory", THEORY_TRIALS * len(THEORY_DIMS) * len(THEORY_FAMILIES))
    rows = len(THEORY_DIMS) * len(THEORY_FAMILIES)
    return Workload(
        "theory", [step], (),
        expected_spans=("rng.generator",) + tuple(
            f"theory.{fn}.{fam}" for fn in ("interval_halfwidth_k",
                                            "worst_case_prob")
            for fam in THEORY_FAMILIES),
        artifacts=["theory/theory.csv", "theory/manifest.json"],
        checks=[("check theory", lambda d: check_theory_csv(
            os.path.join(d, "theory", "theory.csv"), rows))])


WORKLOADS = {"moons": moons, "mnist": mnist, "theory": theory}
