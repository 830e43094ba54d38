"""Flat key-value run configs with typed parsing and per-subcommand schemas.

Format: one `key = value` per line, `#` starts a comment, blank lines are
skipped. Keys are flat; dataset parameters use a `dataset.` prefix. Unknown
keys are rejected so typos fail loudly instead of silently using defaults.
No environment-variable overrides except the output directory handled by the
CLI layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ._lazy import bind, module_getattr

if TYPE_CHECKING:
    from .data import Dataset
    from .smoothing import SmoothingConfig

__all__ = [
    "ConfigError",
    "parse_config_text",
    "load_config",
    "apply_schema",
    "TRAIN_SCHEMA",
    "CERTIFY_SCHEMA",
    "EVALUATE_SCHEMA",
    "ATTACK_DEMO_SCHEMA",
    "MIXRATIO_SCHEMA",
    "THEORY_SIM_SCHEMA",
    "SCHEMAS",
    "check_dataset",
    "build_dataset",
    "build_train_configs",
    "build_smoothing_config",
]


# What the builders make, imported when a builder first runs: parsing and
# checking a config loads no numpy.
_LAZY = {
    "adversary": ("AttackConfig",),
    "data": ("gen_two_moons", "load_mnist_idx"),
    "smoothing": ("SmoothingConfig",),
    "training": ("GaussianConfig", "SmoothAdvConfig", "SmoothMixConfig",
                 "TrainRunConfig"),
}
__getattr__ = module_getattr(globals(), _LAZY)


class ConfigError(ValueError):
    """Any config parse/validation failure; the CLI maps it to exit code 2."""


_REQUIRED = object()


@dataclass(frozen=True)
class Field:
    kind: str  # str | int | float | bool | int_list | float_list | str_list
    default: object = _REQUIRED
    choices: tuple = ()


def parse_config_text(text: str) -> dict:
    """Raw `key = value` pairs from config text; duplicate keys rejected."""
    out: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected `key = value`, got {raw!r}")
        key, value = line.split("=", 1)
        key, value = key.strip(), value.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def load_config(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_config_text(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


def _finite_float(value: str) -> float:
    parsed = float(value)
    if not math.isfinite(parsed):
        raise ValueError("not finite")
    return parsed


def _parse_value(key: str, value: str, field: Field):
    try:
        if field.kind == "str":
            parsed = value
        elif field.kind == "int":
            parsed = int(value)
        elif field.kind == "float":
            parsed = _finite_float(value)
        elif field.kind == "bool":
            low = value.lower()
            if low not in ("true", "false"):
                raise ValueError("expected true or false")
            parsed = low == "true"
        elif field.kind == "int_list":
            parsed = tuple(int(v.strip()) for v in value.split(",") if v.strip())
        elif field.kind == "float_list":
            parsed = tuple(_finite_float(v) for v in value.split(",") if v.strip())
        elif field.kind == "str_list":
            parsed = tuple(v.strip() for v in value.split(",") if v.strip())
        else:  # pragma: no cover - schema authoring error
            raise AssertionError(f"unknown field kind {field.kind}")
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"key {key!r}: cannot parse {value!r} as {field.kind}"
                          f" ({exc})") from exc
    if field.choices and parsed not in field.choices:
        raise ConfigError(f"key {key!r}: {parsed!r} not one of {field.choices}")
    return parsed


def apply_schema(raw: dict, schema: dict) -> dict:
    """Typed config dict: defaults filled, required enforced, unknowns rejected."""
    unknown = sorted(set(raw) - set(schema))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    out = {}
    for key, field in schema.items():
        if key in raw:
            out[key] = _parse_value(key, raw[key], field)
        elif field.default is _REQUIRED:
            raise ConfigError(f"missing required config key {key!r}")
        else:
            out[key] = field.default
    return out


_DATASET_SCHEMA = {
    "dataset.kind": Field("str", choices=("two_moons", "mnist")),
    "dataset.split": Field("str", default=""),
    # two_moons
    "dataset.n": Field("int", default=0),
    "dataset.noise_std": Field("float", default=0.1),
    "dataset.seed": Field("int", default=0),
    # mnist
    "dataset.images": Field("str", default=""),
    "dataset.labels": Field("str", default=""),
    "dataset.subsample": Field("int", default=0),
}

TRAIN_SCHEMA = {
    "method": Field("str", choices=("gaussian", "smoothadv", "smoothmix")),  # training.METHODS
    "sigma": Field("float"),
    "m": Field("int", default=1),
    # smoothmix
    "eta": Field("float", default=0.0),
    "alpha_step": Field("float", default=1.0),
    "attack_steps": Field("int", default=4),
    "use_one_step": Field("bool", default=False),
    "one_step_cap": Field("float", default=0.0),  # 0 disables the cap
    # smoothadv
    "adv_epsilon": Field("float", default=1.0),
    "adv_steps": Field("int", default=4),
    "warmup_epochs": Field("int", default=10),
    # optimizer / schedule
    "epochs": Field("int"),
    "batch_size": Field("int"),
    "lr": Field("float"),
    "lr_milestones": Field("int_list", default=()),
    "lr_gamma": Field("float", default=0.1),
    "momentum": Field("float", default=0.9),
    "weight_decay": Field("float", default=1e-4),
    "seed": Field("int", default=0),
    **_DATASET_SCHEMA,
}

CERTIFY_SCHEMA = {
    "checkpoint": Field("str"),
    "sigma": Field("float"),
    "n0": Field("int", default=100),
    "n": Field("int", default=1000),
    "alpha_cert": Field("float", default=0.001),
    "max_points": Field("int", default=0),  # 0 = all points
    "seed": Field("int", default=0),
    **_DATASET_SCHEMA,
}

EVALUATE_SCHEMA = {
    "cert_csv": Field("str_list"),
    "model_ids": Field("str_list", default=()),
    "radii": Field("float_list"),
    "sigma": Field("float"),
}

ATTACK_DEMO_SCHEMA = {
    "checkpoint": Field("str"),
    "sigma": Field("float"),
    "alpha_step": Field("float"),
    "steps": Field("int"),
    "m": Field("int", default=4),
    "epsilon_cap": Field("float", default=0.0),  # 0 disables the cap
    "point_index": Field("int", default=0),
    "seed": Field("int", default=0),
    **_DATASET_SCHEMA,
}

MIXRATIO_SCHEMA = {
    "checkpoint": Field("str"),
    "sigma": Field("float"),
    "pgd_steps": Field("int", default=8),
    "pgd_eps": Field("float", default=1.0),
    "estimation_m": Field("int", default=1000),
    "points": Field("int", default=200),
    "seed": Field("int", default=0),
    **_DATASET_SCHEMA,
}

THEORY_SIM_SCHEMA = {
    "families": Field("str_list", default=("gaussian", "uniform_pm")),
    "sigma": Field("float", default=1.0),
    "tau": Field("float", default=1.5),
    "epsilon": Field("float", default=0.5),
    "p": Field("float", default=0.8),
    "dims": Field("int_list", default=(64, 256, 1024, 4096)),
    "trials": Field("int", default=1_000_000),
    "seed": Field("int", default=0),
}

SCHEMAS = {
    "train": TRAIN_SCHEMA,
    "certify": CERTIFY_SCHEMA,
    "evaluate": EVALUATE_SCHEMA,
    "attack-demo": ATTACK_DEMO_SCHEMA,
    "mixratio": MIXRATIO_SCHEMA,
    "theory-sim": THEORY_SIM_SCHEMA,
}


def check_dataset(cfg: dict) -> None:
    """Reject out-of-range dataset.* values of a typed config; reads no file."""
    kind, n = cfg["dataset.kind"], cfg["dataset.n"]
    if cfg["dataset.seed"] < 0:
        raise ConfigError("dataset.seed must be >= 0")
    if kind == "two_moons" and n < 2:
        raise ConfigError("dataset.n must be >= 2 for two_moons")
    if kind == "two_moons" and cfg["dataset.noise_std"] < 0:
        raise ConfigError("dataset.noise_std must be >= 0")
    if kind == "mnist" and not (cfg["dataset.images"] and cfg["dataset.labels"]):
        raise ConfigError("mnist needs dataset.images and dataset.labels")
    if kind == "mnist" and cfg["dataset.subsample"] < 0:
        raise ConfigError("dataset.subsample must be >= 0 (0 keeps every image)")


def build_dataset(cfg: dict, default_split: str) -> Dataset:
    """Instantiate the dataset named by the dataset.* keys of a typed config,
    after check_dataset."""
    check_dataset(cfg)
    bind(globals(), _LAZY, "data")
    kind = cfg["dataset.kind"]
    split = cfg["dataset.split"] or default_split
    if kind == "two_moons":
        return gen_two_moons(cfg["dataset.n"], cfg["dataset.noise_std"],
                             cfg["dataset.seed"], split=split)
    sub = cfg["dataset.subsample"] or None
    return load_mnist_idx(cfg["dataset.images"], cfg["dataset.labels"],
                          subsample=sub, seed=cfg["dataset.seed"], split=split)


def build_train_configs(cfg: dict):
    """(TrainRunConfig, method config) from a typed train config dict."""
    bind(globals(), _LAZY, "adversary", "training")
    method = cfg["method"]
    run = TrainRunConfig(
        method=method,
        epochs=cfg["epochs"],
        batch_size=cfg["batch_size"],
        lr=cfg["lr"],
        lr_milestones=tuple(cfg["lr_milestones"]),
        lr_gamma=cfg["lr_gamma"],
        momentum=cfg["momentum"],
        weight_decay=cfg["weight_decay"],
        seed=cfg["seed"],
    )
    if method == "gaussian":
        mcfg = GaussianConfig(sigma=cfg["sigma"], m=cfg["m"])
    elif method == "smoothadv":
        mcfg = SmoothAdvConfig(sigma=cfg["sigma"], m=cfg["m"],
                               epsilon=cfg["adv_epsilon"],
                               steps=cfg["adv_steps"],
                               warmup_epochs=cfg["warmup_epochs"])
    else:
        attack = AttackConfig(alpha_step=cfg["alpha_step"],
                              steps=cfg["attack_steps"])
        mcfg = SmoothMixConfig(sigma=cfg["sigma"], eta=cfg["eta"],
                               attack=attack, m=cfg["m"],
                               use_one_step=cfg["use_one_step"],
                               one_step_cap=cfg["one_step_cap"] or None)
    return run, mcfg


def build_smoothing_config(cfg: dict) -> SmoothingConfig:
    bind(globals(), _LAZY, "smoothing")
    return SmoothingConfig(sigma=cfg["sigma"], n0=cfg["n0"], n=cfg["n"],
                           alpha_cert=cfg["alpha_cert"])
