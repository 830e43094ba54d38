"""Command-line harness: train, certify, evaluate, attack-demo, mixratio,
theory-sim.

Every run reads one flat key-value config (--config), writes its artifacts
under --out (default: $SMOOTHCERT_OUT or the working directory; the output
directory is the only environment override), and drops a manifest.json
recording the config snapshot, artifact paths, and timings. All randomness
fans out from the master seed through named substreams, so in sequential
mode the pair (config, seed) determines every artifact byte-for-byte except
the wall-clock `seconds` fields and the manifest timings.

Exit codes: 0 success, 2 config error, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

import numpy as np

from . import __version__
from .adversary import AttackConfig, smoothmix_attack
from .config import (
    SCHEMAS,
    ConfigError,
    apply_schema,
    build_dataset,
    build_smoothing_config,
    build_train_configs,
    load_config,
)
from .evaluation import (
    CertifiedResultSet,
    equal_confidence_mixing_ratio,
    write_metrics_csv,
    write_mixratio_csv,
)
from .nn import load_checkpoint, save_checkpoint
from .rng import StreamId
from .smoothing import (
    certify,
    read_certification_csv,
    sample_noise,
    write_certification_csv,
)
from .theory import TheorySimConfig, decay_dims, verify_decay, write_theory_csv
from .training import train, write_training_log

__all__ = ["main"]

TRAJECTORY_CSV_COLUMNS = ["step", "distance_from_x", "J", "true_class_prob"]


def _json_ready(value):
    if isinstance(value, tuple):
        return list(value)
    return value


def _run_id(command: str, cfg: dict) -> str:
    snapshot = {k: _json_ready(v) for k, v in sorted(cfg.items())}
    payload = json.dumps({"command": command, "config": snapshot,
                          "version": __version__}, sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _write_manifest(out_dir: str, command: str, cfg: dict, artifacts: dict,
                    seconds: float) -> str:
    path = os.path.join(out_dir, "manifest.json")
    obj = {
        "format": "smoothcert.manifest",
        "version": __version__,
        "run_id": _run_id(command, cfg),
        "command": command,
        "config": {k: _json_ready(v) for k, v in sorted(cfg.items())},
        "artifacts": artifacts,
        "timings": {"total_seconds": round(seconds, 4)},
    }
    with open(path, "w", encoding="ascii") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


@contextmanager
def _config_values():
    """A ValueError raised while building config objects is a ConfigError."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _cmd_train(cfg: dict, out_dir: str, workers: int) -> dict:
    with _config_values():
        run_cfg, method_cfg = build_train_configs(cfg)
    ds = build_dataset(cfg, "train")
    params, log_rows = train(ds, run_cfg, method_cfg)
    ckpt = os.path.join(out_dir, "checkpoint.json")
    save_checkpoint(ckpt, params,
                    init_stream=StreamId(run_cfg.seed).child("init"))
    log_path = os.path.join(out_dir, "train_log.csv")
    write_training_log(log_path, log_rows)
    return {"checkpoint": ckpt, "train_log": log_path}


def _certify_one(args):
    params, x, label, scfg, stream, idx = args
    t0 = time.perf_counter()
    outcome = certify(params, x, scfg, stream)
    return {
        "idx": idx,
        "label": int(label),
        "predicted": outcome.predicted_class,
        "radius": outcome.radius,
        "p_lower": outcome.p_lower,
        "correct": int(outcome.certified and outcome.predicted_class == label),
        "abstain": int(not outcome.certified),
        "seconds": time.perf_counter() - t0,
    }


def _cmd_certify(cfg: dict, out_dir: str, workers: int) -> dict:
    with _config_values():
        scfg = build_smoothing_config(cfg)
    params, _ = load_checkpoint(cfg["checkpoint"])
    ds = build_dataset(cfg, "test")
    root = StreamId(cfg["seed"])
    count = len(ds) if cfg["max_points"] <= 0 else min(cfg["max_points"], len(ds))
    # Per-point substreams keep rows identical for any worker count.
    jobs = [(params, ds.inputs[i], ds.labels[i], scfg,
             root.child("certify", int(i)), int(i)) for i in range(count)]
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_certify_one, jobs))
    else:
        rows = [_certify_one(j) for j in jobs]
    path = os.path.join(out_dir, "certify.csv")
    write_certification_csv(path, rows)
    return {"certify_csv": path}


def _cmd_evaluate(cfg: dict, out_dir: str, workers: int) -> dict:
    paths = cfg["cert_csv"]
    ids = cfg["model_ids"]
    if ids and len(ids) != len(paths):
        raise ConfigError("model_ids must match cert_csv in length")
    if not ids:
        ids = tuple(os.path.splitext(os.path.basename(p))[0] for p in paths)
    model_rows = []
    for model_id, p in zip(ids, paths):
        rows = read_certification_csv(p)
        model_rows.append(
            (model_id, CertifiedResultSet.from_rows(rows, cfg["sigma"], model_id)))
    path = os.path.join(out_dir, "metrics.csv")
    write_metrics_csv(path, model_rows, cfg["radii"])
    return {"metrics_csv": path}


def _cmd_attack_demo(cfg: dict, out_dir: str, workers: int) -> dict:
    with _config_values():
        acfg = AttackConfig(alpha_step=cfg["alpha_step"], steps=cfg["steps"],
                            epsilon_cap=cfg["epsilon_cap"] or None)
    params, _ = load_checkpoint(cfg["checkpoint"])
    ds = build_dataset(cfg, "test")
    i = cfg["point_index"]
    if not 0 <= i < len(ds):
        raise ConfigError(f"point_index {i} outside dataset of size {len(ds)}")
    x, y = ds.inputs[i], int(ds.labels[i])
    root = StreamId(cfg["seed"])
    noise = sample_noise(cfg["sigma"], ds.dim, cfg["m"],
                         root.child("attack", i, "noise"))
    traj = smoothmix_attack(params, x, y, noise, acfg)
    path = os.path.join(out_dir, "attack_demo.csv")
    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRAJECTORY_CSV_COLUMNS)
        for s in range(traj.points.shape[0]):
            dist = float(np.linalg.norm(traj.points[s] - x))
            writer.writerow([s, f"{dist:.8g}", f"{traj.j_path[s]:.8g}",
                             f"{traj.fhat_path[s][y]:.8g}"])
    return {"trajectory_csv": path}


def _cmd_mixratio(cfg: dict, out_dir: str, workers: int) -> dict:
    params, _ = load_checkpoint(cfg["checkpoint"])
    ds = build_dataset(cfg, "test")
    root = StreamId(cfg["seed"])
    count = min(cfg["points"], len(ds))
    rows = []
    for i in range(count):
        lam = equal_confidence_mixing_ratio(
            params, ds.inputs[i], int(ds.labels[i]), cfg["sigma"],
            cfg["pgd_steps"], cfg["pgd_eps"], cfg["estimation_m"],
            root.child("mixratio", int(i)))
        rows.append((i, lam))
    path = os.path.join(out_dir, "mixratio.csv")
    write_mixratio_csv(path, rows)
    return {"mixratio_csv": path}


def _cmd_theory_sim(cfg: dict, out_dir: str, workers: int) -> dict:
    with _config_values():
        sims = [TheorySimConfig(d=cfg["dims"][0], sigma=cfg["sigma"],
                                tau=cfg["tau"], epsilon=cfg["epsilon"],
                                p=cfg["p"], noise_family=family,
                                trials=cfg["trials"])
                for family in cfg["families"]]
        for sim in sims:
            decay_dims(sim, cfg["dims"])
    root = StreamId(cfg["seed"])
    reports = [verify_decay(sim, cfg["dims"], root.child(sim.noise_family))
               for sim in sims]
    path = os.path.join(out_dir, "theory.csv")
    write_theory_csv(path, reports)
    return {"theory_csv": path}


_DISPATCH = {
    "train": _cmd_train,
    "certify": _cmd_certify,
    "evaluate": _cmd_evaluate,
    "attack-demo": _cmd_attack_demo,
    "mixratio": _cmd_mixratio,
    "theory-sim": _cmd_theory_sim,
}

_HELP = {
    "train": "train a model (gaussian / smoothadv / smoothmix)",
    "certify": "certify a checkpoint over a test set, one CSV row per point",
    "evaluate": "aggregate certification CSVs into ACR and accuracy curves",
    "attack-demo": "dump one attack trajectory as CSV",
    "mixratio": "equal-confidence mixing ratios over test points",
    "theory-sim": "Monte Carlo check of the C/d decay bound",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smoothcert",
        description="certified-robustness trainer and evaluation harness")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _DISPATCH:
        sp = sub.add_parser(name, help=_HELP[name])
        sp.add_argument("--config", required=True, help="flat key=value config file")
        sp.add_argument("--out", default=None,
                        help="output directory (default $SMOOTHCERT_OUT or .)")
        sp.add_argument("--seed", type=int, default=None,
                        help="override the config master seed")
        sp.add_argument("--workers", type=int, default=1,
                        help="worker threads for per-point certification")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        raw = load_config(args.config)
        cfg = apply_schema(raw, SCHEMAS[args.command])
        if args.seed is not None and "seed" in cfg:
            cfg["seed"] = args.seed
        if args.workers < 1:
            raise ConfigError("--workers must be >= 1")
        out_dir = args.out or os.environ.get("SMOOTHCERT_OUT", ".")
        os.makedirs(out_dir, exist_ok=True)
        t0 = time.perf_counter()
        artifacts = _DISPATCH[args.command](cfg, out_dir, args.workers)
        manifest = _write_manifest(out_dir, args.command, cfg, artifacts,
                                   time.perf_counter() - t0)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - single runtime-failure boundary
        print(f"error: {exc}", file=sys.stderr)
        return 3
    for name, p in artifacts.items():
        print(f"{name}: {p}")
    print(f"manifest: {manifest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
