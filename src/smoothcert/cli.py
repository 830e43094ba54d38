"""Command-line harness: train, certify, evaluate, attack-demo, mixratio,
theory-sim.

Every run reads one flat key-value config (--config), writes its artifacts
under --out (default: $SMOOTHCERT_OUT or the working directory; the output
directory is the only environment override), and drops a manifest.json
recording the config snapshot, artifact paths, and timings. This module is
the one that knows the artifact formats: every CSV goes through _write_csv,
and certify.csv is read back here. All randomness fans out from the master
seed through named substreams, so the pair (config, seed) determines every
artifact byte-for-byte except the wall-clock `seconds` fields and the
manifest timings, whatever the CPU count. rng.map_streams runs mixratio
points, certify points at n > COUNT_CHUNK and uniform_pm/rademacher theory
stages on one thread per CPU, at most rng.MAX_STREAM_THREADS, each on its
own substream; gaussian stages and smaller certify points run one at a time.

Exit codes: 0 success, 2 config error, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import hashlib
import json
import os
import sys
import time
from contextlib import contextmanager

from . import __version__
from ._lazy import bind, module_getattr
from .config import (
    SCHEMAS,
    ConfigError,
    apply_schema,
    build_dataset,
    build_smoothing_config,
    build_train_configs,
    check_dataset,
    load_config,
)
from .evaluation import (
    CertifiedResultSet,
    CertifyOutcome,
    acr,
    certified_accuracy_curve,
    check_mixing_ratio_args,
    equal_confidence_mixing_ratio,
)

__all__ = ["main"]

# What the subcommands run from the modules that need numpy. The dispatcher
# imports the modules a subcommand runs (_DISPATCH) and binds their names
# here, so `import smoothcert.cli`, --version, a config error and `evaluate`
# load no numpy. A name bound already, as a test or a tracer rebinds it,
# keeps its value.
_LAZY = {
    "adversary": ("AttackConfig", "ascend", "objective"),
    "nn": ("first_layer_noise", "load_checkpoint", "save_checkpoint"),
    "rng": ("StreamId", "map_streams"),
    "smoothing": ("COUNT_CHUNK", "certify", "noise_factor", "sample_noise",
                  "soft_smoothed_predict"),
    "theory": ("TheorySimConfig", "decay_dims", "verify_decay"),
    "training": ("train",),
}
__getattr__ = module_getattr(globals(), _LAZY)

# glibc allocator policy, set by main. At glibc's defaults a block of 128 KiB
# or more gets its own mmap and a freed heap top above 128 KiB goes back to
# the kernel, so every row chunk of a hot loop (512 KiB at 1,000 x 64, 2 MiB
# at h1 = 256, theory-sim's 512 KiB stage buffer) is faulted in again page
# by page. 4 MiB keeps those chunks on the heap.
# A SmoothMix step at 784-256-256-10 frees about 20 MiB of heap when it
# ends, so the heap keeps up to 32 MiB free at its top rather than giving
# it back and faulting it in again at the next step.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # mallopt parameter numbers
MALLOC_MMAP_THRESHOLD = 4 << 20
MALLOC_TRIM_THRESHOLD = 32 << 20

CERT_CSV_COLUMNS = ["idx", "label", "predicted", "radius", "p_lower",
                    "correct", "abstain", "seconds"]


def _write_csv(path, header, rows) -> None:
    """Every CSV artifact: ASCII, the csv module's quoting, CRLF line ends."""
    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_certification_csv(path, rows) -> None:
    """certify.csv from the rows _cmd_certify formats. The seconds column is
    measured wall time, the one non-reproducible field in this file."""
    _write_csv(path, CERT_CSV_COLUMNS, rows)


def read_certification_csv(path, sigma: float) -> CertifiedResultSet:
    """The labels and CERTIFY outcomes of a certify.csv whose header matches.
    A row that does not parse, whose correct or abstain is not 0 or 1, that
    abstains with a class or a nonzero radius, that is certified with a
    negative prediction, or whose correct is not (certified and predicted ==
    label), or no row at all, raises ValueError naming the file."""
    labels, outcomes = [], []
    with open(path, newline="", encoding="ascii") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != CERT_CSV_COLUMNS:
            raise ValueError(f"{path}: unexpected certification CSV header: {header}")
        for row in filter(None, reader):
            try:
                _, label, predicted, radius, p_lower, correct, abstain, _ = row
                label, predicted, correct, abstain = map(int, (label, predicted,
                                                               correct, abstain))
                if not {correct, abstain} <= {0, 1}:
                    raise ValueError(f"correct and abstain must be 0 or 1, "
                                     f"got {correct} and {abstain}")
                certified = not abstain
                if certified and predicted < 0:
                    raise ValueError(f"a certified row predicts class {predicted}")
                if correct != int(certified and predicted == label):
                    raise ValueError(f"correct is {correct} for label {label}, "
                                     f"predicted {predicted} and abstain {abstain}")
                labels.append(label)
                # an abstain row's class and radius are checked by CertifyOutcome
                outcomes.append(CertifyOutcome(certified=certified, predicted_class=predicted,
                                               radius=float(radius), p_lower=float(p_lower)))
            except ValueError as exc:
                raise ValueError(f"{path}, line {reader.line_num}: {exc}") from exc
    if not labels:
        raise ValueError(f"{path}: no rows after the header")
    return CertifiedResultSet(tuple(labels), tuple(outcomes), sigma)


def write_metrics_csv(path, model_results, radii) -> None:
    """One row per (model_id, CertifiedResultSet): ACR plus certified
    accuracy at each radius threshold."""
    _write_csv(path, ["model", "points", "acr"] + [f"cert_acc@{r:g}" for r in radii],
               [[model_id, len(results.labels), f"{acr(results):.6f}"]
                + [f"{v:.6f}" for v in certified_accuracy_curve(results, radii)]
                for model_id, results in model_results])


def write_mixratio_csv(path, rows) -> None:
    """Rows of (idx, lambda_star); a lambda_star of None is written blank."""
    _write_csv(path, ["idx", "lambda_star", "found"],
               [[idx, "" if lam is None else f"{lam:.6f}", int(lam is not None)]
                for idx, lam in rows])


def write_theory_csv(path, reports) -> None:
    """One row per (family, dimension) from a sequence of DecayReports."""
    _write_csv(path, ["family", "d", "k", "estimate", "std_error",
                      "bound_C_over_d", "pass"],
               [[rep.family, r.d, f"{r.k:.8g}", f"{r.estimate:.8g}",
                 f"{r.std_error:.8g}", f"{r.bound_c_over_d:.8g}", int(r.passed)]
                for rep in reports for r in rep.rows])


def _write_manifest(out_dir: str, command: str, cfg: dict, artifacts: dict,
                    seconds: float) -> str:
    """manifest.json; its run_id hashes the command, config and version."""
    config = {k: list(v) if isinstance(v, tuple) else v
              for k, v in sorted(cfg.items())}
    run = {"command": command, "config": config, "version": __version__}
    run_id = hashlib.sha256(json.dumps(run, sort_keys=True).encode()).hexdigest()[:16]
    obj = dict(run, format="smoothcert.manifest", run_id=run_id,
               artifacts=artifacts, timings={"total_seconds": round(seconds, 4)})
    path = os.path.join(out_dir, "manifest.json")
    with open(path, "w", encoding="ascii") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _repeated(items) -> list:
    """The items that occur more than once, sorted."""
    return sorted({x for x in items if items.count(x) > 1})


@contextmanager
def _config_values():
    """A ValueError raised while building config objects is a ConfigError."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _cmd_train(cfg: dict, out_dir: str) -> dict:
    with _config_values():
        run_cfg, method_cfg = build_train_configs(cfg)
    ds = build_dataset(cfg, "train")
    params, log_rows = train(ds, run_cfg, method_cfg)
    ckpt = os.path.join(out_dir, "checkpoint.json")
    save_checkpoint(ckpt, params,
                    init_stream=StreamId(run_cfg.seed).child("init"))
    log_path = os.path.join(out_dir, "train_log.csv")
    _write_csv(log_path, ["epoch", "loss_nat", "loss_mix", "lr", "seconds"],
               [[r["epoch"], f"{r['loss_nat']:.12g}", f"{r['loss_mix']:.12g}",
                 f"{r['lr']:.12g}", f"{r['seconds']:.4f}"] for r in log_rows])
    return {"checkpoint": ckpt, "train_log": log_path}


def _cmd_certify(cfg: dict, out_dir: str) -> dict:
    with _config_values():
        scfg = build_smoothing_config(cfg)
        check_dataset(cfg)
        if cfg["max_points"] < 0:
            raise ConfigError("max_points must be >= 0 (0 certifies every point)")
        root = StreamId(cfg["seed"])
    params, _ = load_checkpoint(cfg["checkpoint"])
    ds = build_dataset(cfg, "test")
    count = min(cfg["max_points"] or len(ds), len(ds))
    R = noise_factor(params)

    def certify_one(i):
        label = int(ds.labels[i])
        t0 = time.perf_counter()
        outcome = certify(params, ds.rows(i), scfg, root.child("certify", i), R)
        seconds = time.perf_counter() - t0
        return [i, label, outcome.predicted_class, f"{outcome.radius:.6f}",
                f"{outcome.p_lower:.12g}",
                int(outcome.certified and outcome.predicted_class == label),
                int(not outcome.certified), f"{seconds:.4f}"]

    rows = map_streams(certify_one, range(count), pooled=scfg.n > COUNT_CHUNK)
    path = os.path.join(out_dir, "certify.csv")
    write_certification_csv(path, rows)
    return {"certify_csv": path}


def _cmd_evaluate(cfg: dict, out_dir: str) -> dict:
    paths, ids, radii = cfg["cert_csv"], cfg["model_ids"], cfg["radii"]
    if not paths:
        raise ConfigError("cert_csv must name at least one file")
    if ids and len(ids) != len(paths):
        raise ConfigError("model_ids must match cert_csv in length")
    if any(b < a for a, b in zip(radii, radii[1:])):
        raise ConfigError("radii thresholds must be nondecreasing")
    if any(r < 0 for r in radii):
        raise ConfigError("radii thresholds must be >= 0")
    if not cfg["sigma"] > 0:
        raise ConfigError("sigma must be positive")
    if not ids:
        ids = tuple(os.path.splitext(os.path.basename(p))[0] for p in paths)
    if repeated := _repeated(ids):
        raise ConfigError(f"model ids repeat ({', '.join(repeated)}); "
                          "give each cert_csv its own name in model_ids")
    # sigma is recorded in the manifest; the metrics read only the CSVs
    model_results = [(model_id, read_certification_csv(p, cfg["sigma"]))
                     for model_id, p in zip(ids, paths)]
    path = os.path.join(out_dir, "metrics.csv")
    write_metrics_csv(path, model_results, radii)
    return {"metrics_csv": path}


def _cmd_attack_demo(cfg: dict, out_dir: str) -> dict:
    import numpy as np

    with _config_values():
        acfg = AttackConfig(alpha_step=cfg["alpha_step"], steps=cfg["steps"],
                            epsilon_cap=cfg["epsilon_cap"] or None)
        check_dataset(cfg)
        if not cfg["sigma"] > 0 or cfg["m"] < 1:
            raise ConfigError("need sigma > 0 and m >= 1")
        if cfg["point_index"] < 0:
            raise ConfigError("point_index must be >= 0")
        root = StreamId(cfg["seed"])
    params, _ = load_checkpoint(cfg["checkpoint"])
    ds = build_dataset(cfg, "test")
    i = cfg["point_index"]
    if i >= len(ds):
        raise ConfigError(f"point_index {i} outside dataset of size {len(ds)}")
    x, y = ds.rows(i)[None, :], np.array([int(ds.labels[i])])
    noise = first_layer_noise(params, sample_noise(cfg["sigma"], ds.dim, cfg["m"],
                                                   root.child("attack", i, "noise"))[None])
    points, fhat_path, j_path = ascend(params, x, y, noise, acfg)
    # the loop takes no gradient at the endpoint: one forward gives Fhat and J there
    fhat_end = soft_smoothed_predict(params, points[-1], noise)
    fhat_path = np.concatenate([fhat_path[:, 0], fhat_end])
    j_path = np.concatenate([j_path[:, 0], objective(fhat_end, y)[0]])
    path = os.path.join(out_dir, "attack_demo.csv")
    _write_csv(path, ["step", "distance_from_x", "J", "true_class_prob"],
               [[s, f"{float(np.linalg.norm(points[s, 0] - x[0])):.8g}",
                 f"{j_path[s]:.8g}", f"{fhat_path[s, y[0]]:.8g}"]
                for s in range(len(points))])
    return {"trajectory_csv": path}


def _cmd_mixratio(cfg: dict, out_dir: str) -> dict:
    with _config_values():
        check_mixing_ratio_args(cfg["sigma"], cfg["pgd_steps"], cfg["pgd_eps"],
                                cfg["estimation_m"])
        check_dataset(cfg)
        if cfg["points"] < 1:
            raise ConfigError("points must be >= 1")
        root = StreamId(cfg["seed"])
    params, _ = load_checkpoint(cfg["checkpoint"])
    ds = build_dataset(cfg, "test")
    count = min(cfg["points"], len(ds))

    def mixing_ratio(i):
        return i, equal_confidence_mixing_ratio(
            params, ds.rows(i), int(ds.labels[i]), cfg["sigma"],
            cfg["pgd_steps"], cfg["pgd_eps"], cfg["estimation_m"],
            root.child("mixratio", i))

    rows = map_streams(mixing_ratio, range(count))
    path = os.path.join(out_dir, "mixratio.csv")
    write_mixratio_csv(path, rows)
    return {"mixratio_csv": path}


def _cmd_theory_sim(cfg: dict, out_dir: str) -> dict:
    if not cfg["families"]:
        raise ConfigError("families must name at least one noise family")
    if repeated := _repeated(cfg["families"]):
        # a family's stream is root.child(family): a repeat is an identical row
        raise ConfigError(f"families repeat {', '.join(repeated)}")
    with _config_values():
        # d=1 is a placeholder: verify_decay runs the config at each of dims
        sims = [TheorySimConfig(d=1, sigma=cfg["sigma"], tau=cfg["tau"],
                                epsilon=cfg["epsilon"], p=cfg["p"],
                                noise_family=family, trials=cfg["trials"])
                for family in cfg["families"]]
        for sim in sims:
            decay_dims(sim, cfg["dims"])
        root = StreamId(cfg["seed"])
    reports = [verify_decay(sim, cfg["dims"], root.child(sim.noise_family))
               for sim in sims]
    path = os.path.join(out_dir, "theory.csv")
    write_theory_csv(path, reports)
    return {"theory_csv": path}


# Each subcommand, and the modules of _LAZY that it runs.
_DISPATCH = {
    "train": (_cmd_train, ("nn", "rng", "training")),
    "certify": (_cmd_certify, ("nn", "rng", "smoothing")),
    "evaluate": (_cmd_evaluate, ()),
    "attack-demo": (_cmd_attack_demo, ("adversary", "nn", "rng", "smoothing")),
    "mixratio": (_cmd_mixratio, ("nn", "rng")),
    "theory-sim": (_cmd_theory_sim, ("rng", "theory")),
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
        if "seed" in SCHEMAS[name]:
            sp.add_argument("--seed", type=int, default=None,
                            help="override the config master seed")
    return parser


def _set_allocator_policy() -> None:
    """Apply the thresholds above through glibc's mallopt; elsewhere, nothing."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, MALLOC_MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, MALLOC_TRIM_THRESHOLD)


def main(argv=None) -> int:
    _set_allocator_policy()
    args = build_parser().parse_args(argv)
    try:
        raw = load_config(args.config)
        cfg = apply_schema(raw, SCHEMAS[args.command])
        if getattr(args, "seed", None) is not None:
            cfg["seed"] = args.seed
        out_dir = args.out or os.environ.get("SMOOTHCERT_OUT", ".")
        os.makedirs(out_dir, exist_ok=True)
        run, modules = _DISPATCH[args.command]
        t0 = time.perf_counter()
        bind(globals(), _LAZY, *modules)
        artifacts = run(cfg, out_dir)
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
