"""Command-line harness: train, certify, evaluate, attack-demo, mixratio,
theory-sim.

Every run reads one flat key-value config (--config), writes its artifacts
under --out (default: $SMOOTHCERT_OUT or the working directory; the output
directory is the only environment override), and drops a manifest.json
recording the config snapshot, artifact paths, timings and, for a run that
reads a dataset, digests of its inputs. This module is
the one that knows the artifact formats: every CSV goes through _write_csv,
and certify.csv is read back here. All randomness fans out from the master
seed through named substreams, so the pair (config, seed) determines every
artifact byte-for-byte except the manifest's timings, whatever the CPU count.
rng.map_streams runs mixratio points, certify points at n >
smoothing.POOL_MIN_DRAWS and uniform_pm and rademacher theory stages on one
thread per CPU (at most two), each on its own substream; gaussian stages and
smaller certify points run one at a time.

main first sets the process policy: glibc's allocator settings
(_set_allocator_policy) and CPython's built-in SHA-256 (_set_hash_policy).

Exit codes: 0 success, 2 config error, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
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
    load_config,
)
from .evaluation import CertifiedResultSet, CertifyOutcome, acr, certified_accuracy_curve

__all__ = ["main"]

# What the subcommands run from the modules that need numpy (evaluation,
# all that `evaluate` runs, imports none). The dispatcher imports the modules
# a subcommand runs (_DISPATCH) and binds their names here, so `import
# smoothcert.cli`, --version, a config error and `evaluate` load no numpy.
# A name bound already, as a test or a tracer rebinds it, keeps its value.
_LAZY = {
    "adversary": ("AttackConfig", "attack_trajectory", "equal_confidence_mixing_ratio"),
    "nn": ("load_checkpoint", "save_checkpoint"),
    "rng": ("StreamId", "map_streams"),
    "smoothing": ("POOL_MIN_DRAWS", "certify", "noise_factor", "sample_noise"),
    "theory": ("TheorySimConfig", "decay_dims", "verify_decay"),
    "training": ("train",),
}
__getattr__ = module_getattr(globals(), _LAZY)

# glibc allocator policy, set by main. At glibc's defaults a block of 128 KiB
# or more gets its own mmap and a freed heap top above 128 KiB goes back to
# the kernel, so every row chunk of a hot loop (250 KiB at 500 x 64, 1,000
# KiB at 500 x 256, theory-sim's 512 KiB stage buffer) is faulted in again
# page by page. 4 MiB keeps those chunks on the heap.
# A SmoothMix step at 784-256-256-10 (B = 100, m = 4, T = 4) frees about
# 7.3 MiB when it ends (tracemalloc: 12.0 MiB at its peak, 4.7 MiB held
# between steps), so the heap keeps up to 32 MiB free at its top rather
# than giving it back and faulting it in again at the next step.
# One arena: the map_streams pool threads allocate from the main heap and reuse
# the chunks earlier phases freed there, rather than each growing a heap.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD, _M_ARENA_MAX = -1, -3, -8  # mallopt parameters
MALLOC_MMAP_THRESHOLD = 4 << 20
MALLOC_TRIM_THRESHOLD = 32 << 20
MALLOC_ARENA_MAX = 1

# Hash policy, set by main: SHA-256 from CPython's built-in _sha256, which
# gives OpenSSL's digests, so that numpy.random's import of secrets, hmac and
# hashlib does not load libcrypto (3.4 MiB of peak RSS). A None entry in
# sys.modules blocks _hashlib; hashlib and hmac fall back to their built-ins.
# Bulk hashing is slower: 2 MiB in 8-9 ms against 1.5 ms with SHA-NI. A
# process that has imported hashlib already keeps OpenSSL.

PROC_STATUS = "/proc/self/status"  # where _peak_rss_mib reads VmHWM (Linux)
CERT_CSV_COLUMNS = ["idx", "label", "predicted", "radius", "p_lower",
                    "correct", "abstain"]


def _write_csv(path, header, rows) -> None:
    """Every CSV artifact: ASCII, the csv module's quoting, CRLF line ends."""
    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_certification_csv(path, rows) -> None:
    """certify.csv from the rows _cmd_certify formats; each point's wall time
    goes to the manifest's timings, so this file is reproducible."""
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
            raise ValueError(f"{path}: certification CSV header is {header}, "
                             f"expected {CERT_CSV_COLUMNS}")
        for row in filter(None, reader):
            try:
                _, label, predicted, radius, p_lower, correct, abstain = row
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


def _peak_rss_mib():
    """This process's peak RSS in MiB: VmHWM (kB) from PROC_STATUS, else
    getrusage's ru_maxrss (which Linux starts at the spawner's RSS), else None."""
    try:
        with open(PROC_STATUS, encoding="ascii") as fh:
            return next(int(ln.split()[1]) for ln in fh if ln.startswith("VmHWM:")) / 1024
    except (OSError, StopIteration):
        try:
            import resource
        except ImportError:
            return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (1 << 20 if sys.platform == "darwin" else 1024)


def _input_digests(ds, meta=None) -> dict:
    """A manifest's inputs: the sha256 of the dataset's rows as held (uint8
    codes, or little-endian float64) and of its labels as little-endian
    int64, and with meta the loaded checkpoint's verified payload sha256."""
    import hashlib  # here, after main's hash policy

    import numpy as np

    rows = np.ascontiguousarray(ds.inputs, ds.inputs.dtype.newbyteorder("<"))
    inputs = {"rows_sha256": hashlib.sha256(rows).hexdigest(),
              "labels_sha256": hashlib.sha256(
                  np.ascontiguousarray(ds.labels, "<i8")).hexdigest()}
    if meta is not None:
        inputs["checkpoint_sha256"] = meta["sha256"]
    return inputs


def _write_manifest(out_dir: str, command: str, cfg: dict, fields: dict,
                    seconds: float) -> str:
    """manifest.json; its run_id hashes the command, config and version.
    fields, from the subcommand, holds its artifacts and, where it has them,
    its inputs and its timings, which gain the run's total and peak."""
    config = {k: list(v) if isinstance(v, tuple) else v
              for k, v in sorted(cfg.items())}
    run = {"command": command, "config": config, "version": __version__}
    import hashlib  # here, after main's hash policy
    run_id = hashlib.sha256(json.dumps(run, sort_keys=True).encode()).hexdigest()[:16]
    timings = dict(fields.get("timings", {}), total_seconds=round(seconds, 4),
                   peak_rss_mib=_peak_rss_mib())
    obj = {**run, **fields, "format": "smoothcert.manifest", "run_id": run_id,
           "timings": timings}
    path = os.path.join(out_dir, "manifest.json")
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


def _cmd_train(cfg: dict, out_dir: str) -> dict:
    with _config_values():
        run_cfg, method_cfg = build_train_configs(cfg)
    ds = build_dataset(cfg, "train")
    params, log_rows = train(ds, run_cfg, method_cfg)
    ckpt = os.path.join(out_dir, "checkpoint.json")
    save_checkpoint(ckpt, params,
                    init_stream=StreamId(run_cfg.seed).child("init"))
    log_path = os.path.join(out_dir, "train_log.csv")
    _write_csv(log_path, ["epoch", "loss_nat", "loss_mix", "lr"],
               [[r["epoch"], f"{r['loss_nat']:.12g}", f"{r['loss_mix']:.12g}",
                 f"{r['lr']:.12g}"] for r in log_rows])
    return {"artifacts": {"checkpoint": ckpt, "train_log": log_path},
            "inputs": _input_digests(ds),
            "timings": {"epoch_seconds": [round(r["seconds"], 4) for r in log_rows]}}


def _cmd_certify(cfg: dict, out_dir: str) -> dict:
    with _config_values():
        scfg = build_smoothing_config(cfg)
    ds = build_dataset(cfg, "test")
    if not len(ds):
        raise ValueError("dataset is empty")
    params, meta = load_checkpoint(cfg["checkpoint"])
    root = StreamId(cfg["seed"])
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
                int(not outcome.certified)], round(seconds, 4)

    rows, point_seconds = zip(*map_streams(certify_one, range(count),
                                           pooled=scfg.n > POOL_MIN_DRAWS))
    path = os.path.join(out_dir, "certify.csv")
    write_certification_csv(path, rows)
    return {"artifacts": {"certify_csv": path}, "inputs": _input_digests(ds, meta),
            "timings": {"point_seconds": list(point_seconds)}}


def _cmd_evaluate(cfg: dict, out_dir: str) -> dict:
    paths, ids, radii = cfg["cert_csv"], cfg["model_ids"], cfg["radii"]
    if ids and len(ids) != len(paths):
        raise ConfigError("model_ids must match cert_csv in length")
    if any(b < a for a, b in zip(radii, radii[1:])):
        raise ConfigError("radii thresholds must be nondecreasing")
    key = "model_ids"
    if not ids:
        key, ids = "cert_csv", tuple(os.path.splitext(os.path.basename(p))[0]
                                     for p in paths)
    if bad := [x for x in ids if not x.isascii()]:
        raise ConfigError(f"key {key!r}: model id {ascii(bad[0])} is not ASCII, "
                          "as metrics.csv is")
    if repeated := sorted({x for x in ids if ids.count(x) > 1}):
        raise ConfigError(f"model ids repeat ({', '.join(repeated)}); "
                          "give each cert_csv its own name in model_ids")
    # sigma is recorded in the manifest; the metrics read only the CSVs
    model_results = [(model_id, read_certification_csv(p, cfg["sigma"]))
                     for model_id, p in zip(ids, paths)]
    path = os.path.join(out_dir, "metrics.csv")
    write_metrics_csv(path, model_results, radii)
    return {"artifacts": {"metrics_csv": path}}


def _cmd_attack_demo(cfg: dict, out_dir: str) -> dict:
    import numpy as np

    with _config_values():
        acfg = AttackConfig(alpha_step=cfg["alpha_step"], steps=cfg["steps"],
                            epsilon_cap=cfg["epsilon_cap"] or None)
    ds = build_dataset(cfg, "test")
    i = cfg["point_index"]
    if i >= len(ds):
        raise ConfigError(f"point_index {i} outside dataset of size {len(ds)}")
    params, meta = load_checkpoint(cfg["checkpoint"])
    x, y = ds.rows(i), int(ds.labels[i])
    noise = sample_noise(cfg["sigma"], ds.dim, cfg["m"],
                         StreamId(cfg["seed"]).child("attack", i, "noise"))
    points, fhat_path, j_path = attack_trajectory(params, x, y, noise, acfg)
    path = os.path.join(out_dir, "attack_demo.csv")
    _write_csv(path, ["step", "distance_from_x", "J", "true_class_prob"],
               [[s, f"{float(np.linalg.norm(points[s] - x)):.8g}",
                 f"{j_path[s]:.8g}", f"{fhat_path[s, y]:.8g}"]
                for s in range(len(points))])
    return {"artifacts": {"trajectory_csv": path}, "inputs": _input_digests(ds, meta)}


def _cmd_mixratio(cfg: dict, out_dir: str) -> dict:
    ds = build_dataset(cfg, "test")
    if not len(ds):
        raise ValueError("dataset is empty")
    params, meta = load_checkpoint(cfg["checkpoint"])
    root = StreamId(cfg["seed"])
    count = min(cfg["points"], len(ds))

    def mixing_ratio(i):
        return i, equal_confidence_mixing_ratio(
            params, ds.rows(i), int(ds.labels[i]), cfg["sigma"],
            cfg["pgd_steps"], cfg["pgd_eps"], cfg["estimation_m"],
            root.child("mixratio", i))

    rows = map_streams(mixing_ratio, range(count))
    path = os.path.join(out_dir, "mixratio.csv")
    write_mixratio_csv(path, rows)
    return {"artifacts": {"mixratio_csv": path}, "inputs": _input_digests(ds, meta)}


def _cmd_theory_sim(cfg: dict, out_dir: str) -> dict:
    with _config_values():
        # d=1 is a placeholder: verify_decay runs the config at each of dims
        sims = [TheorySimConfig(d=1, sigma=cfg["sigma"], tau=cfg["tau"],
                                epsilon=cfg["epsilon"], p=cfg["p"],
                                noise_family=family, trials=cfg["trials"])
                for family in cfg["families"]]
        for sim in sims:
            decay_dims(sim, cfg["dims"])
    root = StreamId(cfg["seed"])
    # the schema keeps families distinct: a repeat would draw the same stream
    reports = [verify_decay(sim, cfg["dims"], root.child(sim.noise_family))
               for sim in sims]
    path = os.path.join(out_dir, "theory.csv")
    write_theory_csv(path, reports)
    return {"artifacts": {"theory_csv": path}}


# Each subcommand: its function, the modules of _LAZY that it runs and its
# help line. A subcommand returns its manifest's fields: artifacts, and
# inputs and timings where it has them.
_DISPATCH = {
    "train": (_cmd_train, ("nn", "rng", "training"),
              "train a model (gaussian / smoothadv / smoothmix)"),
    "certify": (_cmd_certify, ("nn", "rng", "smoothing"),
                "certify a checkpoint over a test set, one CSV row per point"),
    "evaluate": (_cmd_evaluate, (),
                 "aggregate certification CSVs into ACR and accuracy curves"),
    "attack-demo": (_cmd_attack_demo, ("adversary", "nn", "rng", "smoothing"),
                    "dump one attack trajectory as CSV"),
    "mixratio": (_cmd_mixratio, ("adversary", "nn", "rng"),
                 "equal-confidence mixing ratios over test points"),
    "theory-sim": (_cmd_theory_sim, ("rng", "theory"),
                   "Monte Carlo check of the C/d decay bound"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smoothcert",
        description="certified-robustness trainer and evaluation harness")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, _, help_line) in _DISPATCH.items():
        sp = sub.add_parser(name, help=help_line)
        sp.add_argument("--config", required=True, help="flat key=value config file")
        sp.add_argument("--out", default=None,
                        help="output directory (default $SMOOTHCERT_OUT or .)")
        if "seed" in SCHEMAS[name]:
            sp.add_argument("--seed", type=int, default=None,
                            help="override the config master seed")
    return parser


def _set_allocator_policy() -> None:
    """Apply the settings above through glibc's mallopt; elsewhere, nothing."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, MALLOC_MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, MALLOC_TRIM_THRESHOLD)
    mallopt(_M_ARENA_MAX, MALLOC_ARENA_MAX)


def _set_hash_policy() -> None:
    """Block _hashlib, as above, unless hashlib is loaded already."""
    if "hashlib" not in sys.modules:
        sys.modules.setdefault("_hashlib", None)


def main(argv=None) -> int:
    _set_allocator_policy()
    _set_hash_policy()
    args = build_parser().parse_args(argv)
    try:
        raw = load_config(args.config)
        if getattr(args, "seed", None) is not None:
            raw["seed"] = str(args.seed)
        cfg = apply_schema(raw, SCHEMAS[args.command])
        out_dir = args.out or os.environ.get("SMOOTHCERT_OUT", ".")
        os.makedirs(out_dir, exist_ok=True)
        run, modules, _ = _DISPATCH[args.command]
        t0 = time.perf_counter()
        bind(globals(), _LAZY, *modules)
        fields = run(cfg, out_dir)
        manifest = _write_manifest(out_dir, args.command, cfg, fields,
                                   time.perf_counter() - t0)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - single runtime-failure boundary
        print(f"error: {exc}", file=sys.stderr)
        return 3
    for name, p in fields["artifacts"].items():
        print(f"{name}: {p}")
    print(f"manifest: {manifest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
