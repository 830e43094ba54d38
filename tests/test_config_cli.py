import concurrent.futures
import csv
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import threading

import numpy as np
import pytest

from idx_files import write_idx_pair, write_mnist_shape_pair
import smoothcert.cli as cli
import smoothcert.smoothing as smoothing
import smoothcert.training as training
from smoothcert.cli import CERT_CSV_COLUMNS, main
from smoothcert.config import (
    ATTACK_DEMO_SCHEMA,
    CERTIFY_SCHEMA,
    ConfigError,
    EVALUATE_SCHEMA,
    SCHEMAS,
    TRAIN_SCHEMA,
    apply_schema,
    build_dataset,
    build_smoothing_config,
    build_train_configs,
    load_config,
    parse_config_text,
)
from smoothcert.data import gen_two_moons, stratified_subsample_indices
from smoothcert.nn import init_mlp, load_checkpoint, save_checkpoint
from smoothcert.rng import StreamId
from smoothcert.smoothing import certify
from smoothcert.training import GaussianConfig, SmoothAdvConfig, SmoothMixConfig

TRAIN_CFG = """
# tiny smoke model
method = gaussian
sigma = 0.5
epochs = 2
batch_size = 10
lr = 0.05
seed = 3
dataset.kind = two_moons
dataset.n = 20
dataset.noise_std = 0.1
dataset.seed = 1
"""


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def _certify_cfg(ckpt, extra=""):
    return f"""
checkpoint = {ckpt}
sigma = 0.5
n0 = 20
n = 50
alpha_cert = 0.01
seed = 4
dataset.kind = two_moons
dataset.n = 6
dataset.noise_std = 0.1
dataset.seed = 2
{extra}
"""


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    out = tmp_path_factory.mktemp("train_out")
    cfg = _write(out / "train.cfg", TRAIN_CFG)
    assert main(["train", "--config", cfg, "--out", str(out)]) == 0
    return out


def _read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


# ---------------------------------------------------------------- parsing


def test_parse_config_text_basics():
    raw = parse_config_text(
        "a = 1\n\n# comment\nb = x = y  # trailing\n  c=  7 ")
    assert raw == {"a": "1", "b": "x = y", "c": "7"}


def test_parse_config_text_errors():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config_text("a = 1\nnot a pair")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text("a = 1\na = 2")
    with pytest.raises(ConfigError, match="empty key"):
        parse_config_text("= 5")


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "nope.cfg")


def test_apply_schema_types_and_defaults():
    raw = {
        "cert_csv": "a.csv, b.csv",
        "radii": "0.0, 0.5,1.5",
        "sigma": "0.25",
    }
    cfg = apply_schema(raw, EVALUATE_SCHEMA)
    assert cfg["cert_csv"] == ("a.csv", "b.csv")
    assert cfg["radii"] == (0.0, 0.5, 1.5)
    assert cfg["model_ids"] == ()  # default


def test_apply_schema_rejections():
    with pytest.raises(ConfigError, match="unknown config keys: bogus"):
        apply_schema({"bogus": "1"}, EVALUATE_SCHEMA)
    with pytest.raises(ConfigError, match="missing required"):
        apply_schema({"cert_csv": "a.csv", "radii": "0"}, EVALUATE_SCHEMA)
    with pytest.raises(ConfigError, match="cannot parse"):
        apply_schema({"checkpoint": "c", "sigma": "abc"}, CERTIFY_SCHEMA)
    with pytest.raises(ConfigError, match="not finite"):
        apply_schema({"checkpoint": "c", "sigma": "inf",
                      "dataset.kind": "two_moons"}, CERTIFY_SCHEMA)
    with pytest.raises(ConfigError, match="not one of"):
        apply_schema({"method": "fgsm", "sigma": "0.5", "epochs": "1",
                      "batch_size": "1", "lr": "0.1",
                      "dataset.kind": "two_moons"}, TRAIN_SCHEMA)
    with pytest.raises(ConfigError, match="true or false"):
        apply_schema({"method": "smoothmix", "sigma": "0.5", "epochs": "1",
                      "batch_size": "1", "lr": "0.1", "use_one_step": "1",
                      "dataset.kind": "two_moons"}, TRAIN_SCHEMA)


# ---------------------------------------------------------------- builders


def _train_raw(**over):
    raw = {"method": "gaussian", "sigma": "0.5", "epochs": "2",
           "batch_size": "8", "lr": "0.1", "dataset.kind": "two_moons",
           "dataset.n": "10"}
    raw.update({k: str(v) for k, v in over.items()})
    return raw


def test_build_dataset_kinds_and_split_defaulting():
    cfg = apply_schema(_train_raw(), TRAIN_SCHEMA)
    ds = build_dataset(cfg, "train")
    assert ds.split == "train" and len(ds) == 10
    cfg2 = apply_schema(_train_raw(**{"dataset.split": "test"}), TRAIN_SCHEMA)
    assert build_dataset(cfg2, "train").split == "test"


def test_build_dataset_validation():
    with pytest.raises(ConfigError, match="dataset.n"):
        build_dataset(apply_schema(_train_raw(**{"dataset.n": "1"}),
                                   TRAIN_SCHEMA), "train")
    raw = _train_raw(**{"dataset.noise_std": "-0.5"})
    with pytest.raises(ConfigError, match="noise_std"):
        build_dataset(apply_schema(raw, TRAIN_SCHEMA), "train")
    raw = _train_raw(**{"dataset.kind": "mnist"})
    with pytest.raises(ConfigError, match="mnist"):
        build_dataset(apply_schema(raw, TRAIN_SCHEMA), "train")


def test_build_train_configs_per_method():
    run, mcfg = build_train_configs(apply_schema(_train_raw(), TRAIN_SCHEMA))
    assert isinstance(mcfg, GaussianConfig) and run.method == "gaussian"

    raw = _train_raw(method="smoothadv", adv_epsilon="0.8", adv_steps="2",
                     warmup_epochs="5", m="2")
    _, mcfg = build_train_configs(apply_schema(raw, TRAIN_SCHEMA))
    assert isinstance(mcfg, SmoothAdvConfig)
    assert mcfg.epsilon == 0.8 and mcfg.warmup_epochs == 5

    raw = _train_raw(method="smoothmix", eta="4.0", alpha_step="0.5",
                     attack_steps="2", m="2", use_one_step="true")
    _, mcfg = build_train_configs(apply_schema(raw, TRAIN_SCHEMA))
    assert isinstance(mcfg, SmoothMixConfig)
    assert mcfg.eta == 4.0 and mcfg.attack.steps == 2 and mcfg.use_one_step
    assert mcfg.one_step_cap is None  # 0 disables the cap

    with pytest.raises(ValueError, match="eta > 0"):
        build_train_configs(
            apply_schema(_train_raw(method="smoothmix"), TRAIN_SCHEMA))


def test_train_schema_names_the_method_table():
    # config loads without training (and numpy), so TRAIN_SCHEMA repeats the
    # names of training.METHODS; each name builds its config class there
    assert TRAIN_SCHEMA["method"].choices == tuple(training.METHODS)
    for method, cls in training.METHODS.items():
        run, mcfg = build_train_configs(apply_schema(_train_raw(method=method, eta=1.0),
                                                     TRAIN_SCHEMA))
        assert run.method == method and type(mcfg) is cls


def test_build_smoothing_config():
    raw = {"checkpoint": "c.json", "sigma": "0.25", "n0": "50", "n": "200",
           "alpha_cert": "0.01", "dataset.kind": "two_moons",
           "dataset.n": "4"}
    scfg = build_smoothing_config(apply_schema(raw, CERTIFY_SCHEMA))
    assert (scfg.sigma, scfg.n0, scfg.n, scfg.alpha_cert) == (0.25, 50, 200, 0.01)


# ---------------------------------------------------------------- cli basics


def test_cli_usage_errors():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate", "--config", "x"])
    assert exc.value.code == 2


def test_cli_missing_config_file(tmp_path):
    assert main(["train", "--config", str(tmp_path / "no.cfg")]) == 2


def test_cli_unknown_key_exits_2(tmp_path):
    cfg = _write(tmp_path / "bad.cfg", TRAIN_CFG + "\nbogus_key = 1\n")
    assert main(["train", "--config", cfg, "--out", str(tmp_path)]) == 2


def test_cli_bad_workers_exits_2(tmp_path, trained):
    # the pool width is the CPU count, so --workers is no longer a flag
    cfg = _write(tmp_path / "c.cfg",
                 _certify_cfg(trained / "checkpoint.json"))
    with pytest.raises(SystemExit) as exc:
        main(["certify", "--config", cfg, "--out", str(tmp_path),
              "--workers", "0"])
    assert exc.value.code == 2


def test_cli_missing_checkpoint_exits_3(tmp_path):
    cfg = _write(tmp_path / "c.cfg", _certify_cfg(tmp_path / "absent.json"))
    assert main(["certify", "--config", cfg, "--out", str(tmp_path)]) == 3


def test_cli_point_index_out_of_bounds_exits_2(tmp_path, trained):
    cfg = _write(tmp_path / "a.cfg", f"""
checkpoint = {trained / 'checkpoint.json'}
sigma = 0.5
alpha_step = 0.5
steps = 2
point_index = 99
dataset.kind = two_moons
dataset.n = 6
""")
    assert main(["attack-demo", "--config", cfg, "--out", str(tmp_path)]) == 2


# Every path below is absent, so each case must fail before any file is read.
MIXRATIO_CFG = ("checkpoint = absent.json\nsigma = 0.5\ndataset.kind = two_moons\n"
                "dataset.n = 6\n")
ATTACK_CFG = ("checkpoint = absent.json\nsigma = 0.5\nalpha_step = 0.5\n"
              "steps = 2\ndataset.kind = two_moons\ndataset.n = 6\n")
ABSENT_IDX = ("dataset.kind = mnist\ndataset.images = absent-images\n"
              "dataset.labels = absent-labels\n")
ABSENT_MNIST = ABSENT_IDX + "dataset.subsample = -3\n"


@pytest.mark.parametrize("command, text, message", [
    ("train", TRAIN_CFG.replace("sigma = 0.5", "sigma = -0.5"),
     "need sigma > 0 and m >= 1"),
    ("certify", _certify_cfg("absent.json").replace("n0 = 20", "n0 = 100"),
     "need n >= n0 >= 1"),
    ("attack-demo", ATTACK_CFG + "epsilon_cap = -1\n",
     "epsilon_cap, when set, must be positive"),
    ("theory-sim", "tau = 1.0\n", "sigma must differ from tau"),
    ("theory-sim", "dims = 8, 64\n", "below the d-threshold"),
    ("theory-sim", "dims =\n", "dims must be a nonempty increasing sequence"),
    ("train", TRAIN_CFG.replace("method = gaussian", "method = smoothmix"),
     "eta > 0"),
    ("train", "method = gaussian\nsigma = 0.5\nepochs = 1\nbatch_size = 1\n"
     "lr = 0.1\n" + ABSENT_MNIST, "key 'dataset.subsample'"),
    ("certify", "checkpoint = absent.json\nsigma = 0.5\n" + ABSENT_MNIST,
     "key 'dataset.subsample'"),
    ("attack-demo", ATTACK_CFG.replace("sigma = 0.5", "sigma = -1"),
     "key 'sigma'"),
    ("attack-demo", ATTACK_CFG + "m = 0\n", "key 'm'"),
    ("mixratio", MIXRATIO_CFG.replace("sigma = 0.5", "sigma = -1"),
     "key 'sigma'"),
    ("mixratio", MIXRATIO_CFG + "pgd_steps = -1\n", "key 'pgd_steps'"),
    ("mixratio", MIXRATIO_CFG + "pgd_eps = 0\n", "key 'pgd_eps'"),
    ("mixratio", MIXRATIO_CFG + "estimation_m = 0\n", "key 'estimation_m'"),
    ("mixratio", MIXRATIO_CFG + "points = -4\n", "key 'points'"),
    ("mixratio", MIXRATIO_CFG.replace("dataset.n = 6", "dataset.n = 1"),
     "dataset.n must be >= 2"),
    ("evaluate", "cert_csv = absent.csv\nradii = 0.5, 0.25\nsigma = 0.5\n",
     "radii thresholds must be nondecreasing"),
    ("evaluate", "cert_csv =\nradii = 0.5\nsigma = 0.5\n", "key 'cert_csv'"),
    ("theory-sim", "families =\n", "key 'families'"),
    ("evaluate", "cert_csv = absent.csv\nradii = 0.0, nan, inf\nsigma = 0.5\n",
     "as float_list (not finite)"),
    ("evaluate", "cert_csv = absent.csv\nradii = 0.0, -inf\nsigma = 0.5\n",
     "as float_list (not finite)"),
    ("certify", _certify_cfg("absent.json").replace("dataset.noise_std = 0.1",
                                                    "dataset.noise_std = -0.1"),
     "key 'dataset.noise_std'"),
    ("mixratio", MIXRATIO_CFG + "dataset.noise_std = -1\n",
     "key 'dataset.noise_std'"),
    ("certify", _certify_cfg("absent.json", "max_points = -1"),
     "key 'max_points'"),
    ("train", TRAIN_CFG + "lr_milestones = 1\nlr_gamma = -1\n", "lr_gamma >= 0"),
    ("evaluate", "cert_csv = absent.csv\nradii = 0.5\nsigma = -2\n",
     "key 'sigma'"),
    ("evaluate", "cert_csv = absent.csv\nradii = 0.5\nsigma = 0\n",
     "key 'sigma'"),
    ("evaluate", "cert_csv = absent.csv\nradii = -1, 0.5\nsigma = 0.5\n",
     "key 'radii'"),
    ("mixratio", MIXRATIO_CFG.replace("two_moons", "blobs"),
     "'blobs' not one of ('two_moons', 'mnist')"),
    ("mixratio", MIXRATIO_CFG + "dataset.classes = 2\n",
     "unknown config keys: dataset.classes"),
    # both families would draw from one stream and write the same rows
    ("theory-sim", "families = uniform_pm, gaussian, uniform_pm\ndims = 16, 32\n"
     "trials = 10\n", "key 'families': repeats uniform_pm"),
    ("evaluate", "cert_csv = a.csv, b.csv\nmodel_ids = m, m\nradii = 0.5\nsigma = 0.5\n",
     "model ids repeat (m); give each cert_csv its own name in model_ids"),
    # without model_ids, both files are named by their stem, certify
    ("evaluate", "cert_csv = a/certify.csv, b/certify.csv\nradii = 0.5\nsigma = 0.5\n",
     "model ids repeat (certify); give each cert_csv its own name in model_ids"),
    # a negative seed, from the config or from --seed, is refused by the
    # schema, before the dataset or the checkpoint is read
    ("train", "method = gaussian\nsigma = 0.5\nepochs = 1\nbatch_size = 1\nlr = 0.1\n"
     "seed = -1\n" + ABSENT_IDX, "key 'seed': must be >= 0, got -1"),
    ("certify", "checkpoint = absent.json\nsigma = 0.5\nseed = -1\n" + ABSENT_IDX,
     "key 'seed': must be >= 0, got -1"),
    ("certify --seed -5", "checkpoint = absent.json\nsigma = 0.5\n" + ABSENT_IDX,
     "key 'seed': must be >= 0, got -5"),
    ("attack-demo", ATTACK_CFG + "seed = -1\n", "key 'seed': must be >= 0, got -1"),
    ("mixratio", MIXRATIO_CFG + "dataset.seed = -2\n", "key 'dataset.seed'"),
    ("theory-sim", "seed = -1\n", "key 'seed': must be >= 0, got -1"),
    # a milestone at epoch 0 or below only rescales lr
    ("train", "method = gaussian\nsigma = 0.5\nepochs = 1\nbatch_size = 1\nlr = 0.1\n"
     "lr_milestones = -5, 1\n" + ABSENT_IDX, "lr_milestones must be strictly increasing and >= 1"),
    ("attack-demo", ATTACK_CFG + "point_index = -1\n", "key 'point_index'"),
    # metrics.csv is ASCII: an id it cannot hold is refused before any read
    ("evaluate", "cert_csv = absent.csv\nmodel_ids = mod\u00e8le\nradii = 0.5\n"
     "sigma = 0.5\n", "key 'model_ids': model id 'mod\\xe8le' is not ASCII"),
    ("evaluate", "cert_csv = caf\u00e9.csv\nradii = 0.5\nsigma = 0.5\n",
     "key 'cert_csv': model id 'caf\\xe9' is not ASCII"),
], ids=["train", "certify", "attack-demo", "theory-sim-tau", "theory-sim-dims",
        "theory-sim-empty-dims", "train-eta", "train-subsample",
        "certify-subsample", "attack-demo-sigma", "attack-demo-m",
        "mixratio-sigma", "mixratio-pgd-steps", "mixratio-pgd-eps",
        "mixratio-estimation-m", "mixratio-points", "mixratio-dataset-n",
        "evaluate-radii", "evaluate-empty-cert-csv", "theory-sim-empty-families",
        "evaluate-nonfinite-radii", "evaluate-negative-inf-radius",
        "certify-negative-noise-std", "mixratio-negative-noise-std",
        "certify-negative-max-points", "train-negative-lr-gamma",
        "evaluate-negative-sigma", "evaluate-zero-sigma", "evaluate-negative-radius",
        "mixratio-blobs-kind", "mixratio-blobs-classes", "theory-sim-repeated-family",
        "evaluate-repeated-model-ids", "evaluate-repeated-file-stems",
        "train-negative-seed", "certify-negative-seed", "certify-negative-seed-flag",
        "attack-demo-negative-seed", "mixratio-negative-dataset-seed",
        "theory-sim-negative-seed", "train-negative-milestone",
        "attack-demo-negative-point-index", "evaluate-non-ascii-model-id",
        "evaluate-non-ascii-file-stem"])
def test_cli_bad_config_value_exits_2(tmp_path, capsys, command, text, message):
    # a value the config checks reject is a config error, reported before
    # any checkpoint, dataset or certification CSV is read and before any
    # artifact is written; command may carry flags after the subcommand
    cfg = _write(tmp_path / "bad.cfg", text)
    command, *flags = command.split()
    assert main([command, "--config", cfg, "--out", str(tmp_path), *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err
    assert os.listdir(tmp_path) == ["bad.cfg"]


# A valid config of each subcommand, every input path absent; a subcommand
# with a dataset block is walked once with each dataset kind.
WALK_BASES = {
    "train": "method = gaussian\nsigma = 0.5\nepochs = 1\nbatch_size = 1\nlr = 0.1\n",
    "certify": "checkpoint = absent.json\nsigma = 0.5\n",
    "evaluate": "cert_csv = absent.csv\nradii = 0.5\nsigma = 0.5\n",
    "attack-demo": "checkpoint = absent.json\nsigma = 0.5\nalpha_step = 0.5\nsteps = 2\n",
    "mixratio": "checkpoint = absent.json\nsigma = 0.5\n",
    "theory-sim": "",
}
WALK_DATASETS = {"two_moons": "dataset.kind = two_moons\ndataset.n = 6\n",
                 "mnist": ABSENT_IDX}


def _bound_cases():
    """(command, dataset kind, key, bound, value just outside, value at the
    bound) for every bound of every schema."""
    cases = []
    for command, schema in SCHEMAS.items():
        kinds = WALK_DATASETS if "dataset.kind" in schema else {"": ""}
        for kind, block in kinds.items():
            raw = parse_config_text(WALK_BASES[command] + block)
            for key, field in schema.items():
                if field.lo is not None:
                    below = field.lo - 1 if field.kind.startswith("int") \
                        else math.nextafter(field.lo, -math.inf)
                    cases.append((command, kind, key, "lo", repr(below), repr(field.lo)))
                if field.positive:
                    cases.append((command, kind, key, "positive", "0",
                                  repr(math.nextafter(0.0, math.inf))))
                if field.nonempty or field.distinct:
                    # the first entry of the list's base or default value
                    first = (raw.get(key) or ", ".join(field.default)).split(",")[0]
                if field.nonempty:
                    cases.append((command, kind, key, "nonempty", "", first))
                if field.distinct:
                    cases.append((command, kind, key, "distinct", f"{first}, {first}",
                                  ", ".join(field.default)))
    return cases


BOUND_CASES = _bound_cases()


def test_schema_bounds_are_declared_where_the_contract_says():
    bounds = {(command, key, bound) for command, _, key, bound, _, _ in BOUND_CASES}
    dataset = {(command, key, "lo") for command in ("train", "certify", "attack-demo", "mixratio")
               for key in ("dataset.seed", "dataset.noise_std", "dataset.subsample")}
    seed = {(command, "seed", "lo") for command in ("train", "certify", "attack-demo",
                                                    "mixratio", "theory-sim")}
    assert bounds == dataset | seed | {
        ("certify", "max_points", "lo"),
        ("attack-demo", "sigma", "positive"), ("attack-demo", "m", "lo"),
        ("attack-demo", "point_index", "lo"),
        ("mixratio", "sigma", "positive"), ("mixratio", "pgd_eps", "positive"),
        ("mixratio", "pgd_steps", "lo"), ("mixratio", "estimation_m", "lo"),
        ("mixratio", "points", "lo"),
        ("evaluate", "cert_csv", "nonempty"), ("evaluate", "radii", "lo"),
        ("evaluate", "sigma", "positive"),
        ("theory-sim", "families", "nonempty"), ("theory-sim", "families", "distinct"),
    }


@pytest.mark.parametrize("command, kind, key, bound, outside, at", BOUND_CASES,
                         ids=["-".join(filter(None, c[:4])) for c in BOUND_CASES])
def test_every_schema_bound_exits_2_naming_its_key(tmp_path, monkeypatch, capsys, command,
                                                     kind, key, bound, outside, at):
    # just outside the bound: exit 2 from the schema, with no input file present
    monkeypatch.chdir(tmp_path)
    raw = parse_config_text(WALK_BASES[command] + WALK_DATASETS.get(kind, ""))
    cfg = _write(tmp_path / "bad.cfg", "".join(f"{k} = {v}\n" for k, v in
                                               {**raw, key: outside}.items()))
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith(f"config error: key {key!r}")
    assert os.listdir(tmp_path) == ["bad.cfg"]
    # at the bound: the schema accepts the value
    apply_schema({**raw, key: at}, SCHEMAS[command])


def test_cli_nonfinite_checkpoint_exits_3(tmp_path, capsys, trained):
    # a ValueError at run time, here from a checkpoint holding a NaN weight,
    # stays a runtime failure
    # (a well-formed file: the payload's first weight is NaN and the header
    # holds the digest of that payload)
    line, payload = (trained / "checkpoint.json").read_bytes().split(b"\n", 1)
    payload = np.array([np.nan]).astype("<f8").tobytes() + payload[8:]
    header = json.loads(line)
    header["sha256"] = hashlib.sha256(payload).hexdigest()
    ckpt = tmp_path / "nan.json"
    ckpt.write_bytes(json.dumps(header).encode() + b"\n" + payload)
    cfg = _write(tmp_path / "c.cfg", _certify_cfg(ckpt))
    assert main(["certify", "--config", cfg, "--out", str(tmp_path)]) == 3
    assert capsys.readouterr().err.startswith("error: ")


def test_diverged_train_exits_3_and_writes_no_artifact(tmp_path):
    # at lr = 1e6 the logits overflow within two epochs: train stops there,
    # naming the epoch and the minibatch, and leaves no checkpoint, log or
    # manifest behind
    cfg = _write(tmp_path / "t.cfg", TRAIN_CFG.replace("lr = 0.05", "lr = 1e6")
                 .replace("batch_size = 10", "batch_size = 50")
                 .replace("dataset.n = 20", "dataset.n = 200"))
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = tmp_path / "out"
    proc = subprocess.run([sys.executable, "-m", "smoothcert.cli", "train", "--config", cfg,
                           "--out", str(out)], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 3, proc.stderr
    assert re.search(r"^error: epoch \d+, minibatch \d+: non-finite", proc.stderr, re.M)
    assert "Warning" not in proc.stderr
    assert list(out.iterdir()) == []


@pytest.fixture(scope="module")
def overflowing(trained, tmp_path_factory):
    # every weight is finite, so the checkpoint loads, but W1 and W2 scaled
    # by 1e300 overflow the logits of every forward
    params, _ = load_checkpoint(trained / "checkpoint.json")
    params.weights[0] *= 1e300
    params.weights[1] *= 1e300
    path = tmp_path_factory.mktemp("overflow") / "checkpoint.json"
    save_checkpoint(path, params)
    return path


@pytest.mark.parametrize("command, keys", [
    ("certify", "n0 = 20\nn = 50"),
    ("mixratio", "pgd_steps = 2\nestimation_m = 20\npoints = 3"),
    ("attack-demo", "alpha_step = 0.5\nsteps = 2"),
], ids=["certify", "mixratio", "attack-demo"])
def test_overflowing_checkpoint_exits_3_and_writes_nothing(tmp_path, capsys, overflowing,
                                                           command, keys):
    # argmax read the NaN rows as votes: certify certified such a net
    cfg = _write(tmp_path / "c.cfg", f"checkpoint = {overflowing}\nsigma = 0.5\n{keys}\n"
                 "dataset.kind = two_moons\ndataset.n = 6\n")
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith("error: non-finite logits")
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("command, keys", [
    ("certify", "n0 = 20\nn = 50"),
    ("mixratio", "pgd_steps = 2\nestimation_m = 20\npoints = 3"),
], ids=["certify", "mixratio"])
def test_empty_idx_dataset_exits_3_and_writes_nothing(tmp_path, capsys, trained,
                                                      command, keys):
    # as train does: a header-only CSV would only fail later, in evaluate
    write_idx_pair(tmp_path / "images.idx", tmp_path / "labels.idx",
                   np.zeros((0, 2, 1)), [])
    cfg = _write(tmp_path / "c.cfg", f"checkpoint = {trained / 'checkpoint.json'}\n"
                 f"sigma = 0.5\n{keys}\ndataset.kind = mnist\n"
                 f"dataset.images = {tmp_path / 'images.idx'}\n"
                 f"dataset.labels = {tmp_path / 'labels.idx'}\n")
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 3
    assert capsys.readouterr().err == "error: dataset is empty\n"
    assert list(out.iterdir()) == []


# ---------------------------------------------------------------- pipeline


def test_train_writes_artifacts_and_manifest(trained):
    assert (trained / "checkpoint.json").exists()
    assert (trained / "train_log.csv").exists()
    man = json.loads((trained / "manifest.json").read_text())
    assert man["format"] == "smoothcert.manifest"
    assert man["command"] == "train"
    assert re.fullmatch(r"[0-9a-f]{16}", man["run_id"])
    assert man["config"]["method"] == "gaussian"
    for p in man["artifacts"].values():
        assert os.path.exists(p)
    assert man["timings"]["total_seconds"] >= 0
    # train loads no checkpoint; its rows are the two-moons float64 features
    ds = gen_two_moons(20, 0.1, 1)
    assert man["inputs"] == {
        "rows_sha256": hashlib.sha256(ds.inputs.astype("<f8").tobytes()).hexdigest(),
        "labels_sha256": hashlib.sha256(ds.labels.astype("<i8").tobytes()).hexdigest()}
    log = _read_rows(trained / "train_log.csv")
    assert log[0][0] == "epoch" and len(log) == 3  # header + 2 epochs


@pytest.fixture(scope="module")
def certified(tmp_path_factory, trained):
    """The certify.csv of the trained model, for evaluate."""
    out = tmp_path_factory.mktemp("cert_out")
    cfg = _write(out / "c.cfg", _certify_cfg(trained / "checkpoint.json"))
    assert main(["certify", "--config", cfg, "--out", str(out)]) == 0
    return out / "certify.csv"


def _rerun_config(command, ckpt, cert_csv):
    """A toy-sized config of command, its seed set where it has one."""
    return {
        "train": TRAIN_CFG,
        "certify": _certify_cfg(ckpt),
        "evaluate": f"cert_csv = {cert_csv}\nradii = 0.0, 0.25, 0.5\nsigma = 0.5\n",
        "attack-demo": ATTACK_CFG.replace("absent.json", str(ckpt)) + "m = 2\nseed = 8\n",
        "mixratio": MIXRATIO_CFG.replace("absent.json", str(ckpt))
        + "pgd_steps = 2\nestimation_m = 50\npoints = 4\nseed = 5\n",
        "theory-sim": "dims = 32, 64\ntrials = 2000\nseed = 1\n",
    }[command]


@pytest.mark.parametrize("command", list(SCHEMAS))
def test_rerun_is_byte_identical(tmp_path, trained, certified, command):
    # one config and seed, run twice into one directory: every CSV and
    # checkpoint keeps its bytes whole, and the manifest all but its timings
    cfg = _write(tmp_path / "run.cfg",
                 _rerun_config(command, trained / "checkpoint.json", certified))
    out, runs = tmp_path / "out", []
    for _ in range(2):
        assert main([command, "--config", cfg, "--out", str(out)]) == 0
        runs.append({p.name: p.read_bytes() for p in out.iterdir()})
    manifests = [json.loads(run.pop("manifest.json")) for run in runs]
    assert runs[0] == runs[1]
    assert sorted(runs[0]) == sorted(os.path.basename(p)
                                     for p in manifests[0]["artifacts"].values())
    timings = [m.pop("timings") for m in manifests]
    assert manifests[0] == manifests[1]
    assert timings[0].keys() == timings[1].keys()


def test_certify_schema(tmp_path, trained):
    cfg = _write(tmp_path / "c.cfg", _certify_cfg(trained / "checkpoint.json"))
    assert main(["certify", "--config", cfg, "--out", str(tmp_path)]) == 0
    rows = _read_rows(tmp_path / "certify.csv")
    assert rows[0] == CERT_CSV_COLUMNS
    assert len(rows) == 7  # header + 6 points
    # each point's wall time, in row order, is in the manifest alone
    timings = json.loads((tmp_path / "manifest.json").read_text())["timings"]
    assert len(timings["point_seconds"]) == 6
    assert all(t >= 0 for t in timings["point_seconds"])


def _set_cpus(monkeypatch, count):
    """Make rng.map_streams see `count` available CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)),
                        raising=False)


def test_certify_rows_independent_of_worker_count(tmp_path, trained, monkeypatch):
    # n > POOL_MIN_DRAWS, so the points run on the pool when CPUs allow
    cfg = _write(tmp_path / "c.cfg", _certify_cfg(trained / "checkpoint.json")
                 .replace("n = 50", f"n = {smoothing.POOL_MIN_DRAWS + 200}"))
    threads = set()

    def spying_certify(*args):
        threads.add(threading.get_ident())
        return certify(*args)

    monkeypatch.setattr(cli, "certify", spying_certify)
    outs = {}
    for width in (1, 8):
        _set_cpus(monkeypatch, width)
        threads.clear()
        outs[width] = tmp_path / f"w{width}"
        assert main(["certify", "--config", cfg, "--out", str(outs[width])]) == 0
        assert (threads == {threading.get_ident()}) == (width == 1)
    assert (outs[1] / "certify.csv").read_bytes() == (outs[8] / "certify.csv").read_bytes()


def test_certify_at_pool_threshold_starts_no_thread(tmp_path, trained, monkeypatch):
    # n <= POOL_MIN_DRAWS: threads cost more than they gain, whatever the CPUs
    def no_pool(*args, **kwargs):
        raise AssertionError("a thread pool was started")

    _set_cpus(monkeypatch, 8)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
    cfg = _write(tmp_path / "c.cfg", _certify_cfg(trained / "checkpoint.json")
                 .replace("n = 50", f"n = {smoothing.POOL_MIN_DRAWS}"))
    assert main(["certify", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert len(_read_rows(tmp_path / "certify.csv")) == 7


def test_certify_factors_w1_once_per_run(tmp_path, monkeypatch):
    # d = 16 > h1 = 4: every point draws through the QR factor of W1, and
    # the run forms it once, not once per point
    images = np.random.default_rng(3).integers(0, 256, (5, 4, 4), dtype=np.uint8)
    write_idx_pair(tmp_path / "images.idx", tmp_path / "labels.idx", images, range(5))
    save_checkpoint(str(tmp_path / "checkpoint.json"), init_mlp([16, 4, 10], StreamId(6)))
    cfg = _write(tmp_path / "c.cfg", f"""checkpoint = {tmp_path / 'checkpoint.json'}
sigma = 0.5
n0 = 20
n = 50
seed = 4
dataset.kind = mnist
dataset.images = {tmp_path / 'images.idx'}
dataset.labels = {tmp_path / 'labels.idx'}
""")
    qr, shapes = np.linalg.qr, []

    def counting_qr(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return qr(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", counting_qr)
    assert main(["certify", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    assert len(_read_rows(tmp_path / "o" / "certify.csv")) == 6  # header + 5 points
    assert shapes == [(16, 4)]


def _flip_byte(path, offset):
    with open(path, "r+b") as fh:
        fh.seek(offset)
        byte = fh.read(1)[0]
        fh.seek(offset)
        fh.write(bytes([byte ^ 1]))


def test_manifest_inputs_digest_the_rows_the_run_keeps(tmp_path):
    # certify keeps 10 of 20 IDX images: one byte of a kept row changes the
    # manifest's rows_sha256, one byte of a dropped row no manifest byte
    # outside timings, and checkpoint_sha256 is the loaded header's sha256
    images = np.random.default_rng(4).integers(0, 256, (20, 4, 4), dtype=np.uint8)
    labels = np.arange(20) % 10
    ip, lp = write_idx_pair(tmp_path / "images.idx", tmp_path / "labels.idx", images, labels)
    ckpt = tmp_path / "checkpoint.json"
    save_checkpoint(str(ckpt), init_mlp([16, 4, 10], StreamId(6)))
    cfg = _write(tmp_path / "c.cfg", f"""checkpoint = {ckpt}
sigma = 0.5
n0 = 20
n = 50
seed = 4
dataset.kind = mnist
dataset.images = {ip}
dataset.labels = {lp}
dataset.subsample = 10
dataset.seed = 3
""")
    kept = stratified_subsample_indices(labels, 10, 3)
    dropped = np.setdiff1d(np.arange(20), kept)

    def manifest():
        assert main(["certify", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        man = json.loads((tmp_path / "o" / "manifest.json").read_text(encoding="ascii"))
        del man["timings"]
        return man

    before = manifest()
    assert before["inputs"] == {
        "rows_sha256": hashlib.sha256(images.reshape(20, 16)[kept].tobytes()).hexdigest(),
        "labels_sha256": hashlib.sha256(labels[kept].astype("<i8").tobytes()).hexdigest(),
        "checkpoint_sha256": json.loads(ckpt.read_bytes().split(b"\n", 1)[0])["sha256"]}
    _flip_byte(ip, 16 + 16 * int(dropped[0]) + 5)  # a 16-byte header, 16-byte rows
    assert manifest() == before
    _flip_byte(ip, 16 + 16 * int(kept[0]) + 5)
    after = manifest()
    assert after["inputs"]["rows_sha256"] != before["inputs"]["rows_sha256"]
    after["inputs"]["rows_sha256"] = before["inputs"]["rows_sha256"]
    assert after == before


@pytest.mark.parametrize("command,text,artifact", [
    ("mixratio", "sigma = 0.5\npgd_steps = 2\npgd_eps = 1.0\nestimation_m = 50\n"
     "points = 5\nseed = 5\ndataset.kind = two_moons\ndataset.n = 6\n",
     "mixratio.csv"),
    ("theory-sim", "families = gaussian, uniform_pm\ndims = 32, 100, 500\n"
     "trials = 3001\nseed = 1\n", "theory.csv"),
], ids=["mixratio", "theory-sim"])
def test_artifact_bytes_independent_of_cpu_count(tmp_path, trained, monkeypatch,
                                                command, text, artifact):
    cfg = _write(tmp_path / "c.cfg",
                 f"checkpoint = {trained / 'checkpoint.json'}\n{text}"
                 if command == "mixratio" else text)
    got = {}
    for width in (1, 8):
        _set_cpus(monkeypatch, width)
        out = tmp_path / f"w{width}"
        assert main([command, "--config", cfg, "--out", str(out)]) == 0
        got[width] = (out / artifact).read_bytes()
    assert got[1] == got[8]


def test_certify_max_points_and_seed_override(tmp_path, trained):
    ckpt = trained / "checkpoint.json"
    cfg = _write(tmp_path / "c.cfg", _certify_cfg(ckpt, "max_points = 3"))
    out = tmp_path / "o"
    assert main(["certify", "--config", cfg, "--out", str(out),
                 "--seed", "99"]) == 0
    rows = _read_rows(out / "certify.csv")
    assert len(rows) == 4  # header + 3 points
    man = json.loads((out / "manifest.json").read_text())
    assert man["config"]["seed"] == 99


def test_seed_flag_only_where_the_config_has_a_seed(tmp_path, capsys):
    # evaluate reads no randomness: --seed there is a usage error, not ignored
    cfg = _write(tmp_path / "e.cfg", "cert_csv = a.csv\nradii = 0.5\nsigma = 0.5\n")
    with pytest.raises(SystemExit) as exc:
        main(["evaluate", "--config", cfg, "--out", str(tmp_path), "--seed", "7"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 7" in capsys.readouterr().err
    with_seed = [command for command, schema in SCHEMAS.items() if "seed" in schema]
    assert with_seed == ["train", "certify", "attack-demo", "mixratio", "theory-sim"]
    for command in with_seed:
        args = cli.build_parser().parse_args([command, "--config", "c.cfg", "--seed", "7"])
        assert args.seed == 7


def test_evaluate_pipeline_and_model_id_default(tmp_path, trained):
    ckpt = trained / "checkpoint.json"
    cert_out = tmp_path / "cert"
    cfg = _write(tmp_path / "c.cfg", _certify_cfg(ckpt))
    assert main(["certify", "--config", cfg, "--out", str(cert_out)]) == 0
    ecfg = _write(tmp_path / "e.cfg", f"""
cert_csv = {cert_out / 'certify.csv'}
radii = 0.0, 0.25, 0.5
sigma = 0.5
""")
    out = tmp_path / "eval"
    assert main(["evaluate", "--config", ecfg, "--out", str(out)]) == 0
    rows = _read_rows(out / "metrics.csv")
    assert rows[0] == ["model", "points", "acr", "cert_acc@0", "cert_acc@0.25",
                       "cert_acc@0.5"]
    assert rows[1][0] == "certify" and rows[1][1] == "6"
    assert "inputs" not in json.loads((out / "manifest.json").read_text())


def test_evaluate_model_ids_length_mismatch_exits_2(tmp_path):
    ecfg = _write(tmp_path / "e.cfg", """
cert_csv = a.csv, b.csv
model_ids = only_one
radii = 0.0
sigma = 0.5
""")
    assert main(["evaluate", "--config", ecfg, "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("row, reason", [
    ("1,0,0,0.5", "not enough values to unpack (expected 7, got 4)"),
    ("1,0,0,abc,0.9,1,0", "could not convert string to float: 'abc'"),
    ("1,0,-1,0.000000,0.41,0,2", "correct and abstain must be 0 or 1, got 0 and 2"),
    ("1,0,0,0.500000,0.9,2,0", "correct and abstain must be 0 or 1, got 2 and 0"),
    ("1,0,-1,0.500000,0.9,0,0", "a certified row predicts class -1"),
    ("0,1,3,0.700000,0.4,0,1", "abstain carries no prediction and zero radius"),
    ("0,1,-1,0.700000,0.4,0,1", "abstain carries no prediction and zero radius"),
    ("1,0,0,0.300000,0.9,0,0",
     "correct is 0 for label 0, predicted 0 and abstain 0"),
    ("1,0,-1,0.000000,0.4,1,1",
     "correct is 1 for label 0, predicted -1 and abstain 1"),
], ids=["short-row", "non-numeric-radius", "abstain-2", "correct-2",
        "certified-without-class", "abstain-with-class", "abstain-with-radius",
        "correct-contradicts-prediction", "correct-on-abstain"])
def test_evaluate_names_the_malformed_certify_csv_line(tmp_path, capsys, row, reason):
    # a bad row is a runtime failure that says which file and line it is in
    cert = tmp_path / "certify.csv"
    cert.write_text(",".join(CERT_CSV_COLUMNS) + "\r\n0,1,1,0.293001,0.933254300797,1,0"
                    "\r\n" + row + "\r\n", encoding="ascii")
    cfg = _write(tmp_path / "e.cfg", f"cert_csv = {cert}\nradii = 0.5\nsigma = 0.5\n")
    assert main(["evaluate", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err == f"error: {cert}, line 3: {reason}\n"


def test_evaluate_refuses_a_certify_csv_with_a_seconds_column(tmp_path, capsys):
    # 0.7.0 and earlier ended each row with the point's wall time; the
    # message names the header found and the one expected
    cert = tmp_path / "certify.csv"
    cert.write_text("idx,label,predicted,radius,p_lower,correct,abstain,seconds\r\n"
                    "0,1,1,0.293001,0.933254300797,1,0,0.1250\r\n", encoding="ascii")
    cfg = _write(tmp_path / "e.cfg", f"cert_csv = {cert}\nradii = 0.5\nsigma = 0.5\n")
    out = tmp_path / "out"
    assert main(["evaluate", "--config", cfg, "--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        f"error: {cert}: certification CSV header is {CERT_CSV_COLUMNS + ['seconds']}, "
        f"expected {CERT_CSV_COLUMNS}\n")
    assert list(out.iterdir()) == []


def test_evaluate_names_the_header_only_certify_csv(tmp_path, capsys):
    # a header with no rows is a runtime failure that says which file it is
    cert = tmp_path / "certify.csv"
    cert.write_text(",".join(CERT_CSV_COLUMNS) + "\r\n", encoding="ascii")
    cfg = _write(tmp_path / "e.cfg", f"cert_csv = {cert}\nradii = 0.5\nsigma = 0.5\n")
    assert main(["evaluate", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err == f"error: {cert}: no rows after the header\n"


def test_attack_demo_trajectory_csv(tmp_path, trained):
    cfg = _write(tmp_path / "a.cfg", f"""
checkpoint = {trained / 'checkpoint.json'}
sigma = 0.5
alpha_step = 0.5
steps = 3
m = 2
seed = 8
dataset.kind = two_moons
dataset.n = 6
""")
    out = tmp_path / "o"
    assert main(["attack-demo", "--config", cfg, "--out", str(out)]) == 0
    rows = _read_rows(out / "attack_demo.csv")
    assert rows[0] == ["step", "distance_from_x", "J", "true_class_prob"]
    assert len(rows) == 5  # header + steps+1 trajectory points
    assert float(rows[1][1]) == 0.0  # trajectory starts at x


def test_mixratio_csv(tmp_path, trained):
    cfg = _write(tmp_path / "m.cfg", f"""
checkpoint = {trained / 'checkpoint.json'}
sigma = 0.5
pgd_steps = 2
pgd_eps = 1.0
estimation_m = 50
points = 4
seed = 5
dataset.kind = two_moons
dataset.n = 6
""")
    out = tmp_path / "o"
    assert main(["mixratio", "--config", cfg, "--out", str(out)]) == 0
    rows = _read_rows(out / "mixratio.csv")
    assert rows[0] == ["idx", "lambda_star", "found"]
    assert len(rows) == 5
    for r in rows[1:]:
        assert r[2] in ("0", "1")
        assert (r[1] == "") == (r[2] == "0")


def test_theory_sim_cli(tmp_path):
    cfg = _write(tmp_path / "t.cfg", """
families = gaussian, uniform_pm
dims = 32, 64
trials = 2000
seed = 1
""")
    out = tmp_path / "o"
    assert main(["theory-sim", "--config", cfg, "--out", str(out)]) == 0
    rows = _read_rows(out / "theory.csv")
    assert rows[0] == ["family", "d", "k", "estimate", "std_error",
                       "bound_C_over_d", "pass"]
    assert [r[0] for r in rows[1:]] == ["gaussian", "gaussian",
                                        "uniform_pm", "uniform_pm"]
    assert [r[1] for r in rows[1:]] == ["32", "64", "32", "64"]
    assert "inputs" not in json.loads((out / "manifest.json").read_text())


def test_out_dir_env_fallback(tmp_path, trained, monkeypatch):
    env_out = tmp_path / "env_out"
    monkeypatch.setenv("SMOOTHCERT_OUT", str(env_out))
    monkeypatch.chdir(tmp_path)
    cfg = _write(tmp_path / "c.cfg",
                 _certify_cfg(trained / "checkpoint.json", "max_points = 2"))
    assert main(["certify", "--config", cfg]) == 0
    assert (env_out / "certify.csv").exists()


def _check_train_across_blas_threads(tmp_path, cfg, atol):
    """Run `train` on cfg in subprocesses at 1, 2 and 2 BLAS threads: the two
    runs at 2 threads give equal checkpoint bytes, and the weights at 1 and 2
    threads agree within atol. Returns the 1-thread model. The variable only
    takes effect before numpy loads, hence the subprocesses."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path = os.pathsep.join([src] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    checkpoints = []
    for run, threads in enumerate(("1", "2", "2")):
        out = tmp_path / f"run{run}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=path)
        subprocess.run([sys.executable, "-m", "smoothcert.cli", "train", "--config", cfg,
                        "--out", str(out)], env=env, check=True, capture_output=True)
        checkpoints.append(out / "checkpoint.json")
    assert checkpoints[1].read_bytes() == checkpoints[2].read_bytes()
    one, two = (load_checkpoint(c)[0] for c in checkpoints[:2])
    for a, b in zip(one.weights + one.biases, two.weights + two.biases):
        np.testing.assert_allclose(a, b, rtol=0, atol=atol)
    return one


def test_train_bytes_fixed_for_a_blas_thread_count(tmp_path):
    # The README's determinism contract holds for one BLAS build and thread
    # count. The pinned behaviour at two-moons shape: a 1-epoch SmoothMix run
    # repeats byte for byte on 2 OpenBLAS threads, while 1 and 2 threads may
    # round some products differently (OpenBLAS 0.3.31 does, by a few ulp of
    # the weights).
    cfg = _write(tmp_path / "train.cfg", """
method = smoothmix
sigma = 0.5
m = 4
eta = 5.0
alpha_step = 0.5
attack_steps = 2
epochs = 1
batch_size = 50
lr = 0.1
seed = 8
dataset.kind = two_moons
dataset.n = 400
dataset.noise_std = 0.1
dataset.seed = 1
""")
    _check_train_across_blas_threads(tmp_path, cfg, atol=1e-12)


def test_train_bytes_fixed_for_a_blas_thread_count_at_mnist_shape(tmp_path):
    # The same contract at 784-256-256-10, where OpenBLAS splits the
    # minibatch products across its threads: a 1-epoch SmoothMix run on 200
    # of 400 synthetic IDX images repeats byte for byte on 2 threads, and 1
    # and 2 threads differ by at most 8.3e-17 in any weight (OpenBLAS
    # 0.3.31, seeds 8-11; the largest weight is about 0.4)
    ip, lp = write_mnist_shape_pair(tmp_path, 400)
    cfg = _write(tmp_path / "train.cfg", f"""
method = smoothmix
sigma = 0.5
m = 4
eta = 5.0
alpha_step = 1.0
attack_steps = 2
epochs = 1
batch_size = 100
lr = 0.05
seed = 8
dataset.kind = mnist
dataset.images = {ip}
dataset.labels = {lp}
dataset.subsample = 200
dataset.seed = 1
""")
    model = _check_train_across_blas_threads(tmp_path, cfg, atol=1e-15)
    assert [W.shape for W in model.weights] == [(784, 256), (256, 256), (256, 10)]


README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def _readme_section(text, title):
    start = text.index(f"\n## {title}\n")
    return text[start:text.index("\n## ", start + 1)]


def test_readme_names_every_subcommand_and_config_key():
    # a subcommand or a config.SCHEMAS key added without a README line fails
    # here: each subcommand has its paragraph under Subcommands, which names
    # each of its keys in code spans, and Config format's table names the
    # dataset keys
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    dataset_table = _readme_section(text, "Config format")
    paragraphs = _readme_section(text, "Subcommands").split("\n\n")
    for command, schema in SCHEMAS.items():
        matches = [p for p in paragraphs if p.startswith(f"**`{command}`**")]
        assert len(matches) == 1, f"no README paragraph for {command}"
        for key in schema:
            where = dataset_table if key.startswith("dataset.") else matches[0]
            # a code span that starts with the key: `eta` or `eta > 0`
            assert re.search(rf"`{re.escape(key)}\b", where), \
                f"README does not name {command} key {key!r}"
