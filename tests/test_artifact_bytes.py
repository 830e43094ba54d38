"""Exact bytes of every CSV artifact the CLI writes, and of one manifest.

Each subcommand runs through `main` with its compute step replaced by a stub
that returns fixed values, so these tests pin the on-disk formats (header,
float formats, the abstain row, the blank lambda_star, line endings) and
nothing else. Each CSV's header is also checked against the README's CSV
schema table. The wall clock is a fake that advances 0.125 s per reading; it
reaches only the manifest's timings.
"""

import itertools
import json
import re
import types
from pathlib import Path

import numpy as np
import pytest

from smoothcert import adversary, cli
from smoothcert.data import Dataset
from smoothcert.smoothing import ABSTAIN, CertifyOutcome
from smoothcert.theory import DecayReport, DecayRow

DATASET = Dataset(inputs=[[0.0, 0.5], [1.0, 0.5], [2.0, 0.5]],
                  labels=[1, 0, 1], class_count=2, split="test")

OUTCOMES = [
    CertifyOutcome(certified=True, predicted_class=1, radius=0.29300149,
                   p_lower=0.933254300797123),
    CertifyOutcome(certified=False, predicted_class=ABSTAIN, radius=0.0,
                   p_lower=0.41),
    CertifyOutcome(certified=True, predicted_class=0, radius=1.5,
                   p_lower=0.999),
]

CERTIFY_CSV = (
    b"idx,label,predicted,radius,p_lower,correct,abstain\r\n"
    b"0,1,1,0.293001,0.933254300797,1,0\r\n"
    b"1,0,-1,0.000000,0.41,0,1\r\n"
    b"2,1,0,1.500000,0.999,0,0\r\n")

DATA_KEYS = "dataset.kind = two_moons\ndataset.n = 3\n"

# the payload digest a loaded checkpoint's header holds
CHECKPOINT_SHA256 = "0123456789abcdef" * 4

README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_columns(name):
    """The columns the README's CSV schema table lists for the file name."""
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.startswith(f"| `{name}` |"):
            return line.split("`")[3].split(", ")
    raise AssertionError(f"the README's CSV schema table has no row for {name}")


def _assert_csv(path, expected):
    """path holds the bytes expected, and the README lists their header; a
    README column `<name>@R...` stands for every later `<name>@<radius>`."""
    assert path.read_bytes() == expected
    header = expected.split(b"\r\n", 1)[0].decode("ascii").split(",")
    columns = _readme_columns(path.name)
    if columns[-1].endswith("@R..."):
        prefix = columns.pop().removesuffix("R...")
        assert all(c.startswith(prefix) for c in header[len(columns):])
        header = header[:len(columns)]
    assert header == columns, f"README row for {path.name}"


@pytest.fixture
def run(tmp_path, monkeypatch):
    """Run one subcommand on a config text; returns its output directory."""
    ticks = itertools.count()
    monkeypatch.setattr(cli, "time", types.SimpleNamespace(
        perf_counter=lambda: 0.125 * next(ticks)))
    monkeypatch.setattr(cli, "build_dataset", lambda cfg, split: DATASET)
    monkeypatch.setattr(cli, "load_checkpoint",
                        lambda path: (None, {"sha256": CHECKPOINT_SHA256}))

    def _run(command, text, name="out"):
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(text, encoding="ascii")
        out = tmp_path / name
        assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == 0
        return out

    return _run


def _certify(run, monkeypatch):
    monkeypatch.setattr(cli, "noise_factor", lambda params: None)
    monkeypatch.setattr(cli, "certify",
                        lambda params, x, scfg, stream, R: OUTCOMES[int(x[0])])
    return run("certify", "checkpoint = absent.json\nsigma = 0.5\nseed = 7\n"
               + DATA_KEYS, "cert")


def test_certify_csv_bytes(run, monkeypatch):
    out = _certify(run, monkeypatch)
    _assert_csv(out / "certify.csv", CERTIFY_CSV)


def test_certify_manifest_bytes(run, monkeypatch):
    out = _certify(run, monkeypatch)
    text = (out / "manifest.json").read_text(encoding="ascii")
    text = text.replace(str(out), "OUT")
    text = re.sub(r'"total_seconds": [0-9.]+', '"total_seconds": T', text)
    text = re.sub(r'"peak_rss_mib": [0-9.]+', '"peak_rss_mib": P', text)
    assert text == """{
  "artifacts": {
    "certify_csv": "OUT/certify.csv"
  },
  "command": "certify",
  "config": {
    "alpha_cert": 0.001,
    "checkpoint": "absent.json",
    "dataset.images": "",
    "dataset.kind": "two_moons",
    "dataset.labels": "",
    "dataset.n": 3,
    "dataset.noise_std": 0.1,
    "dataset.seed": 0,
    "dataset.split": "",
    "dataset.subsample": 0,
    "max_points": 0,
    "n": 1000,
    "n0": 100,
    "seed": 7,
    "sigma": 0.5
  },
  "format": "smoothcert.manifest",
  "inputs": {
    "checkpoint_sha256": "0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef",
    "labels_sha256": "f95f8eadc54fa71e640a67ff7e86733158e44683c7f77996ea3a0008397167ac",
    "rows_sha256": "c5a2eb07911470385bcc613ecfc195a3caefa532ba585ecc8d9115b426c68e5b"
  },
  "run_id": "54170b14c78f612a",
  "timings": {
    "peak_rss_mib": P,
    "point_seconds": [
      0.125,
      0.125,
      0.125
    ],
    "total_seconds": T
  },
  "version": "0.7.0"
}
"""


def test_train_log_csv_bytes(run, monkeypatch):
    log_rows = [
        {"epoch": 0, "loss_nat": 0.693147180559945, "loss_mix": 0.0,
         "lr": 0.1, "seconds": 0.0312345},
        {"epoch": 1, "loss_nat": 0.5, "loss_mix": 0.12345678901234568,
         "lr": 0.010000000000000002, "seconds": 1.23456},
    ]
    monkeypatch.setattr(cli, "train", lambda ds, run_cfg, mcfg: (None, log_rows))
    monkeypatch.setattr(cli, "save_checkpoint",
                        lambda path, params, init_stream=None: None)
    out = run("train", "method = gaussian\nsigma = 0.5\nepochs = 2\n"
              "batch_size = 2\nlr = 0.1\n" + DATA_KEYS)
    _assert_csv(out / "train_log.csv", (
        b"epoch,loss_nat,loss_mix,lr\r\n"
        b"0,0.69314718056,0,0.1\r\n"
        b"1,0.5,0.123456789012,0.01\r\n"))
    timings = json.loads((out / "manifest.json").read_text(encoding="ascii"))["timings"]
    assert timings["epoch_seconds"] == [0.0312, 1.2346]


def test_metrics_csv_bytes(run, tmp_path):
    cert = tmp_path / "certify.csv"
    cert.write_bytes(CERTIFY_CSV)
    out = run("evaluate", f"cert_csv = {cert}, {cert}\nmodel_ids = a, b\n"
              "radii = 0.0, 0.25, 1.5\nsigma = 0.5\n")
    _assert_csv(out / "metrics.csv", (
        b"model,points,acr,cert_acc@0,cert_acc@0.25,cert_acc@1.5\r\n"
        b"a,3,0.097667,0.333333,0.333333,0.000000\r\n"
        b"b,3,0.097667,0.333333,0.333333,0.000000\r\n"))


def test_mixratio_csv_bytes(run, monkeypatch):
    lambdas = [0.12, None, 1.0]
    monkeypatch.setattr(
        cli, "equal_confidence_mixing_ratio",
        lambda params, x, y, *args: lambdas[int(x[0])])
    out = run("mixratio", "checkpoint = absent.json\nsigma = 0.5\npoints = 5\n"
              + DATA_KEYS)
    _assert_csv(out / "mixratio.csv", (
        b"idx,lambda_star,found\r\n"
        b"0,0.120000,1\r\n"
        b"1,,0\r\n"
        b"2,1.000000,1\r\n"))


def test_theory_csv_bytes(run, monkeypatch):
    def verify_decay(sim, dims, stream):
        rows = tuple(DecayRow(d, 0.123456789123, 1e-05, 3.1622776601683795e-06,
                              42.0 / d, d < 100) for d in dims)
        return DecayReport(sim.noise_family, 42.0, rows, False)

    monkeypatch.setattr(cli, "verify_decay", verify_decay)
    out = run("theory-sim", "dims = 64, 256\ntrials = 10\n")
    _assert_csv(out / "theory.csv", (
        b"family,d,k,estimate,std_error,bound_C_over_d,pass\r\n"
        b"gaussian,64,0.12345679,1e-05,3.1622777e-06,0.65625,1\r\n"
        b"gaussian,256,0.12345679,1e-05,3.1622777e-06,0.1640625,0\r\n"
        b"uniform_pm,64,0.12345679,1e-05,3.1622777e-06,0.65625,1\r\n"
        b"uniform_pm,256,0.12345679,1e-05,3.1622777e-06,0.1640625,0\r\n"))


def test_attack_demo_csv_bytes(run, monkeypatch):
    def ascend(params, X, y, noise, acfg, keep=(-1,)):
        points = X + np.array([[0.0, 0.0], [0.3, 0.4], [0.6, 0.8]])[:, None]
        fhat = np.array([[0.25, 0.75], [0.5, 0.5]])
        return [points[t] for t in keep], fhat[:, None], np.array([[0.1], [0.2345678912]])

    # the endpoint's Fhat, from one forward; J there is -log Fhat_y
    monkeypatch.setattr(adversary, "first_layer_noise", lambda params, deltas: deltas)
    monkeypatch.setattr(adversary, "ascend", ascend)
    monkeypatch.setattr(adversary, "soft_smoothed_predict",
                        lambda params, X, noise: np.array([[0.8765432109, 0.1234567891]]))
    out = run("attack-demo", "checkpoint = absent.json\nsigma = 0.5\n"
              "alpha_step = 0.5\nsteps = 2\npoint_index = 2\n" + DATA_KEYS)
    _assert_csv(out / "attack_demo.csv", (
        b"step,distance_from_x,J,true_class_prob\r\n"
        b"0,0,0.1,0.75\r\n"
        b"1,0.5,0.23456789,0.5\r\n"
        b"2,1,2.0918641,0.12345679\r\n"))
