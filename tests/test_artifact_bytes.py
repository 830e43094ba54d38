"""Exact bytes of every CSV artifact the CLI writes, and of one manifest.

Each subcommand runs through `main` with its compute step replaced by a stub
that returns fixed values, so these tests pin the on-disk formats (header,
float formats, the abstain row, the blank lambda_star, line endings) and
nothing else. The wall clock is a fake that advances 0.125 s per reading.
"""

import itertools
import re
import types

import numpy as np
import pytest

from smoothcert import cli
from smoothcert.adversary import AttackTrajectory
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
    "idx,label,predicted,radius,p_lower,correct,abstain,seconds\r\n"
    "0,1,1,0.293001,0.933254300797,1,0,0.1250\r\n"
    "1,0,-1,0.000000,0.41,0,1,0.1250\r\n"
    "2,1,0,1.500000,0.999,0,0,0.1250\r\n")

DATA_KEYS = "dataset.kind = two_moons\ndataset.n = 3\n"


@pytest.fixture
def run(tmp_path, monkeypatch):
    """Run one subcommand on a config text; returns its output directory."""
    ticks = itertools.count()
    monkeypatch.setattr(cli, "time", types.SimpleNamespace(
        perf_counter=lambda: 0.125 * next(ticks)))
    monkeypatch.setattr(cli, "build_dataset", lambda cfg, split: DATASET)
    monkeypatch.setattr(cli, "load_checkpoint", lambda path: (None, {}))

    def _run(command, text, name="out"):
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(text, encoding="ascii")
        out = tmp_path / name
        assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == 0
        return out

    return _run


def _certify(run, monkeypatch):
    monkeypatch.setattr(cli, "certify",
                        lambda params, x, scfg, stream: OUTCOMES[int(x[0])])
    return run("certify", "checkpoint = absent.json\nsigma = 0.5\nseed = 7\n"
               + DATA_KEYS, "cert")


def test_certify_csv_bytes(run, monkeypatch):
    out = _certify(run, monkeypatch)
    assert (out / "certify.csv").read_bytes() == CERTIFY_CSV.encode("ascii")


def test_certify_manifest_bytes(run, monkeypatch):
    out = _certify(run, monkeypatch)
    text = (out / "manifest.json").read_text(encoding="ascii")
    text = text.replace(str(out), "OUT")
    text = re.sub(r'"total_seconds": [0-9.]+', '"total_seconds": T', text)
    assert text == """{
  "artifacts": {
    "certify_csv": "OUT/certify.csv"
  },
  "command": "certify",
  "config": {
    "alpha_cert": 0.001,
    "checkpoint": "absent.json",
    "dataset.classes": 2,
    "dataset.images": "",
    "dataset.kind": "two_moons",
    "dataset.labels": "",
    "dataset.n": 3,
    "dataset.noise_std": 0.1,
    "dataset.scale": 4.0,
    "dataset.seed": 0,
    "dataset.split": "",
    "dataset.spread": 0.5,
    "dataset.subsample": 0,
    "max_points": 0,
    "n": 1000,
    "n0": 100,
    "seed": 7,
    "sigma": 0.5
  },
  "format": "smoothcert.manifest",
  "run_id": "adb3c0ea7dc0db02",
  "timings": {
    "total_seconds": T
  },
  "version": "0.5.0"
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
    assert (out / "train_log.csv").read_bytes() == (
        b"epoch,loss_nat,loss_mix,lr,seconds\r\n"
        b"0,0.69314718056,0,0.1,0.0312\r\n"
        b"1,0.5,0.123456789012,0.01,1.2346\r\n")


def test_metrics_csv_bytes(run, tmp_path):
    cert = tmp_path / "certify.csv"
    cert.write_bytes(CERTIFY_CSV.encode("ascii"))
    out = run("evaluate", f"cert_csv = {cert}, {cert}\nmodel_ids = a, b\n"
              "radii = 0.0, 0.25, 1.5\nsigma = 0.5\n")
    assert (out / "metrics.csv").read_bytes() == (
        b"model,points,acr,cert_acc@0,cert_acc@0.25,cert_acc@1.5\r\n"
        b"a,3,0.097667,0.333333,0.333333,0.000000\r\n"
        b"b,3,0.097667,0.333333,0.333333,0.000000\r\n")


def test_mixratio_csv_bytes(run, monkeypatch):
    lambdas = [0.12, None, 1.0]
    monkeypatch.setattr(
        cli, "equal_confidence_mixing_ratio",
        lambda params, x, y, *args: lambdas[int(x[0])])
    out = run("mixratio", "checkpoint = absent.json\nsigma = 0.5\npoints = 5\n"
              + DATA_KEYS)
    assert (out / "mixratio.csv").read_bytes() == (
        b"idx,lambda_star,found\r\n"
        b"0,0.120000,1\r\n"
        b"1,,0\r\n"
        b"2,1.000000,1\r\n")


def test_theory_csv_bytes(run, monkeypatch):
    def verify_decay(sim, dims, stream):
        rows = tuple(DecayRow(d, 0.123456789123, 1e-05, 3.1622776601683795e-06,
                              42.0 / d, d < 100) for d in dims)
        return DecayReport(sim.noise_family, 42.0, rows, False)

    monkeypatch.setattr(cli, "verify_decay", verify_decay)
    out = run("theory-sim", "dims = 64, 256\ntrials = 10\n")
    assert (out / "theory.csv").read_bytes() == (
        b"family,d,k,estimate,std_error,bound_C_over_d,pass\r\n"
        b"gaussian,64,0.12345679,1e-05,3.1622777e-06,0.65625,1\r\n"
        b"gaussian,256,0.12345679,1e-05,3.1622777e-06,0.1640625,0\r\n"
        b"uniform_pm,64,0.12345679,1e-05,3.1622777e-06,0.65625,1\r\n"
        b"uniform_pm,256,0.12345679,1e-05,3.1622777e-06,0.1640625,0\r\n")


def test_attack_demo_csv_bytes(run, monkeypatch):
    def attack(params, x, y, noise, acfg):
        steps = np.array([[0.0, 0.0], [0.3, 0.4], [0.6, 0.8]])
        fhat = np.array([[0.25, 0.75], [0.5, 0.5], [0.9, 0.1234567891]])
        return AttackTrajectory(points=x + steps, fhat_path=fhat,
                                j_path=np.array([0.1, 0.2345678912, 3.0]))

    monkeypatch.setattr(cli, "smoothmix_attack", attack)
    out = run("attack-demo", "checkpoint = absent.json\nsigma = 0.5\n"
              "alpha_step = 0.5\nsteps = 2\npoint_index = 2\n" + DATA_KEYS)
    assert (out / "attack_demo.csv").read_bytes() == (
        b"step,distance_from_x,J,true_class_prob\r\n"
        b"0,0,0.1,0.75\r\n"
        b"1,0.5,0.23456789,0.5\r\n"
        b"2,1,3,0.12345679\r\n")
