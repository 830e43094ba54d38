"""Tests for the benchmark's output checker and operation ledger.

Run from the repository root: python -m pytest perfbench/tests -q
"""

import csv
import json
import os
import re
import sys
from statistics import NormalDist

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402
from checks import (  # noqa: E402
    artifact_digest,
    check_certify_csv,
    check_metrics_csv,
    check_mixratio_csv,
    check_theory_csv,
    check_train_log,
)
from workloads import Workload  # noqa: E402

SIGMA, N, ALPHA = 0.5, 1000, 0.001
CERT_HEADER = ["idx", "label", "predicted", "radius", "p_lower", "correct",
               "abstain", "seconds"]


def _write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return str(path)


def _cert_rows():
    p_ceiling = ALPHA ** (1.0 / N)
    rows = []
    for idx, (label, p) in enumerate([(0, 0.93), (1, p_ceiling), (1, 0.41)]):
        if p > 0.5:
            radius = SIGMA * NormalDist().inv_cdf(p)
            rows.append([idx, label, label, f"{radius:.6f}", f"{p:.12g}", 1, 0,
                         "0.0100"])
        else:
            rows.append([idx, label, -1, "0.000000", f"{p:.12g}", 0, 1, "0.0100"])
    return rows


def test_certify_csv_correct_rows_pass(tmp_path):
    path = _write_csv(tmp_path / "certify.csv", CERT_HEADER, _cert_rows())
    assert check_certify_csv(path, SIGMA, N, ALPHA, 3) == []


def _failed_ops(tmp_path, checks):
    """Run checks through the benchmark's runner; returns its ledger."""
    workload = Workload("test", [], (), (), [], checks=checks)
    ledger = run.Ledger()
    run.Runner(ROOT, workload, str(tmp_path), ledger, 0.0).run_checks(str(tmp_path))
    return ledger


def test_certify_csv_corrupted_radius_is_a_failed_operation(tmp_path):
    rows = _cert_rows()
    rows[0][3] = f"{float(rows[0][3]) + 1e-5:.6f}"
    path = _write_csv(tmp_path / "certify.csv", CERT_HEADER, rows)
    errors = check_certify_csv(path, SIGMA, N, ALPHA, 3)
    assert len(errors) == 1 and "radius" in errors[0]
    ledger = _failed_ops(tmp_path, [("check certify", lambda d: check_certify_csv(
        os.path.join(d, "certify.csv"), SIGMA, N, ALPHA, 3))])
    assert (ledger.attempted, ledger.failed) == (1, 1)


@pytest.mark.parametrize("column, value, needle", [
    ("predicted", 1, "abstain row"),  # abstain with a class
    ("radius", "0.100000", "abstain row"),  # abstain with a radius
])
def test_certify_csv_malformed_abstain_fails(tmp_path, column, value, needle):
    rows = _cert_rows()
    rows[2][CERT_HEADER.index(column)] = value
    path = _write_csv(tmp_path / "certify.csv", CERT_HEADER, rows)
    assert any(needle in e for e in check_certify_csv(path, SIGMA, N, ALPHA, 3))


def test_certify_csv_p_lower_above_ceiling_fails(tmp_path):
    rows = _cert_rows()
    rows[1][4] = "0.9999"
    rows[1][3] = f"{SIGMA * NormalDist().inv_cdf(0.9999):.6f}"
    path = _write_csv(tmp_path / "certify.csv", CERT_HEADER, rows)
    assert any("alpha^(1/n)" in e
               for e in check_certify_csv(path, SIGMA, N, ALPHA, 3))


def test_metrics_csv_acr_must_match_certify_csv(tmp_path):
    cert = _write_csv(tmp_path / "certify.csv", CERT_HEADER, _cert_rows())
    radii = [float(r[3]) for r in _cert_rows()]
    acr = sum(radii) / 3
    header = ["model", "points", "acr"]
    good = _write_csv(tmp_path / "good.csv", header, [["m", 3, f"{acr:.6f}"]])
    bad = _write_csv(tmp_path / "bad.csv", header, [["m", 3, f"{acr + 0.01:.6f}"]])
    assert check_metrics_csv(good, {"m": cert}) == []
    assert len(check_metrics_csv(bad, {"m": cert})) == 1


def test_theory_csv_flipped_pass_is_a_failed_operation(tmp_path):
    header = ["family", "d", "k", "estimate", "std_error", "bound_C_over_d", "pass"]
    rows = [["gaussian", 64, "0.1", "0.01", "0.001", "0.2", 1],
            ["gaussian", 256, "0.05", "0.002", "0.0005", "0.05", 1]]
    assert check_theory_csv(_write_csv(tmp_path / "ok.csv", header, rows), 2) == []
    rows[1][-1] = 0
    errors = check_theory_csv(_write_csv(tmp_path / "bad.csv", header, rows), 2)
    assert len(errors) == 1 and "pass=0" in errors[0]
    ledger = _failed_ops(tmp_path, [("check theory", lambda d: check_theory_csv(
        os.path.join(d, "bad.csv"), 2))])
    assert (ledger.attempted, ledger.failed) == (1, 1)


def test_train_log_nonfinite_loss_fails(tmp_path):
    header = ["epoch", "loss_nat", "loss_mix", "lr", "seconds"]
    rows = [[0, "0.5", "0.2", "0.1", "1.0"], [1, "nan", "0.2", "0.1", "1.0"]]
    errors = check_train_log(_write_csv(tmp_path / "log.csv", header, rows), 2)
    assert len(errors) == 1 and "loss_nat" in errors[0]


def test_mixratio_lambda_outside_unit_interval_fails(tmp_path):
    header = ["idx", "lambda_star", "found"]
    rows = [[0, "0.250000", 1], [1, "", 0], [2, "1.500000", 1]]
    errors = check_mixratio_csv(_write_csv(tmp_path / "mix.csv", header, rows), 3)
    assert len(errors) == 1 and "idx=2" in errors[0]


def test_digest_ignores_wall_clock_fields(tmp_path):
    for name, seconds, total in (("a", "0.0100", 1.5), ("b", "9.9900", 7.25)):
        d = tmp_path / name
        d.mkdir()
        rows = [r[:-1] + [seconds] for r in _cert_rows()]
        _write_csv(d / "certify.csv", CERT_HEADER, rows)
        (d / "manifest.json").write_text(json.dumps(
            {"config": {"n": N}, "timings": {"total_seconds": total}}))
    rel = ["certify.csv", "manifest.json"]
    assert artifact_digest(tmp_path / "a", rel) == artifact_digest(tmp_path / "b", rel)
    _write_csv(tmp_path / "b" / "certify.csv", CERT_HEADER, _cert_rows()[:2])
    assert artifact_digest(tmp_path / "a", rel) != artifact_digest(tmp_path / "b", rel)


def test_nonzero_subcommand_exit_is_a_failed_operation(tmp_path):
    workload = run.WORKLOADS["theory"](0)
    # trials = 0 is rejected by theory-sim, which exits nonzero
    workload.steps[0].config = re.sub(r"trials = \d+", "trials = 0",
                                      workload.steps[0].config)
    assert "trials = 0" in workload.steps[0].config
    ledger = run.Ledger()
    runner = run.Runner(ROOT, workload, str(tmp_path), ledger,
                        hard_deadline=run.time.perf_counter() + 60)
    result = runner.iteration(traced=False)
    assert not result["ok"]
    assert ledger.attempted == 1 and ledger.failed == 1
    assert "exit code" in ledger.failures[0][1][0]


def test_per_layer_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["per_layer"]] == run.per_layer_names()
    assert [m["unit"] for m in spec["per_layer"]] == [
        run.unit_of(n) for n in run.per_layer_names()]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
