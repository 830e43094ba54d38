"""Output checks and artifact digests for the smoothcert benchmark.

Each check reads one artifact the CLI wrote and returns a list of error
strings; an empty list means the artifact is correct. The checks recompute
what they can from first principles (the normal quantile comes from the
standard library, not from smoothcert) so that a bug in the program cannot
also hide in its own checker.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from statistics import NormalDist

# The CLI writes radii with 6 decimals and p_lower with 12 significant digits,
# so a correct radius lies within half a unit of the 6th decimal of the exact
# sigma * Phi^-1(p_lower); the extra 1e-8 absorbs the p_lower rounding.
RADIUS_TOL = 5e-7 + 1e-8
# p_lower = alpha^(1/n) is written with 12 significant digits.
P_LOWER_TOL = 1e-11
_PHI_INV = NormalDist().inv_cdf


def _read_rows(path):
    with open(path, newline="", encoding="ascii") as fh:
        return list(csv.DictReader(fh))


def _expect_count(rows, count, what):
    if len(rows) != count:
        return [f"{what}: {len(rows)} rows, expected {count}"]
    return []


def check_certify_csv(path, sigma: float, n: int, alpha: float,
                      points: int) -> list:
    """Abstain rows carry -1 and radius 0; certified rows satisfy
    1/2 < p_lower <= alpha^(1/n) and radius = sigma * Phi^-1(p_lower)."""
    rows = _read_rows(path)
    errors = _expect_count(rows, points, os.path.basename(path))
    ceiling = alpha ** (1.0 / n)
    for r in rows:
        where = f"certify row idx={r['idx']}"
        predicted, label = int(r["predicted"]), int(r["label"])
        radius, p_lower = float(r["radius"]), float(r["p_lower"])
        abstain, correct = int(r["abstain"]), int(r["correct"])
        if not 0.0 <= p_lower <= 1.0:
            errors.append(f"{where}: p_lower {p_lower} outside [0, 1]")
        if abstain:
            if predicted != -1 or radius != 0.0:
                errors.append(f"{where}: abstain row has predicted={predicted}, "
                              f"radius={radius}")
            if correct:
                errors.append(f"{where}: abstain row marked correct")
            continue
        if not p_lower > 0.5:
            errors.append(f"{where}: certified with p_lower {p_lower} <= 1/2")
            continue
        if p_lower > ceiling + P_LOWER_TOL:
            errors.append(f"{where}: p_lower {p_lower} above alpha^(1/n) "
                          f"= {ceiling}")
            continue
        expected = sigma * _PHI_INV(p_lower)
        if abs(radius - expected) > RADIUS_TOL:
            errors.append(f"{where}: radius {radius} != sigma*Phi^-1(p_lower) "
                          f"= {expected:.8f}")
        if correct != int(predicted == label):
            errors.append(f"{where}: correct={correct} but predicted="
                          f"{predicted}, label={label}")
    return errors


def acr_from_certify_csv(path) -> float:
    """ACR recomputed from a certification CSV: certified-correct radii
    averaged over all rows, abstains and wrong predictions counting 0."""
    rows = _read_rows(path)
    total = sum(float(r["radius"]) for r in rows
                if not int(r["abstain"]) and int(r["predicted"]) == int(r["label"]))
    return total / len(rows)


def check_metrics_csv(path, cert_paths: dict) -> list:
    """Every model row's ACR equals the ACR recomputed from its certify.csv."""
    rows = {r["model"]: r for r in _read_rows(path)}
    errors = []
    if set(rows) != set(cert_paths):
        errors.append(f"metrics.csv models {sorted(rows)} != {sorted(cert_paths)}")
    for model, cert in cert_paths.items():
        if model not in rows:
            continue
        got = float(rows[model]["acr"])
        want = acr_from_certify_csv(cert)
        if abs(got - want) > 5e-7 + 1e-9:
            errors.append(f"metrics.csv {model}: acr {got} != recomputed "
                          f"{want:.8f}")
    return errors


def check_theory_csv(path, rows_expected: int) -> list:
    """Every (family, d) row passes its C/d bound; the CLI's exit code alone
    does not say so, since it exits 0 when a bound fails."""
    rows = _read_rows(path)
    errors = _expect_count(rows, rows_expected, "theory.csv")
    for r in rows:
        if r["pass"] != "1":
            errors.append(f"theory.csv {r['family']} d={r['d']}: pass={r['pass']}")
    return errors


def check_train_log(path, epochs: int) -> list:
    rows = _read_rows(path)
    errors = _expect_count(rows, epochs, os.path.basename(path))
    for r in rows:
        for key in ("loss_nat", "loss_mix"):
            if not math.isfinite(float(r[key])):
                errors.append(f"train_log epoch {r['epoch']}: {key}={r[key]}")
    return errors


def check_mixratio_csv(path, points: int) -> list:
    rows = _read_rows(path)
    errors = _expect_count(rows, points, "mixratio.csv")
    for r in rows:
        if r["found"] == "1":
            lam = float(r["lambda_star"])
            if not 0.0 <= lam <= 1.0:
                errors.append(f"mixratio idx={r['idx']}: lambda {lam} "
                              f"outside [0, 1]")
        elif r["found"] != "0" or r["lambda_star"] != "":
            errors.append(f"mixratio idx={r['idx']}: malformed not-found row")
    return errors


def _masked_bytes(path) -> bytes:
    """File bytes with wall-clock fields removed: the `seconds` column of a
    CSV and the `timings` object of a manifest."""
    name = os.path.basename(path)
    if name == "manifest.json":
        with open(path, encoding="ascii") as fh:
            obj = json.load(fh)
        obj.pop("timings", None)
        return json.dumps(obj, sort_keys=True).encode()
    if name.endswith(".csv"):
        with open(path, newline="", encoding="ascii") as fh:
            rows = list(csv.reader(fh))
        if rows and "seconds" in rows[0]:
            k = rows[0].index("seconds")
            rows = [r[:k] + r[k + 1:] for r in rows]
        return "\n".join(",".join(r) for r in rows).encode()
    with open(path, "rb") as fh:
        return fh.read()


def artifact_digest(root, relpaths) -> str:
    """sha256 over the masked bytes of each artifact, in the given order."""
    h = hashlib.sha256()
    for rel in relpaths:
        h.update(rel.encode() + b"\0")
        h.update(_masked_bytes(os.path.join(root, rel)))
        h.update(b"\0")
    return h.hexdigest()
