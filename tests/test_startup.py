"""What each subcommand imports: the modules it runs, and numpy only where it
computes with it. One child process per case runs cli.main and reports the
smoothcert modules, whether numpy and numpy.ma are in sys.modules once it
returns, and whether OpenSSL's _hashlib is loaded. No subcommand loads
numpy.ma, which costs about 1.3 MiB and 10 ms: np.quantile, np.percentile,
np.median, and np.unique without return_counts, all import it (np.unique
checks np.ma.is_masked), so src/ calls none of them. No subcommand loads
_hashlib either (about 3.4 MiB): cli.main's hash policy blocks it before
numpy.random's import chain reaches hashlib, unless hashlib is loaded
already. The digests of its built-in SHA-256 equal OpenSSL's, which the test
process uses, in both directions."""

import hashlib
import json
import os
import subprocess
import sys

import pytest

from smoothcert.cli import write_certification_csv
from smoothcert.nn import init_mlp, load_checkpoint, save_checkpoint
from smoothcert.rng import StreamId

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

_PROBE = """
import json, sys
from smoothcert.cli import main
try:
    code = main(sys.argv[1:])
except SystemExit as exc:  # argparse ends --version this way
    code = exc.code
print(json.dumps([code, "numpy" in sys.modules, "numpy.ma" in sys.modules,
                  sys.modules.get("_hashlib") is not None,
                  sorted(m for m in sys.modules if m.startswith("smoothcert"))]))
"""

# what `import smoothcert.cli` loads; none of it imports numpy
CLI = ["smoothcert", "smoothcert._lazy", "smoothcert.cli", "smoothcert.config",
       "smoothcert.evaluation"]

DATA = "dataset.kind = two_moons\ndataset.n = 4\n"

CONFIGS = {
    "train": "method = gaussian\nsigma = 0.5\nepochs = 1\nbatch_size = 4\n"
             "lr = 0.1\n" + DATA,
    "certify": "checkpoint = {ckpt}\nsigma = 0.5\nn0 = 10\nn = 20\n" + DATA,
    "evaluate": "cert_csv = {cert_csv}\nradii = 0.0, 0.5\nsigma = 0.5\n",
    "attack-demo": "checkpoint = {ckpt}\nsigma = 0.5\nalpha_step = 0.1\nsteps = 2\n"
                   + DATA,
    "mixratio": "checkpoint = {ckpt}\nsigma = 0.5\npgd_steps = 2\n"
                "estimation_m = 8\npoints = 1\n" + DATA,
    "theory-sim": "dims = 64, 256\ntrials = 1000\n",
    "config error": "sigma = 0.5\nno_such_key = 1\n",
}

# (case, exit code, numpy loaded, modules beyond CLI)
CASES = [
    ("--version", 0, False, []),
    ("config error", 2, False, []),
    ("evaluate", 0, False, []),
    ("theory-sim", 0, True, ["rng", "theory"]),
    ("certify", 0, True, ["data", "nn", "rng", "smoothing"]),
    ("train", 0, True, ["adversary", "data", "nn", "rng", "smoothing", "training"]),
    ("mixratio", 0, True, ["adversary", "data", "nn", "rng", "smoothing"]),
    ("attack-demo", 0, True, ["adversary", "data", "nn", "rng", "smoothing"]),
]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    # the checkpoint is saved here, with OpenSSL's SHA-256
    d = tmp_path_factory.mktemp("startup")
    ckpt, cert_csv = d / "checkpoint.json", d / "certify.csv"
    save_checkpoint(str(ckpt), init_mlp([2, 8, 2], StreamId(1)))
    write_certification_csv(cert_csv, [[0, 1, 1, "0.250000", "0.7", 1, 0],
                                       [1, 0, -1, "0.000000", "0.4", 0, 1]])
    return d, {"ckpt": ckpt, "cert_csv": cert_csv}


def _probe(tmp_path, inputs, case, preamble=""):
    """[exit code, numpy loaded, numpy.ma loaded, _hashlib loaded, smoothcert
    modules] of a child that runs preamble, then cli.main for case; the run's
    output directory is tmp_path / "out"."""
    d, paths = inputs
    if case == "--version":
        argv = ["--version"]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(CONFIGS[case].format(**paths), encoding="utf-8")
        command = "certify" if case == "config error" else case
        argv = [command, "--config", str(cfg), "--out", str(tmp_path / "out")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", preamble + _PROBE, *argv], cwd=d, env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


@pytest.mark.parametrize("case, code, numpy, extra", CASES, ids=[c[0] for c in CASES])
def test_subcommand_imports_only_what_it_runs(tmp_path, inputs, case, code, numpy, extra):
    assert _probe(tmp_path, inputs, case) == [
        code, numpy, False, False, sorted(CLI + [f"smoothcert.{m}" for m in extra])]


def test_policy_keeps_a_loaded_openssl(tmp_path, inputs):
    # an in-process caller that has imported hashlib keeps its backend
    pytest.importorskip("_hashlib")
    assert _probe(tmp_path, inputs, "certify", "import hashlib\n")[:4] == [0, True, False, True]


def test_digests_match_across_the_two_hash_backends(tmp_path, inputs):
    pytest.importorskip("_hashlib")  # this process hashes with OpenSSL
    # a checkpoint saved under the policy carries this process's digest of
    # its payload, and loads here
    assert _probe(tmp_path, inputs, "train")[:4] == [0, True, False, False]
    saved = tmp_path / "out" / "checkpoint.json"
    header, payload = saved.read_bytes().split(b"\n", 1)
    assert json.loads(header)["sha256"] == hashlib.sha256(payload).hexdigest()
    load_checkpoint(str(saved))
    # the inputs checkpoint, saved here, loads under the policy, and the
    # manifest's run_id is the one computed here
    assert _probe(tmp_path, inputs, "certify")[:4] == [0, True, False, False]
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text(encoding="ascii"))
    run = {k: manifest[k] for k in ("command", "config", "version")}
    assert manifest["run_id"] == hashlib.sha256(
        json.dumps(run, sort_keys=True).encode()).hexdigest()[:16]
