"""What each subcommand imports: the modules it runs, and numpy only where it
computes with it. One child process per case runs cli.main and reports the
smoothcert modules and whether numpy and numpy.ma are in sys.modules once it
returns. No subcommand loads numpy.ma, which costs about 1.3 MiB and 10 ms:
np.quantile, np.percentile, np.median, and np.unique without return_counts,
all import it (np.unique checks np.ma.is_masked), so src/ calls none of
them."""

import json
import os
import subprocess
import sys

import pytest

from smoothcert.cli import write_certification_csv
from smoothcert.nn import init_mlp, save_checkpoint
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
    d = tmp_path_factory.mktemp("startup")
    ckpt, cert_csv = d / "checkpoint.json", d / "certify.csv"
    save_checkpoint(str(ckpt), init_mlp([2, 8, 2], StreamId(1)))
    write_certification_csv(cert_csv, [[0, 1, 1, "0.250000", "0.7", 1, 0, "0.0010"],
                                       [1, 0, -1, "0.000000", "0.4", 0, 1, "0.0010"]])
    return d, {"ckpt": ckpt, "cert_csv": cert_csv}


@pytest.mark.parametrize("case, code, numpy, extra", CASES, ids=[c[0] for c in CASES])
def test_subcommand_imports_only_what_it_runs(tmp_path, inputs, case, code, numpy, extra):
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
    out = subprocess.run([sys.executable, "-c", _PROBE, *argv], cwd=d, env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout.splitlines()[-1]) == [
        code, numpy, False, sorted(CLI + [f"smoothcert.{m}" for m in extra])], out.stderr
