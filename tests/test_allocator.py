"""The allocator policy cli.main sets: it removes the page faults of the hot
loops on glibc and gives the pool threads the main heap's malloc arena, and
it is a no-op wherever glibc's mallopt is missing. Also the peak RSS of CLI
children against an import-only child: the IDX images stay bytes, CERTIFY's
row chunks reuse their buffers, and train and mixratio hold one step's or
one row chunk's arrays at a time; and the peak that a CLI child's manifest
records, which is its own.

Each import-only child sets cli.main's hash policy, then imports what its
subcommand loads (numpy, and the smoothcert modules the subcommand's run
imports; tests/test_startup.py pins those), so that a gap is the run's own
and not an import. Without the policy the baseline would carry OpenSSL's
libcrypto, which no CLI run loads, and every peak gap would read about
3.4 MiB smaller."""

import ctypes
import json
import os
import platform
import subprocess
import sys
import types

import numpy as np
import pytest

from idx_files import write_idx
from smoothcert import cli
from smoothcert.cli import main
from smoothcert.nn import init_mlp, save_checkpoint
from smoothcert.rng import StreamId

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# A certify child's minor faults beyond an import-only child's. On glibc 2.36
# the gap is 284-291 with the policy (365-375 when both children loaded
# libcrypto) and 6,800 at glibc's defaults, which map every 1,000 x 64 row
# chunk (512 KiB) afresh, page by page.
FAULT_GAP_BOUND = 2000

# The same gap for a 784-256-256-10 SmoothMix train child over four
# minibatches (train_cfg). On glibc 2.36 it is about 3,810, under the pages
# by which its peak RSS exceeds the import's; it was about 4,450 when the
# attack stored its whole path, and 23,000 when the heap went back to the
# kernel after every step, to be faulted in again at the next.
TRAIN_FAULT_GAP_BOUND = 12000

# A theory-sim child at the theory benchmark's settings (theory_cfg) against
# the import: on glibc 2.36 its peak RSS gap is 4.7-5.2 MiB and its fault
# gap 547-556, where a uniform_pm stage fills one 512 KiB row buffer from the
# heap and both pool threads allocate from the main arena (4.9-5.3 MiB and
# 545-552 when both children loaded libcrypto). It was 6.4-7.2 MiB and
# 930-1,050 faults with an arena per thread and numpy.ma imported by
# np.quantile. With 8 MiB buffers, two of them side by side and each mapped
# afresh for its stage, the gaps were 20.8 MiB and 3,100-5,200 faults.
THEORY_RSS_GAP_BOUND_MIB = 8
THEORY_FAULT_GAP_BOUND = 2000

# A one-point certify child over 5,000 IDX test images against one over 100:
# the dataset is all that differs, and its 4,900 extra images are 3.7 MiB of
# pixel codes. On glibc 2.36 the peak gap is 3.6-3.9 MiB; it was 29.3 MiB
# when the loader kept the images as float64 (29.9 MiB more).
IDX_RSS_GAP_BOUND_MIB = 10

# A two-point certify child at 784-256-256-10 with n = 2,500 > POOL_MIN_DRAWS,
# so the points run side by side, against the import: on glibc 2.36 the peak
# RSS gap is 14.9-15.4 MiB (15.1-15.9 when both children loaded libcrypto)
# when each hard_class_counts call takes turns in two 1 MiB buffers of
# 500-row chunks and both pool threads allocate from the main arena. It was
# 17.8 MiB with an arena per thread, 22.9-23.6 MiB with 1,000-row chunks,
# and 31.4 MiB with four or five fresh 1,000 x 256 arrays per chunk.
POOLED_CERTIFY_RSS_GAP_BOUND_MIB = 19

# The SmoothMix train child of the fault test (train_cfg) against the
# import: on glibc 2.36 the peak RSS gap is 18.7-18.9 MiB (train starts no
# pool thread, so one malloc arena does not move it). It was 21.1-21.4 MiB
# when the attack stored its (T+1, B, d) path and the CE pass held delta W1
# and x_adv, and 26.7 MiB when the backward pass took a fresh rows x width
# array per layer and the step held the whole attack path through its CE
# gradient.
TRAIN_RSS_GAP_BOUND_MIB = 20

# A two-point mixratio child (mixratio_cfg) against the import: on glibc
# 2.36 the peak RSS gap is 16.2-16.4 MiB with one malloc arena (16.1-16.2
# when both children loaded libcrypto). It was 18.3-18.7 MiB with an arena
# per pool thread, and 24.3 MiB when each of its two pool threads ran the
# lambda grid in 1,000-row forwards.
MIXRATIO_RSS_GAP_BOUND_MIB = 20


@pytest.fixture(scope="module")
def certify_cfg(tmp_path_factory):
    # a 2-64-64-2 net on 30 two-moons points, certified at n = POOL_MIN_DRAWS
    # (so no pool thread starts)
    d = tmp_path_factory.mktemp("alloc")
    ckpt = d / "checkpoint.json"
    save_checkpoint(str(ckpt), init_mlp([2, 64, 64, 2], StreamId(5)))
    cfg = d / "certify.cfg"
    cfg.write_text(f"""checkpoint = {ckpt}
sigma = 0.5
n0 = 100
n = 1000
alpha_cert = 0.001
seed = 7
dataset.kind = two_moons
dataset.n = 30
dataset.seed = 3
""", encoding="utf-8")
    return str(cfg)


def _write_idx_pair(d, n, one_class=False):
    """n random 28 x 28 IDX images (one block of at most 1,000, repeated)
    in 10 classes, or all in class 0; returns the image and label paths."""
    block = np.random.default_rng(8).integers(0, 256, (min(n, 1000), 28, 28),
                                              dtype=np.uint8)
    images, labels = d / f"images-{n}.idx", d / f"labels-{n}.idx"
    write_idx(images, block, repeat=n // len(block))
    write_idx(labels, np.arange(n) % (1 if one_class else 10))
    return images, labels


def _mnist_certify_cfg(d, images_count, n, max_points):
    """A certify config for a 784-256-256-10 net over images_count IDX
    test images."""
    ckpt = d / "checkpoint.json"
    if not ckpt.exists():
        save_checkpoint(str(ckpt), init_mlp([784, 256, 256, 10], StreamId(12)))
    images, labels = _write_idx_pair(d, images_count)
    cfg = d / f"certify-{images_count}-{n}-{max_points}.cfg"
    cfg.write_text(f"""checkpoint = {ckpt}
sigma = 0.5
n0 = 100
n = {n}
max_points = {max_points}
seed = 13
dataset.kind = mnist
dataset.images = {images}
dataset.labels = {labels}
dataset.split = test
""", encoding="utf-8")
    return str(cfg)


@pytest.fixture(scope="module")
def train_cfg(tmp_path_factory):
    # SmoothMix at the mnist workload's shape and step (784-256-256-10,
    # B = 100, m = 4, four attack steps) on 400 of 20,000 synthetic 28 x 28
    # IDX images: four minibatches
    d = tmp_path_factory.mktemp("train-faults")
    images, labels = _write_idx_pair(d, 20_000)
    cfg = d / "train.cfg"
    cfg.write_text(f"""method = smoothmix
sigma = 0.5
m = 4
eta = 5.0
alpha_step = 1.0
attack_steps = 4
epochs = 1
batch_size = 100
lr = 0.05
seed = 9
dataset.kind = mnist
dataset.images = {images}
dataset.labels = {labels}
dataset.subsample = 400
""", encoding="utf-8")
    return str(cfg)


@pytest.fixture(scope="module")
def mixratio_cfg(tmp_path_factory):
    # two points at the mnist workload's mixratio settings (estimation_m =
    # 100, eight PGD steps) on a 784-256-256-10 net that puts every input in
    # class 0 by a wide margin, so that no grid point flips and each point
    # scans the whole 101-point lambda grid
    d = tmp_path_factory.mktemp("mixratio-rss")
    params = init_mlp([784, 256, 256, 10], StreamId(14))
    params.biases[-1][0] = 100.0
    save_checkpoint(str(d / "checkpoint.json"), params)
    images, labels = _write_idx_pair(d, 100, one_class=True)
    cfg = d / "mixratio.cfg"
    cfg.write_text(f"""checkpoint = {d / 'checkpoint.json'}
sigma = 0.5
pgd_steps = 8
pgd_eps = 1.0
estimation_m = 100
points = 2
seed = 15
dataset.kind = mnist
dataset.images = {images}
dataset.labels = {labels}
dataset.split = test
""", encoding="utf-8")
    return str(cfg)


@pytest.fixture(scope="module")
def theory_cfg(tmp_path_factory):
    cfg = tmp_path_factory.mktemp("theory-rss") / "theory.cfg"
    cfg.write_text("""families = gaussian, uniform_pm
sigma = 1.0
tau = 1.5
epsilon = 0.5
p = 0.8
dims = 64, 256, 1024, 4096
trials = 10000
seed = 11
""", encoding="utf-8")
    return str(cfg)


# Starts one child, reaps it with wait4 (not proc.wait, so that the rusage
# is the child's own) and prints its exit code and rusage. Linux starts a
# child's ru_maxrss at the peak RSS of the process it was spawned from, so
# the test process, whose peak grows with the suite, does not spawn the
# measured child itself: this small interpreter does.
_REAPER = """
import os, subprocess, sys, threading
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
timer = threading.Timer(120, proc.kill)
timer.start()
_, status, usage = os.wait4(proc.pid, 0)
timer.cancel()
print(os.waitstatus_to_exitcode(status), usage.ru_minflt, usage.ru_stime, usage.ru_maxrss)
"""


def _child_env():
    """The environment of a child that imports smoothcert from src/."""
    path = os.pathsep.join([SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env.pop("SMOOTHCERT_OUT", None)
    return env


def _child_usage(argv, cwd):
    """(minor faults, system s, peak RSS in KiB) of one child process."""
    out = subprocess.run([sys.executable, "-c", _REAPER, sys.executable, *argv], cwd=cwd,
                         env=_child_env(), capture_output=True, text=True, timeout=150,
                         check=True)
    code, faults, system_s, peak_kib = out.stdout.split()
    assert code == "0"
    return int(faults), float(system_s), int(peak_kib)


def _import_only(*modules):
    """argv of a child that sets the hash policy, then imports numpy and
    modules."""
    return ["-c", "from smoothcert import cli; cli._set_hash_policy(); import "
            + ", ".join(["numpy"] + [f"smoothcert.{m}" for m in modules])]


# what certify, train and theory-sim import
CERTIFY_MODULES = ("data", "nn", "rng", "smoothing")
TRAIN_MODULES = ("adversary", "data", "nn", "rng", "smoothing", "training")
MIXRATIO_MODULES = ("adversary", "data", "evaluation", "nn", "rng", "smoothing")
THEORY_MODULES = ("rng", "theory")


needs_glibc_wait4 = pytest.mark.skipif(
    platform.libc_ver()[0] != "glibc" or not hasattr(os, "wait4"),
    reason="the policy and the fault count are glibc and Linux only")


@needs_glibc_wait4
def test_certify_faults_stay_near_the_import(tmp_path, certify_cfg):
    base = _child_usage(_import_only(*CERTIFY_MODULES), tmp_path)
    run = _child_usage(["-m", "smoothcert.cli", "certify", "--config", certify_cfg,
                         "--out", str(tmp_path)], tmp_path)
    assert run[0] - base[0] < FAULT_GAP_BOUND, ("faults, system s", run, base)


@needs_glibc_wait4
def test_train_faults_stay_near_the_import(tmp_path, train_cfg):
    base = _child_usage(_import_only(*TRAIN_MODULES), tmp_path)
    run = _child_usage(["-m", "smoothcert.cli", "train", "--config", train_cfg,
                         "--out", str(tmp_path)], tmp_path)
    assert run[0] - base[0] < TRAIN_FAULT_GAP_BOUND, ("faults, system s", run, base)


@needs_glibc_wait4
def test_train_memory_stays_near_the_import(tmp_path, train_cfg):
    base = _child_usage(_import_only(*TRAIN_MODULES), tmp_path)
    run = _child_usage(["-m", "smoothcert.cli", "train", "--config", train_cfg,
                        "--out", str(tmp_path)], tmp_path)
    usage = ("faults, system s, peak KiB", run, base)
    assert run[2] - base[2] < TRAIN_RSS_GAP_BOUND_MIB * 1024, usage


@needs_glibc_wait4
def test_mixratio_memory_stays_near_the_import(tmp_path, mixratio_cfg):
    base = _child_usage(_import_only(*MIXRATIO_MODULES), tmp_path)
    run = _child_usage(["-m", "smoothcert.cli", "mixratio", "--config", mixratio_cfg,
                        "--out", str(tmp_path)], tmp_path)
    usage = ("faults, system s, peak KiB", run, base)
    assert run[2] - base[2] < MIXRATIO_RSS_GAP_BOUND_MIB * 1024, usage


@needs_glibc_wait4
def test_theory_sim_memory_stays_near_the_import(tmp_path, theory_cfg):
    base = _child_usage(_import_only(*THEORY_MODULES), tmp_path)
    run = _child_usage(["-m", "smoothcert.cli", "theory-sim", "--config", theory_cfg,
                        "--out", str(tmp_path)], tmp_path)
    usage = ("faults, system s, peak KiB", run, base)
    assert run[2] - base[2] < THEORY_RSS_GAP_BOUND_MIB * 1024, usage
    assert run[0] - base[0] < THEORY_FAULT_GAP_BOUND, usage


@needs_glibc_wait4
def test_certify_keeps_idx_pixels_as_bytes(tmp_path):
    small, large = (_child_usage(["-m", "smoothcert.cli", "certify", "--config",
                                  _mnist_certify_cfg(tmp_path, count, 1000, 1),
                                  "--out", str(tmp_path / str(count))], tmp_path)
                    for count in (100, 5000))
    assert large[2] - small[2] < IDX_RSS_GAP_BOUND_MIB * 1024, ("peak KiB", large, small)


@needs_glibc_wait4
def test_pooled_certify_memory_stays_near_the_import(tmp_path):
    base = _child_usage(_import_only(*CERTIFY_MODULES), tmp_path)
    run = _child_usage(["-m", "smoothcert.cli", "certify", "--config",
                        _mnist_certify_cfg(tmp_path, 100, 2500, 2),
                        "--out", str(tmp_path)], tmp_path)
    usage = ("faults, system s, peak KiB", run, base)
    assert run[2] - base[2] < POOLED_CERTIFY_RSS_GAP_BOUND_MIB * 1024, usage


@pytest.mark.skipif(not os.path.exists(cli.PROC_STATUS), reason="needs Linux's /proc")
def test_manifest_records_the_subcommands_own_peak(tmp_path, certify_cfg):
    # Linux starts a child's ru_maxrss at the RSS of the process it was
    # spawned from, so a child of this process, which holds 64 MiB of
    # ballast on top of its own, would read more than 64 MiB there; the
    # manifest's VmHWM is the child's own peak
    ballast = b"\x01" * (64 << 20)
    subprocess.run([sys.executable, "-m", "smoothcert.cli", "certify", "--config", certify_cfg,
                    "--out", str(tmp_path)], env=_child_env(), capture_output=True,
                   timeout=120, check=True)
    del ballast
    manifest = json.loads((tmp_path / "manifest.json").read_text(encoding="ascii"))
    assert 0 < manifest["timings"]["peak_rss_mib"] < 64


def test_peak_rss_reads_vmhwm_and_falls_back_to_getrusage(tmp_path, monkeypatch):
    status = tmp_path / "status"
    status.write_text("Name:\tpython3\nVmPeak:\t  999999 kB\nVmHWM:\t   13520 kB\n",
                      encoding="ascii")
    monkeypatch.setattr(cli, "PROC_STATUS", str(status))
    assert cli._peak_rss_mib() == 13520 / 1024
    resource = pytest.importorskip("resource")
    monkeypatch.setattr(cli, "PROC_STATUS", str(tmp_path / "missing"))
    scale = 1 << 20 if sys.platform == "darwin" else 1024
    low = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / scale
    peak = cli._peak_rss_mib()
    assert low - 0.01 <= peak <= resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / scale + 0.01


def _has_malloc_stats():
    try:
        return hasattr(ctypes.CDLL(None), "malloc_stats")
    except OSError:
        return False


def _cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


# Eight pooled items of 256 KiB each, under the mmap threshold the policy
# sets, then glibc's per-arena report on stderr.
_ARENA_CHILD = """
import ctypes
from smoothcert import cli, rng
cli._set_allocator_policy()
rng.map_streams(lambda i: len(bytearray(256 << 10)), range(8))
ctypes.CDLL(None).malloc_stats()
"""


@pytest.mark.skipif(not _has_malloc_stats() or _cpus() < 2,
                    reason="needs glibc's malloc_stats and two CPUs for the pool")
def test_pool_threads_share_one_arena(tmp_path):
    # with an arena per thread (glibc's default), the report lists three:
    # the main arena and one for each pool thread
    out = subprocess.run([sys.executable, "-c", _ARENA_CHILD], cwd=tmp_path, env=_child_env(),
                         capture_output=True, text=True, timeout=60, check=True)
    arenas = [line for line in out.stderr.splitlines() if line.startswith("Arena ")]
    assert len(arenas) == 1, out.stderr


def _certify_bytes(out, cfg):
    assert main(["certify", "--config", cfg, "--out", str(out)]) == 0
    return (out / "certify.csv").read_bytes()


def test_policy_values_and_fallbacks(tmp_path, certify_cfg, monkeypatch):
    expected = _certify_bytes(tmp_path / "plain", certify_cfg)

    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return 1

    monkeypatch.setattr(ctypes, "CDLL", lambda name: types.SimpleNamespace(mallopt=mallopt))
    assert _certify_bytes(tmp_path / "recorded", certify_cfg) == expected
    assert calls == [(-3, 4 << 20), (-1, 32 << 20), (-8, 1)]
    assert mallopt.argtypes == (ctypes.c_int, ctypes.c_int)

    def no_libc(name):
        raise OSError("no C library")

    monkeypatch.setattr(ctypes, "CDLL", no_libc)
    assert _certify_bytes(tmp_path / "no-libc", certify_cfg) == expected

    monkeypatch.setattr(ctypes, "CDLL", lambda name: object())
    assert _certify_bytes(tmp_path / "no-mallopt", certify_cfg) == expected
