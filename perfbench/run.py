"""smoothcert benchmark: drive the real CLI, one subcommand process at a time.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload moons|mnist|theory|all --seed N \
        --seconds S --trace 0|1

The load is a closed loop with one client: each subcommand starts after the
previous one exits. A run prepares the workload's inputs from --seed, then
repeats the workload's subcommand sequence (an iteration) until --seconds
have passed, and reports medians over the iterations.

--trace 0 measures the end-to-end metrics with nothing wrapped: set-up time
(median of SETUP_PROBES fresh processes), pipeline wall time and peak RSS.
These three apply to every workload; the per-subcommand throughputs and the
SmoothMix ACR exist only on some workloads, so they are printed beside them
and reported as per-layer metrics. --trace 1 alternates untraced and traced
iterations and reports the per-layer metrics: span aggregates from
perfbench/trace_child.py, per subcommand wall time and peak RSS from each
child's rusage, throughput per subcommand, the SmoothMix ACR, and the
tracing overhead. --workload all runs the three workloads in turn and
prefixes each metric name with its workload.

Every iteration's artifacts are checked (perfbench/checks.py) and digested
with wall-clock fields masked; all iterations of one run must produce the
same digest, traced or not. Each subcommand run and each check is one
operation; a failed one counts in `failed`. The last stdout line is one JSON
object with keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from checks import artifact_digest  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

SETUP_PROBES = 7
MIN_ITERATIONS = 2
# Whole-run limit: every child is killed once this many seconds have passed.
HARD_LIMIT_S = 170.0
# BLAS threads for program processes: one client on a small machine, and
# artifacts are only byte-stable for a fixed thread count.
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORK_DIR = ".perfbench_work"

END_TO_END = {"setup_s": "s", "pipeline_s": "s", "peak_rss_mib": "MiB"}

# Per-layer metrics: (span name, fields) read from the traced aggregates.
SPAN_FIELDS = [
    ("rng.generator", ("calls", "s", "us_per_call")),
    ("config.build_dataset", ("s",)),
    ("data.load_mnist_idx", ("calls", "s")),
    ("nn.forward.by_smoothing", ("calls", "s")),
    ("nn.forward.by_adversary", ("calls", "s")),
    ("nn.forward.by_evaluation", ("calls", "s")),
    ("nn.class_prob_grad_input", ("calls", "s")),
    ("nn.sgd_nesterov_step", ("calls", "s")),
    ("nn.save_checkpoint", ("s",)),
    ("nn.load_checkpoint", ("calls", "s")),
    ("smoothing.certify", ("calls", "s")),
    ("smoothing.hard_class_counts", ("s", "self_s")),
    ("smoothing.clopper_pearson_lower", ("calls", "s", "us_per_call")),
    ("smoothing.sample_noise", ("s",)),
    ("smoothing.write_certification_csv", ("s",)),
    ("smoothing.read_certification_csv", ("s",)),
    ("adversary.smoothadv_pgd", ("calls", "s", "self_s")),
    ("training.train.gaussian", ("s", "self_s")),
    ("training.train.smoothadv", ("s", "self_s")),
    ("training.train.smoothmix", ("s", "self_s")),
    ("evaluation.equal_confidence_mixing_ratio", ("calls", "s", "self_s")),
    ("evaluation.write_metrics_csv", ("s",)),
    ("theory.interval_halfwidth_k.gaussian", ("s",)),
    ("theory.interval_halfwidth_k.uniform_pm", ("s",)),
    ("theory.worst_case_prob.gaussian", ("s",)),
    ("theory.worst_case_prob.uniform_pm", ("s",)),
]
# Counters summed over a traced iteration, reported under their own names.
COUNTERS = ("nn.forward.by_smoothing.rows", "nn.forward.by_adversary.rows",
            "nn.forward.by_evaluation.rows", "nn.class_prob_grad_input.rows",
            "smoothing.hard_class_counts.draws", "theory.draws")
CLI_COMMANDS = ("train", "certify", "evaluate", "mixratio", "theory-sim")
RATES = {  # metric -> step names whose work and wall time it divides
    "train_gaussian_examples_per_s": ("train_gaussian",),
    "train_smoothadv_examples_per_s": ("train_smoothadv",),
    "train_smoothmix_examples_per_s": ("train_smoothmix",),
    "certify_points_per_s": ("certify_gaussian", "certify_smoothadv",
                             "certify_smoothmix"),
    "mixratio_points_per_s": ("mixratio_smoothmix",),
    "theory_trials_per_s": ("theory_sim",),
}
UNITS = [("_per_call", "us"), ("gflop_per_s", "GFLOP/s"), ("_per_s", "1/s"),
         ("mib", "MiB"), ("ratio", "ratio"), ("acr_smoothmix", "l2"),
         (".s", "s"), ("self_s", "s"), ("overhead_s", "s")]


def unit_of(name: str) -> str:
    for suffix, unit in UNITS:
        if name.endswith(suffix):
            return unit
    return "count"


def per_layer_names() -> list:
    names = [f"{span}.{f}" for span, fields in SPAN_FIELDS for f in fields]
    names += COUNTERS
    names += ["nn.forward.by_smoothing.gflop_per_s",
              "nn.forward.by_evaluation.max_rows",
              "data.load_mnist_idx.file_mib", "nn.save_checkpoint.mib",
              "smoothing.certify.certified_ratio", "theory.draws_per_s"]
    names += [f"cli.{c}.{f}" for c in CLI_COMMANDS for f in ("s", "peak_rss_mib")]
    names += list(RATES) + ["acr_smoothmix", "ops_failed_ratio",
                            "trace.overhead_s", "trace.zero_call_names"]
    return names


class Ledger:
    """Operations attempted and failed: subcommand runs and output checks."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def record(self, op: str, errors) -> bool:
        self.attempted += 1
        if errors:
            self.failures.append((op, list(errors)))
        return not errors

    @property
    def failed(self) -> int:
        return len(self.failures)


def child_env(root: str, work: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["TMPDIR"] = work
    env.pop("SMOOTHCERT_OUT", None)
    for var in THREAD_VARS:
        env[var] = str(BLAS_THREADS)
    return env


def run_process(argv, cwd, env, timeout, log_path):
    """Run argv to completion; returns (exit code, wall s, peak RSS MiB).

    The child is killed after `timeout` seconds. Its peak RSS comes from its
    own rusage, reaped with wait4, so other children do not mix in.
    """
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=log,
                                stderr=subprocess.STDOUT)
        timer = threading.Timer(max(timeout, 0.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def exit_errors(code: int, log: str) -> list:
    return [] if code == 0 else [f"exit code {code}, see {log}"]


class Runner:
    """Runs one workload's iterations in a work directory of the checkout."""

    def __init__(self, root: str, workload: Workload, work: str, ledger: Ledger,
                 hard_deadline: float):
        self.workload = workload
        self.work = work
        self.ledger = ledger
        self.hard_deadline = hard_deadline
        self.env = child_env(root, work)
        self.count = 0

    def _timeout(self) -> float:
        return self.hard_deadline - time.perf_counter()

    def prepare(self) -> bool:
        """Write the inputs the iterations share, such as the IDX files."""
        os.makedirs(self.work, exist_ok=True)
        if not self.workload.prepare:
            return True
        log = os.path.join(self.work, "prepare.out")
        code, _, _ = run_process(self.workload.prepare, self.work, self.env,
                                 self._timeout(), log)
        return self.ledger.record("prepare inputs", exit_errors(code, log))

    def _new_dir(self) -> str:
        self.count += 1
        d = os.path.join(self.work, f"iter-{self.count}")
        shutil.rmtree(d, ignore_errors=True)
        os.makedirs(os.path.join(d, "logs"))
        self.workload.write_inputs(d)
        return d

    def setup_probe(self) -> float | None:
        """One fresh process importing smoothcert.cli and building datasets."""
        d = self._new_dir()
        steps = {s.name: s for s in self.workload.steps}
        items = [f"{steps[n].command}={self.workload.config_path(steps[n])}"
                 for n in self.workload.setup_steps]
        log = os.path.join(d, "logs", "setup.out")
        code, _, _ = run_process(
            [sys.executable, os.path.join(HERE, "setup_probe.py"), *items],
            d, self.env, self._timeout(), log)
        seconds = None
        if code == 0:
            with open(log, encoding="utf-8") as fh:
                seconds = json.loads(fh.read().strip().splitlines()[-1])["setup_s"]
        self.ledger.record("setup probe", exit_errors(code, log))
        shutil.rmtree(d, ignore_errors=True)
        return seconds

    def run_checks(self, iter_dir: str) -> bool:
        """Run every output check on an iteration's artifacts, one op each."""
        ok = True
        for op, check in self.workload.checks:
            try:
                errors = check(iter_dir)
            except (OSError, ValueError, KeyError, ZeroDivisionError) as exc:
                errors = [f"{type(exc).__name__}: {exc}"]
            ok &= self.ledger.record(op, errors)
        return ok

    def iteration(self, traced: bool) -> dict:
        """Run every step once; returns walls, peak RSS, trace stats, digest."""
        d = self._new_dir()
        result = {"steps": {}, "stats": [], "ok": True}
        t0 = time.perf_counter()
        for step in self.workload.steps:
            log = os.path.join(d, "logs", f"{step.name}.out")
            args = [step.command, "--config", self.workload.config_path(step),
                    "--out", step.out]
            if traced:
                stats = os.path.join(d, "logs", f"{step.name}.trace.json")
                argv = [sys.executable, os.path.join(HERE, "trace_child.py"),
                        stats, *args]
            else:
                argv = [sys.executable, "-m", "smoothcert.cli", *args]
            code, wall, rss = run_process(argv, d, self.env, self._timeout(), log)
            result["steps"][step.name] = {"s": wall, "rss": rss,
                                          "work": step.work,
                                          "command": step.command}
            if not self.ledger.record(f"{step.name} ({step.command})",
                                      exit_errors(code, log)):
                result["ok"] = False
                break
            if traced:
                with open(stats, encoding="utf-8") as fh:
                    result["stats"].append(json.load(fh))
        result["pipeline_s"] = time.perf_counter() - t0
        result["peak_rss_mib"] = max(s["rss"] for s in result["steps"].values())
        if result["ok"]:
            result["ok"] = self.run_checks(d)
        if result["ok"]:
            result["digest"] = artifact_digest(d, self.workload.artifacts)
            result["acr_smoothmix"] = smoothmix_acr(d)
        shutil.rmtree(d, ignore_errors=True)
        return result


def smoothmix_acr(iter_dir: str) -> float:
    """The smoothmix row's ACR in metrics.csv, or 0 when there is none."""
    path = os.path.join(iter_dir, "eval", "metrics.csv")
    if not os.path.exists(path):
        return 0.0
    with open(path, newline="", encoding="ascii") as fh:
        rows = {r["model"]: r for r in csv.DictReader(fh)}
    return float(rows["smoothmix"]["acr"]) if "smoothmix" in rows else 0.0


def merge_stats(stats_list) -> dict:
    """Sum span aggregates and counters over the processes of one iteration."""
    spans, counters, maxima, missing = {}, {}, {}, set()
    for stats in stats_list:
        for name, (calls, s, self_s) in stats["spans"].items():
            rec = spans.setdefault(name, [0, 0.0, 0.0])
            rec[0] += calls
            rec[1] += s
            rec[2] += self_s
        for name, v in stats["counters"].items():
            counters[name] = counters.get(name, 0) + v
        for name, v in stats["maxima"].items():
            maxima[name] = max(maxima.get(name, v), v)
        missing.update(stats["missing"])
    return {"spans": spans, "counters": counters, "maxima": maxima,
            "missing": sorted(missing)}


def _ratio(num, den):
    return num / den if den else 0.0


def traced_metrics(stats: dict) -> dict:
    spans, counters = stats["spans"], stats["counters"]
    out = {}
    for name, fields in SPAN_FIELDS:
        calls, s, self_s = spans.get(name, (0, 0.0, 0.0))
        values = {"calls": calls, "s": s, "self_s": self_s,
                  "us_per_call": _ratio(s * 1e6, calls)}
        for f in fields:
            out[f"{name}.{f}"] = values[f]
    for name in COUNTERS:
        out[name] = counters.get(name, 0)
    out["nn.forward.by_smoothing.gflop_per_s"] = _ratio(
        counters.get("nn.forward.by_smoothing.flop", 0) / 1e9,
        out["nn.forward.by_smoothing.s"])
    out["nn.forward.by_evaluation.max_rows"] = stats["maxima"].get(
        "nn.forward.by_evaluation.max_rows", 0)
    out["data.load_mnist_idx.file_mib"] = counters.get(
        "data.load_mnist_idx.bytes", 0) / 2**20
    out["nn.save_checkpoint.mib"] = counters.get("nn.save_checkpoint.bytes", 0) / 2**20
    out["smoothing.certify.certified_ratio"] = _ratio(
        counters.get("smoothing.certify.certified", 0), out["smoothing.certify.calls"])
    theory_s = sum(out[f"theory.{fn}.{fam}.s"]
                   for fn in ("interval_halfwidth_k", "worst_case_prob")
                   for fam in ("gaussian", "uniform_pm"))
    out["theory.draws_per_s"] = _ratio(out["theory.draws"], theory_s)
    return out


def untraced_metrics(it: dict) -> dict:
    """Per-subcommand wall time, peak RSS and throughput of one iteration."""
    out = {}
    for command in CLI_COMMANDS:
        runs = [s for s in it["steps"].values() if s["command"] == command]
        out[f"cli.{command}.s"] = sum((s["s"] for s in runs), 0.0)
        out[f"cli.{command}.peak_rss_mib"] = max((s["rss"] for s in runs), default=0.0)
    for metric, names in RATES.items():
        runs = [it["steps"][n] for n in names if n in it["steps"]]
        out[metric] = _ratio(sum(s["work"] for s in runs), sum(s["s"] for s in runs))
    return out


def median_dict(dicts) -> dict:
    return {k: statistics.median(d[k] for d in dicts) for k in dicts[0]}


# Run in a child so that numpy never loads into the benchmark process.
_NUMPY_INFO = """import json, numpy as np
blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
print(json.dumps({"numpy": np.__version__, "blas": {
    "name": blas.get("name"), "version": blas.get("version")}}))"""


def environment() -> dict:
    info = json.loads(subprocess.run(
        [sys.executable, "-c", _NUMPY_INFO], capture_output=True, text=True,
        check=True, timeout=60).stdout)
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        **info,
        "threads": {var: str(BLAS_THREADS) for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor(),
    }


def repeat(runner: Runner, seconds: float, trace: bool):
    """Iterations until the next one would end past `seconds`; with trace,
    each untraced iteration is followed by a traced one."""
    t0 = time.perf_counter()
    setups = []
    if not trace:
        setups = [s for s in (runner.setup_probe() for _ in range(SETUP_PROBES))
                  if s is not None]
    plain, traced = [], []
    while True:
        started = time.perf_counter()
        plain.append(runner.iteration(traced=False))
        if trace:
            traced.append(runner.iteration(traced=True))
        now = time.perf_counter()
        enough = len(plain) >= (1 if trace else MIN_ITERATIONS)
        if (enough and now - t0 + now - started > seconds) \
                or now + now - started > runner.hard_deadline \
                or not all(r["ok"] for r in plain + traced):
            return setups, plain, traced


def end_to_end_metrics(setups, plain) -> dict:
    return {"setup_s": statistics.median(setups) if setups else 0.0,
            "pipeline_s": statistics.median(r["pipeline_s"] for r in plain),
            "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in plain)}


def summary_lines(plain) -> list:
    """Per-subcommand throughput and the SmoothMix ACR, printed with the
    end-to-end metrics; the traced run reports them as per-layer metrics."""
    values = median_dict([untraced_metrics(r) for r in plain])
    values = {k: values[k] for k in RATES if values[k]}
    if plain[0]["acr_smoothmix"]:
        values["acr_smoothmix"] = plain[0]["acr_smoothmix"]
    return [f"  {k} = {v:.6g} {unit_of(k)}" for k, v in values.items()]


def per_layer_metrics(workload: Workload, plain, traced, lines) -> dict:
    merged = [merge_stats(r["stats"]) for r in traced]
    metrics = median_dict([traced_metrics(m) for m in merged])
    metrics.update(median_dict([untraced_metrics(r) for r in plain]))
    metrics["acr_smoothmix"] = plain[0]["acr_smoothmix"]
    metrics["trace.overhead_s"] = (
        statistics.median(r["pipeline_s"] for r in traced)
        - statistics.median(r["pipeline_s"] for r in plain))
    called = {n for n, rec in merged[0]["spans"].items() if rec[0] > 0}
    zero = sorted(set(workload.expected_spans) - called) + merged[0]["missing"]
    metrics["trace.zero_call_names"] = len(zero)
    lines += [f"  FLAG: traced name {z} recorded no calls" for z in zero]
    return metrics


def run_workload(root: str, name: str, seed: int, seconds: float, trace: bool,
                 hard_deadline: float):
    """Returns (metrics, ledger, report lines) for one workload."""
    workload = WORKLOADS[name](seed)
    work = os.path.join(root, WORK_DIR, f"{name}-seed{seed}-trace{int(trace)}")
    shutil.rmtree(work, ignore_errors=True)
    ledger = Ledger()
    runner = Runner(root, workload, work, ledger, hard_deadline)
    metrics, lines = {}, []
    if runner.prepare():
        t0 = time.perf_counter()
        setups, plain, traced = repeat(runner, seconds, trace)
        digests = sorted({str(r.get("digest")) for r in plain + traced})
        ledger.record("artifact digests agree", [] if len(digests) == 1 and
                      digests[0] != "None" else [f"digests differ: {digests}"])
        lines.append(f"workload {name}: seed {seed}, {len(plain)} untraced and "
                     f"{len(traced)} traced iterations in "
                     f"{time.perf_counter() - t0:.1f} s")
        lines.append(f"  artifact digest: {digests[0]}")
        if ledger.failed == 0:
            if trace:
                metrics = per_layer_metrics(workload, plain, traced, lines)
            else:
                metrics = end_to_end_metrics(setups, plain)
                lines += summary_lines(plain)
    shutil.rmtree(work, ignore_errors=True)
    return metrics, ledger, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "smoothcert", "cli.py")):
        print("perfbench: run from the root of a smoothcert checkout "
              "(src/smoothcert/cli.py not found)", file=sys.stderr)
        return 2
    start = time.perf_counter()
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    print("env: " + json.dumps(environment(), sort_keys=True))
    units = ({n: unit_of(n) for n in per_layer_names()} if args.trace
             else END_TO_END)
    combined, attempted, failed = {}, 0, 0
    for i, name in enumerate(names):
        metrics, ledger, lines = run_workload(
            root, name, args.seed, args.seconds, bool(args.trace),
            start + HARD_LIMIT_S * (i + 1))
        if args.trace and metrics:
            metrics["ops_failed_ratio"] = ledger.failed / ledger.attempted
        print("\n".join(lines))
        print(f"  ops_failed_ratio = {ledger.failed}/{ledger.attempted}")
        for op, errors in ledger.failures:
            print(f"  FAILED {op}: {'; '.join(errors[:5])}")
        prefix = f"{name}." if len(names) > 1 else ""
        for key, unit in units.items():
            if key in metrics:
                print(f"  {key} = {metrics[key]:.6g} {unit}")
                combined[prefix + key] = {"value": metrics[key], "unit": unit}
        attempted += ledger.attempted
        failed += ledger.failed
    shutil.rmtree(os.path.join(root, WORK_DIR), ignore_errors=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": combined}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
