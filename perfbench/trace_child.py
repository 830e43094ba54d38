"""Run one smoothcert CLI subcommand with spans around calls into its layers.

Usage: python perfbench/trace_child.py STATS_JSON SUBCOMMAND [CLI ARGS...]

Each traced name is rebound on the module namespace where its caller looks
it up (for example `smoothcert.adversary.forward` is the forward pass as
called by the attack code), so the program's own files stay untouched. A
span records its duration and, from the spans that open while it is open,
its self time. Spans are aggregated in memory per name and written to
STATS_JSON when the subcommand returns; the process exits with the CLI's
exit code.
"""

from __future__ import annotations

import json
import os
import sys
import time
from functools import wraps


class Tracer:
    """Per-name span aggregates: calls, seconds, self seconds, plus counters."""

    def __init__(self):
        self._open = []  # child seconds of each span still open
        self.spans = {}  # name -> [calls, seconds, self seconds]
        self.counters = {}  # name -> summed value
        self.maxima = {}  # name -> largest value seen
        self.missing = []  # names that could not be wrapped

    def add(self, name: str, value) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def peak(self, name: str, value) -> None:
        self.maxima[name] = max(self.maxima.get(name, value), value)

    def wrap(self, owner, attr: str, name, count=None) -> None:
        """Rebind owner.attr to a traced version. `name` is a span name or a
        function of the call's arguments giving one; `count(tracer, span,
        result, *args)` records counters after the call returns."""
        fn = getattr(owner, attr, None)
        if fn is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        tracer = self

        @wraps(fn)
        def traced(*args, **kwargs):
            span = name(*args, **kwargs) if callable(name) else name
            tracer._open.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = time.perf_counter() - t0
                child = tracer._open.pop()
                if tracer._open:
                    tracer._open[-1] += seconds
                rec = tracer.spans.setdefault(span, [0, 0.0, 0.0])
                rec[0] += 1
                rec[1] += seconds
                rec[2] += seconds - child
            if count is not None:
                count(tracer, span, result, *args, **kwargs)
            return result

        setattr(owner, attr, traced)

    def as_json(self) -> dict:
        return {"spans": self.spans, "counters": self.counters,
                "maxima": self.maxima, "missing": self.missing}


def _rows(x) -> int:
    shape = getattr(x, "shape", ())
    return int(shape[0]) if len(shape) == 2 else 1


def _count_forward(tracer, span, result, params, x):
    rows = _rows(x)
    tracer.add(f"{span}.rows", rows)
    tracer.peak(f"{span}.max_rows", rows)
    # multiply-adds of the dense layers, computed from the shapes
    macs = sum(W.shape[0] * W.shape[1] for W in params.weights)
    tracer.add(f"{span}.flop", 2 * rows * macs)


def _count_rows(tracer, span, result, params, x, *args):
    tracer.add(f"{span}.rows", _rows(x))


def _count_draws(tracer, span, result, params, x, count, *args):
    tracer.add(f"{span}.draws", int(count))


def _count_certified(tracer, span, result, *args):
    tracer.add(f"{span}.certified", int(result.certified))


def _count_file(tracer, span, result, path, *args, **kwargs):
    tracer.add(f"{span}.bytes", os.path.getsize(path))


def _count_idx(tracer, span, result, images, labels, *args, **kwargs):
    tracer.add(f"{span}.bytes", os.path.getsize(images) + os.path.getsize(labels))


def _count_theory(tracer, span, result, cfg, *args):
    trials = args[0] if span.startswith("theory.interval_halfwidth_k") else cfg.trials
    tracer.add("theory.draws", int(trials) * cfg.d)


def install(tracer: Tracer) -> None:
    """Wrap the public functions each layer's callers use."""
    import smoothcert.adversary as adversary
    import smoothcert.cli as cli
    import smoothcert.config as config
    import smoothcert.evaluation as evaluation
    import smoothcert.rng as rng
    import smoothcert.smoothing as smoothing
    import smoothcert.theory as theory
    import smoothcert.training as training

    tracer.wrap(rng.StreamId, "generator", "rng.generator")
    tracer.wrap(cli, "build_dataset", "config.build_dataset")
    tracer.wrap(config, "load_mnist_idx", "data.load_mnist_idx", _count_idx)
    for module in (smoothing, adversary, evaluation):
        tracer.wrap(module, "forward",
                    f"nn.forward.by_{module.__name__.rsplit('.', 1)[1]}",
                    _count_forward)
    tracer.wrap(adversary, "class_prob_grad_input", "nn.class_prob_grad_input",
                _count_rows)
    tracer.wrap(training, "sgd_nesterov_step", "nn.sgd_nesterov_step")
    tracer.wrap(cli, "save_checkpoint", "nn.save_checkpoint", _count_file)
    tracer.wrap(cli, "load_checkpoint", "nn.load_checkpoint")
    tracer.wrap(cli, "certify", "smoothing.certify", _count_certified)
    tracer.wrap(smoothing, "hard_class_counts", "smoothing.hard_class_counts",
                _count_draws)
    tracer.wrap(smoothing, "clopper_pearson_lower",
                "smoothing.clopper_pearson_lower")
    tracer.wrap(evaluation, "sample_noise", "smoothing.sample_noise")
    tracer.wrap(cli, "write_certification_csv",
                "smoothing.write_certification_csv")
    tracer.wrap(cli, "read_certification_csv",
                "smoothing.read_certification_csv")
    tracer.wrap(evaluation, "smoothadv_pgd", "adversary.smoothadv_pgd")
    tracer.wrap(cli, "train",
                lambda dataset, run_cfg, method_cfg:
                f"training.train.{run_cfg.method}")
    tracer.wrap(cli, "equal_confidence_mixing_ratio",
                "evaluation.equal_confidence_mixing_ratio")
    tracer.wrap(cli, "write_metrics_csv", "evaluation.write_metrics_csv")
    for fn in ("interval_halfwidth_k", "worst_case_prob"):
        tracer.wrap(theory, fn,
                    lambda cfg, *a, fn=fn: f"theory.{fn}.{cfg.noise_family}",
                    _count_theory)


def main(argv) -> int:
    stats_path, cli_args = argv[0], argv[1:]
    import smoothcert.cli

    tracer = Tracer()
    install(tracer)
    code = smoothcert.cli.main(cli_args)
    with open(stats_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.as_json(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
