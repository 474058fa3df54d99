"""Outside-in span recorder and the per-layer metrics derived from its spans.

The recorder wraps, from outside the library, the module attributes
through which one mvml layer calls the next (``mvml.solver.svt``,
``mvml.experiments.fit``, ...). Each wrapped call appends a span
``[name, start, end, parent]`` to an in-memory list; nothing inside
``src/`` changes. Spans nest under a root span that the benchmark opens
for set-up or for one timed operation, and every per-layer metric is
the set-up share plus the mean over the traced operations.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

SETUP = "setup"
OP = "op"

# Span names of the Gram-route trace-norm kernels and whether each reassembles a matrix.
GRAM_KERNELS = {
    "linalg.svt": True,
    "linalg.nuclear_norm": False,
    "linalg.trace_norm_subgradient": True,
}


def _dir_bytes(path):
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


def _count_gram(name):
    reassembles = GRAM_KERNELS[name]

    def count(rec, args, result):
        m, c = np.shape(args[0])
        short, long = min(m, c), max(m, c)
        gram = 2 * long * short * short
        flops = gram + 9 * short**3 + (gram if reassembles else 0)
        rec.add("linalg.gram_flop", flops)
        rec.add("linalg.gram_byte", 8 * m * c + np.asarray(result).nbytes)

    return count


def _count_fit(rec, args, result):
    trace = result[1]
    rec.add("solver.sweeps", trace.iterations)
    rec.add("solver.converged", int(trace.converged))
    if rec.root() == OP:
        rec.sweep_seconds.extend(trace.seconds)


def _count_load(rec, args, result):
    rec.add("dataset_io.load_dataset.bytes", _dir_bytes(args[0]))


def _count_save(rec, args, result):
    rec.add("dataset_io.save_dataset.bytes", _dir_bytes(args[1]))


def _count_export(rec, args, result):
    rec.add("experiments.export_report.bytes", sum(Path(p).stat().st_size for p in result))


# (module, attribute, span name, counter): the names each layer calls the next through.
TARGETS = (
    ("mvml.solver", "svt", "linalg.svt", _count_gram("linalg.svt")),
    ("mvml.solver", "nuclear_norm", "linalg.nuclear_norm", _count_gram("linalg.nuclear_norm")),
    ("mvml.solver", "trace_norm_subgradient", "linalg.trace_norm_subgradient",
     _count_gram("linalg.trace_norm_subgradient")),
    ("mvml.solver", "fit", "solver.fit", _count_fit),
    ("mvml.solver", "predict", "solver.predict", None),
    ("mvml.metrics", "evaluate_predictions", "metrics.evaluate_predictions", None),
    ("mvml.metrics", "hamming_loss", "metrics.hamming_loss", None),
    ("mvml.metrics", "ranking_loss", "metrics.ranking_loss", None),
    ("mvml.metrics", "average_precision", "metrics.average_precision", None),
    ("mvml.metrics", "adapted_auc", "metrics.adapted_auc", None),
    ("mvml.masking", "generate_synthetic", "masking.generate_synthetic", None),
    ("mvml.masking", "corrupt", "masking.corrupt", None),
    ("mvml.dataset_io", "save_dataset", "dataset_io.save_dataset", _count_save),
    ("mvml.cli", "main", "cli.main", None),
    ("mvml.cli", "run_experiment", "experiments.run_experiment", None),
    ("mvml.experiments", "load_dataset", "dataset_io.load_dataset", _count_load),
    ("mvml.experiments", "run_repeat", "experiments.run_repeat", None),
    ("mvml.experiments", "corrupt", "masking.corrupt", None),
    ("mvml.experiments", "fit", "solver.fit", _count_fit),
    ("mvml.experiments", "predict", "solver.predict", None),
    ("mvml.experiments", "evaluate_predictions", "metrics.evaluate_predictions", None),
    ("mvml.experiments", "export_report", "experiments.export_report", _count_export),
)


class Recorder:
    """In-memory spans and counters of one traced benchmark run."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None]
        self.counters = {}  # (root name, key) -> total
        self.sweep_seconds = []  # per-sweep seconds of the fits inside traced operations
        self._open = []

    def begin(self, name):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append([name, time.perf_counter(), None, parent])
        self._open.append(index)
        return index

    def end(self, index):
        self.spans[index][2] = time.perf_counter()
        self._open.pop()

    def root(self):
        return self.spans[self._open[0]][0] if self._open else SETUP

    def add(self, key, value):
        slot = (self.root(), key)
        self.counters[slot] = self.counters.get(slot, 0) + value

    def wrap(self, fn, name, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if count is not None:
                count(self, args, result)
            return result

        return traced

    def traced_spd_factor(self, base):
        """Subclass of ``SpdFactor`` whose factorizations and solves are spans."""
        rec = self

        class TracedSpdFactor(base):
            def __init__(self, m):
                index = rec.begin("linalg.spd_factor")
                try:
                    super().__init__(m)
                finally:
                    rec.end(index)

            def solve(self, rhs):
                index = rec.begin("linalg.spd_solve")
                try:
                    return super().solve(rhs)
                finally:
                    rec.end(index)

        return TracedSpdFactor


@contextmanager
def installed(rec, root):
    """Wrap every target and open a root span; a no-op when ``rec`` is None."""
    if rec is None:
        yield
        return
    saved = []
    for module_name, attr, name, count in TARGETS:
        module = importlib.import_module(module_name)
        saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, rec.wrap(getattr(module, attr), name, count))
    solver = importlib.import_module("mvml.solver")
    saved.append((solver, "SpdFactor", solver.SpdFactor))
    solver.SpdFactor = rec.traced_spd_factor(solver.SpdFactor)
    index = rec.begin(root)
    try:
        yield
    finally:
        rec.end(index)
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def _span_totals(rec):
    """Per (root, name): calls, seconds and self seconds of the non-root spans."""
    child_time = [0.0] * len(rec.spans)
    roots = [None] * len(rec.spans)
    for i, (name, start, end, parent) in enumerate(rec.spans):
        roots[i] = name if parent is None else roots[parent]
        if parent is not None:
            child_time[parent] += end - start
    totals = {}
    for i, (name, start, end, parent) in enumerate(rec.spans):
        if parent is None:
            continue
        calls, secs, self_secs = totals.get((roots[i], name), (0, 0.0, 0.0))
        duration = end - start
        totals[(roots[i], name)] = (calls + 1, secs + duration, self_secs + duration - child_time[i])
    return totals


def layer_metrics(rec, import_s, overhead_s):
    """Per-layer metrics: set-up share plus the mean over the traced operations.

    Needs at least one traced operation that ran a fit.
    """
    n_ops = sum(1 for span in rec.spans if span[3] is None and span[0] == OP)
    totals = _span_totals(rec)

    def per_run(get):
        return get(SETUP) + get(OP) / n_ops

    def span(name, part):
        return per_run(lambda root: totals.get((root, name), (0, 0.0, 0.0))[part])

    def counter(key):
        return per_run(lambda root: rec.counters.get((root, key), 0))

    out = {"import.mvml_s": (import_s, "s")}
    for name in (
        "masking.generate_synthetic", "masking.corrupt", "dataset_io.save_dataset",
        "dataset_io.load_dataset", "cli.main", "experiments.run_experiment",
        "experiments.run_repeat", "experiments.export_report", "solver.fit", "solver.predict",
        "linalg.svt", "linalg.nuclear_norm", "linalg.trace_norm_subgradient",
        "linalg.spd_factor", "linalg.spd_solve", "metrics.evaluate_predictions",
        "metrics.hamming_loss", "metrics.ranking_loss", "metrics.average_precision",
        "metrics.adapted_auc",
    ):
        out[f"{name}.calls"] = (span(name, 0), "count")
        out[f"{name}.s"] = (span(name, 1), "s")
    for name in ("cli.main", "solver.fit"):
        out[f"{name}.self_s"] = (span(name, 2), "s")
    for key in ("dataset_io.load_dataset.bytes", "dataset_io.save_dataset.bytes",
                "experiments.export_report.bytes"):
        out[key] = (counter(key), "B")

    fits = span("solver.fit", 0)
    out["solver.sweeps"] = (counter("solver.sweeps"), "count")
    out["solver.converged_ratio"] = (counter("solver.converged") / fits, "1")
    sweep_ms = 1e3 * np.asarray(rec.sweep_seconds)
    out["solver.sweep_ms.p50"] = (float(np.percentile(sweep_ms, 50)), "ms")
    out["solver.sweep_ms.p90"] = (float(np.percentile(sweep_ms, 90)), "ms")
    out["solver.sweep_ms.samples"] = (len(rec.sweep_seconds), "count")

    kernel_s = sum(span(name, 1) for name in GRAM_KERNELS)
    flops = counter("linalg.gram_flop")
    out["linalg.gram_gflop"] = (flops / 1e9, "Gflop_computed")
    out["linalg.gram_gbyte"] = (counter("linalg.gram_byte") / 1e9, "GB_computed")
    out["linalg.gram_gflop_per_s"] = (flops / 1e9 / kernel_s, "Gflop/s")
    out["trace.overhead_s"] = (overhead_s, "s")
    return out
