"""Experiment pipeline: split, corrupt, fit, score, and report.

An experiment fixes a dataset source (a synthetic spec or an on-disk
directory), a corruption recipe, a solver configuration, and a split
policy. Each repeat derives its own sub-seeds, splits the aligned
source into train and test, corrupts only the training split, fits,
predicts on the untouched test split, and scores the four headline
metrics. Reports serialize to JSON (source of truth) and CSV; repeated
runs of the same configuration produce byte-identical JSON once the
timing fields are stripped.

A command's repeats, over all of its configurations, are independent
tasks, which ``run_experiments`` spreads over one lane per CPU. The
calling process is the first lane and starts on the first task; each
other lane is one spawned worker process that receives the dataset once.
A lane claims the next unclaimed task whenever it is free, by reading one
record from a pipe that holds the task numbers. Outcomes are put back in
task order, so reports, summaries and errors do not depend on the lane
count.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import struct
import threading
import time
from dataclasses import dataclass, fields, replace
from itertools import chain
from pathlib import Path

import numpy as np

from .data import MultiViewDataset, ViewData
from .dataset_io import csv_text, json_text, load_dataset, write_file
from .errors import (
    InvalidInput, MvmlError, WorkerDied, _check_int, _check_list, _check_real, _check_rows,
    _check_seed, _check_type, _set_checked,
)
from .linalg import trace_norm_subgradient
from .masking import CorruptionSpec, SyntheticSpec, corrupt, generate_synthetic
from .metrics import METRIC_NAMES, evaluate_predictions
from .solver import SolverConfig, SolverTrace, fit, predict

# Keys treated as wall-clock noise and ignored by report comparisons.
TIMING_KEYS = ("timing",)

DEFAULT_LAMBDA_GRID = (1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0)
DEFAULT_MU_GRID = (1.0, 5.0, 10.0)

REPORT_FORMATS = ("json", "csv")

# Omitted dataset.synthetic fields of a config file take these values, not
# SyntheticSpec's, where they differ; "dims" gives the features of every view.
CONFIG_SYNTHETIC_DEFAULTS = {"positives_per_sample": 3, "noise_sigma": 0.6, "dims": 40}

# Sub-seed stream tags for per-repeat derivation.
_STREAM_SPLIT = 0
_STREAM_CORRUPT = 1
_STREAM_INIT = 2

# A lane claims a block of tasks by reading its number, one 4-byte record, from a pipe.
# All the numbers go in one write of at most POSIX's least PIPE_BUF bytes, which an empty
# pipe always takes without blocking, and a read of one record takes it whole, so no two
# lanes claim one block.
_PIPE_BUF = 512
_CLAIM = struct.Struct("=I")
_MAX_CLAIMS = _PIPE_BUF // _CLAIM.size


def _fields_dict(spec):
    return {f.name: getattr(spec, f.name) for f in fields(spec)}


def _config_object(name, body):
    if not isinstance(body, dict):
        raise InvalidInput(f"config section '{name}' must be an object")
    return body


def _section(name, body, default):
    """``default`` with the fields that the config section ``body`` sets."""
    extra = set(_config_object(name, body)) - {f.name for f in fields(default)}
    if extra:
        raise InvalidInput(f"unknown {name} keys: {sorted(extra)}")
    try:
        return replace(default, **body)
    except InvalidInput as exc:
        raise InvalidInput(f"bad {name} section: {exc}")


def _synthetic_section(body):
    """The SyntheticSpec of a config file; ``views`` may stand for ``n_views``."""
    body = dict(_config_object("dataset.synthetic", body))
    if "views" in body:
        if "n_views" in body:
            raise InvalidInput("dataset.synthetic takes views or n_views, not both")
        body["n_views"] = body.pop("views")
    n_views = _check_int(body.get("n_views", SyntheticSpec.n_views), "n_views")
    dims = (CONFIG_SYNTHETIC_DEFAULTS["dims"],) * n_views
    default = SyntheticSpec(**{**CONFIG_SYNTHETIC_DEFAULTS, "n_views": n_views, "dims": dims})
    return _section("dataset.synthetic", body, default)


def derive_seed(base, *key):
    """Fold ``(base, *key)`` into a fresh uint64 seed, deterministically."""
    seq = np.random.SeedSequence([int(base), *[int(k) for k in key]])
    return int(seq.generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class SplitSpec:
    """Train fraction and the seed of the per-repeat permutations."""

    train_fraction: float = 0.7
    seed: int = 0

    def __post_init__(self):
        _set_checked(self, _check_real, "train_fraction", bound="in (0, 1)")
        _set_checked(self, _check_seed, "seed")


@dataclass(frozen=True)
class ExperimentConfig:
    source: SyntheticSpec | str
    corruption: CorruptionSpec = CorruptionSpec()
    solver: SolverConfig = SolverConfig(lam=0.5)
    split: SplitSpec = SplitSpec()
    repeats: int = 10
    outputs: str | None = None

    def __post_init__(self):
        if not isinstance(self.source, (SyntheticSpec, str)):
            raise InvalidInput("source must be a SyntheticSpec or a dataset directory path")
        _check_type(self.corruption, "corruption", CorruptionSpec)
        _check_type(self.solver, "solver", SolverConfig)
        _check_type(self.split, "split", SplitSpec)
        _set_checked(self, _check_int, "repeats", low=1)
        if self.outputs is not None and not isinstance(self.outputs, str):
            raise InvalidInput("outputs must be a string path")

    def to_dict(self):
        if isinstance(self.source, SyntheticSpec):
            synthetic = _fields_dict(self.source)
            synthetic["views"] = synthetic.pop("n_views")
            synthetic["dims"] = list(synthetic["dims"])
            source = {"synthetic": synthetic}
        else:
            source = {"path": self.source}
        return {
            "dataset": source,
            "corruption": _fields_dict(self.corruption),
            "solver": {**_fields_dict(self.solver), "variant": self.solver.variant.value},
            "split": _fields_dict(self.split),
            "repeats": self.repeats,
            "outputs": self.outputs,
        }

    @staticmethod
    def from_dict(raw):
        if not isinstance(raw, dict):
            raise InvalidInput("experiment config must be a JSON object")
        defaults = {f.name: f.default for f in fields(ExperimentConfig)}
        unknown = set(raw) - ({"dataset", *defaults} - {"source"})
        if unknown:
            raise InvalidInput(f"unknown config keys: {sorted(unknown)}")

        dataset = _config_object("dataset", raw.get("dataset", {}))
        if len(dataset) != 1 or not set(dataset) <= {"synthetic", "path"}:
            raise InvalidInput("config needs one of dataset.synthetic and dataset.path")
        if "path" in dataset:
            source = dataset["path"]
        else:
            source = _synthetic_section(dataset["synthetic"])
        return ExperimentConfig(
            source=source,
            **{name: _section(name, raw.get(name, {}), defaults[name])
               for name in ("corruption", "solver", "split")},
            repeats=raw.get("repeats", defaults["repeats"]),
            outputs=raw.get("outputs"),
        )

    @property
    def config_hash(self):
        body = self.to_dict()
        body.pop("outputs")  # where a run writes does not change what it computes
        canon = json.dumps(body, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()


@dataclass
class RepeatResult:
    metrics: dict
    n_test: int
    trace: SolverTrace
    fit_seconds: float

    def to_dict(self):
        return {
            "metrics": dict(self.metrics),
            "n_test": self.n_test,
            "solver": self.trace.summary(),
            "convergence": self.trace.to_dict(),
            "timing": {**self.trace.timing(), "fit_seconds": self.fit_seconds},
        }


@dataclass
class RunRecord:
    config_hash: str
    config: dict
    repeats: list[RepeatResult]
    summary: dict

    def to_dict(self):
        return {
            "config_hash": self.config_hash,
            "config": self.config,
            "repeats": [r.to_dict() for r in self.repeats],
            "summary": self.summary,
        }


def strip_timing(obj):
    """Copy of a report structure with every timing subtree removed."""
    if isinstance(obj, dict):
        return {k: strip_timing(v) for k, v in obj.items() if k not in TIMING_KEYS}
    if isinstance(obj, list):
        return [strip_timing(v) for v in obj]
    return obj


def split_indices(n, split, repeat):
    """Disjoint (train, test) index arrays for one repeat, ascending order."""
    rng = np.random.default_rng(np.random.SeedSequence([split.seed, _STREAM_SPLIT, repeat]))
    perm = rng.permutation(n)
    n_train = int(split.train_fraction * n)
    if n_train < 1 or n_train >= n:
        raise InvalidInput(
            f"train_fraction {split.train_fraction} leaves an empty split for n={n}"
        )
    return np.sort(perm[:n_train]), np.sort(perm[n_train:])


def subset_dataset(ds, rows):
    """Row subset of an aligned dataset, one shared selection for all views.

    A label matrix that several views share is gathered once, and the views of
    the subset share the gathered matrix, read-only.
    """
    _check_type(ds, "ds", MultiViewDataset)
    if not ds.aligned:
        raise InvalidInput("row subsetting requires an aligned dataset")
    rows = _check_rows(rows, ds.n_samples, "rows")
    gathered = {}  # id of a view's label matrix -> its rows
    for view in ds.views:
        if id(view.labels) not in gathered:
            gathered[id(view.labels)] = view.labels[rows]
        else:
            gathered[id(view.labels)].flags.writeable = False
    views = [
        ViewData(
            features=view.features[rows],
            labels=gathered[id(view.labels)],
            missing_rows=view.missing_rows[rows],
        )
        for view in ds.views
    ]
    return MultiViewDataset(views=views, aligned=True)


def load_source(config):
    """Materialize the experiment's dataset source."""
    if isinstance(config.source, SyntheticSpec):
        return generate_synthetic(config.source)
    return load_dataset(config.source)


def run_repeat(ds, config, repeat):
    """Split, corrupt the training half, fit, and score one repeat."""
    train_idx, test_idx = split_indices(ds.n_samples, config.split, repeat)
    train = subset_dataset(ds, train_idx)
    test = subset_dataset(ds, test_idx)

    cspec = replace(config.corruption, seed=derive_seed(config.corruption.seed, _STREAM_CORRUPT, repeat))
    train = corrupt(train, cspec)

    scfg = replace(config.solver, init_seed=derive_seed(config.solver.init_seed, _STREAM_INIT, repeat))
    t0 = time.perf_counter()
    w, trace = fit(train, scfg)
    fit_seconds = time.perf_counter() - t0

    scores = predict(w, test)
    report = evaluate_predictions(scores, test.views[0].labels)
    return RepeatResult(
        metrics={name: getattr(report, name) for name in METRIC_NAMES},
        n_test=test.n_samples,
        trace=trace,
        fit_seconds=fit_seconds,
    )


def summarize(repeats):
    """Mean and sample standard deviation per metric, in metric order."""
    summary = {}
    for name in METRIC_NAMES:
        values = np.array([r.metrics[name] for r in repeats])
        std = float(np.std(values, ddof=1)) if values.size > 1 else 0.0
        summary[name] = {"mean": float(np.mean(values)), "std": std}
    return summary


def run_experiment(config, fmt="json"):
    """Run all repeats of one configuration and optionally write reports.

    Returns the :class:`RunRecord`; reports land under ``config.outputs``
    when that is set. The repeats run on one lane per CPU the process may
    use, as ``run_experiments`` describes; the record, the reports and an
    error, which names its repeat, are the same on any number of CPUs, and
    ``taskset -c 0`` runs them one after another in this process.
    """
    _check_type(config, "config", ExperimentConfig)
    _check_format(fmt)
    (record,) = run_experiments(load_source(config), [config], fmt)
    return record


def run_experiments(ds, configs, fmt="json"):
    """Run every repeat of each configuration on the dataset ``ds`` and yield each
    configuration's :class:`RunRecord` in order, after writing its reports.

    The (configuration, repeat) tasks run on ``min(tasks, CPUs)`` lanes: this
    process takes the first task, and each further lane is a spawned worker
    process. A fit runs on the thread that calls it, so the lanes run no more
    fits at once than there are CPUs. Every task runs before the first record
    is yielded, and every worker has ended by then. The first failing task in
    task order raises its ``MvmlError``, prefixed ``repeat r: ``, where its
    configuration's record would be; a worker that dies with a task raises
    ``WorkerDied`` there.
    """
    _check_type(ds, "ds", MultiViewDataset)
    configs = [_check_type(c, f"configs[{k}]", ExperimentConfig)
               for k, c in enumerate(_check_list(configs, "configs"))]
    _check_format(fmt)
    tasks = [(k, r) for k, config in enumerate(configs) for r in range(config.repeats)]
    outcomes = _run_tasks(ds, configs, tasks)
    for k, config in enumerate(configs):
        repeats = [outcome for (owner, _), outcome in zip(tasks, outcomes) if owner == k]
        for outcome in repeats:
            if not isinstance(outcome, RepeatResult):
                raise outcome  # the first failure in task order: every earlier task succeeded
        record = RunRecord(
            config_hash=config.config_hash,
            config=config.to_dict(),
            repeats=repeats,
            summary=summarize(repeats),
        )
        if config.outputs is not None:
            export_report(record, fmt, config.outputs)
        yield record


def _run_task(ds, configs, task):
    """The ``RepeatResult`` of ``task``, or the ``MvmlError`` it raised, naming its repeat."""
    k, r = task
    try:
        return run_repeat(ds, configs[k], r)
    except MvmlError as exc:
        exc.args = (f"repeat {r}: {exc}",)
        return exc


def _blocks(n):
    """``n`` task indices cut into at most ``_MAX_CLAIMS`` consecutive blocks."""
    per = -(-n // _MAX_CLAIMS)
    return [range(lo, min(lo + per, n)) for lo in range(0, n, per)]


def _lane(ds, configs, tasks, blocks, keep):
    """Run the tasks of each block in turn, calling ``keep(index, outcome)`` for each.
    Returns False as soon as a task fails, True when the blocks run out."""
    for block in blocks:
        for i in block:
            outcome = _run_task(ds, configs, tasks[i])
            keep(i, outcome)
            if not isinstance(outcome, RepeatResult):
                return False
    return True


def _claimed(claims, blocks):
    """The blocks whose numbers this lane reads from the pipe ``claims``, until it is empty."""
    while record := os.read(claims.fileno(), _CLAIM.size):
        yield blocks[_CLAIM.unpack(record)[0]]


def _drain(claims):
    """Claim every block left, so that no lane starts a task after a failed one."""
    while os.read(claims.fileno(), _PIPE_BUF):
        pass


def _first_gap(outcomes):
    """The index of the first task without a ``RepeatResult``, or None."""
    return next((i for i, o in enumerate(outcomes) if not isinstance(o, RepeatResult)), None)


def _cpus():
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _run_tasks(ds, configs, tasks):
    """Each task's outcome, in task order: its ``RepeatResult`` or its error; None for a
    task that no lane ran because an earlier one failed."""
    outcomes = [None] * len(tasks)
    blocks = _blocks(len(tasks))
    lanes = min(len(tasks), _cpus())
    if lanes == 1:
        _lane(ds, configs, tasks, blocks, outcomes.__setitem__)
    else:
        _spread(ds, configs, tasks, blocks, lanes, outcomes)
    return outcomes


def _spread(ds, configs, tasks, blocks, lanes, outcomes):
    """Run the tasks on this process and ``lanes - 1`` spawned workers, into ``outcomes``.

    Spawn never forks this process, whose BLAS library keeps threads, and passes
    it ``sys.path``. A sender thread per worker writes it the dataset, so this
    lane starts at once. When every task up to the first failure has its
    outcome, no worker has work left: those still running, such as one that
    never finished starting, are terminated, and all are joined. The resource
    tracker that spawning starts is stopped too, unless it ran before.
    """
    import multiprocessing
    from multiprocessing.connection import wait
    from multiprocessing.resource_tracker import _resource_tracker as tracker

    context = multiprocessing.get_context("spawn")
    tracker_ran = tracker._fd is not None
    claims, claims_w = context.Pipe(duplex=False)
    os.write(claims_w.fileno(), b"".join(_CLAIM.pack(b) for b in range(1, len(blocks))))
    claims_w.close()
    payload = pickle.dumps((ds, configs, tasks), pickle.HIGHEST_PROTOCOL)
    owned, workers, results, senders, ended = [claims], [], {}, [], []
    try:
        for _ in range(lanes - 1):
            payload_r, payload_w = context.Pipe(duplex=False)
            results_r, results_w = context.Pipe(duplex=False)
            owned += [payload_w, results_r]
            worker = context.Process(target=_worker, args=(claims, payload_r, results_w),
                                     daemon=True)
            try:
                worker.start()
            finally:  # the worker holds its own ends now
                payload_r.close()
                results_w.close()
            workers.append(worker)
            results[results_r] = worker
            senders.append(threading.Thread(target=_send, args=(payload_w, payload)))
            senders[-1].start()
        lane = chain(blocks[:1], _claimed(claims, blocks))
        if not _lane(ds, configs, tasks, lane, outcomes.__setitem__):
            _drain(claims)
        gap = _first_gap(outcomes)
        while results and gap is not None and outcomes[gap] is None:
            for conn in wait(list(results)):
                try:
                    outcomes.__setitem__(*conn.recv())
                except EOFError:  # the worker has ended
                    ended.append(results.pop(conn))
            gap = _first_gap(outcomes)
    finally:
        for worker in workers:
            worker.terminate()
        for worker in workers:
            worker.join()
        for sender in senders:
            sender.join()
        for conn in owned:
            conn.close()
        if not tracker_ran:
            tracker._stop()
    if gap is not None and outcomes[gap] is None:
        code = next((w.exitcode for w in ended if w.exitcode), None)
        outcomes[gap] = WorkerDied(
            f"repeat {tasks[gap][1]}: the worker process running it died (exit code {code})"
        )


def _send(conn, payload):
    """Write ``payload`` to a worker, which may end before it reads it all."""
    try:
        conn.send_bytes(payload)
    except BrokenPipeError:
        pass


def _worker(claims, payload, results):
    """A worker lane: it reads the dataset, configurations and tasks once, then sends
    ``(index, outcome)`` for each task it claims, until the claims run out or a task fails."""
    ds, configs, tasks = pickle.loads(payload.recv_bytes())
    payload.close()
    blocks = _blocks(len(tasks))
    if not _lane(ds, configs, tasks, _claimed(claims, blocks), lambda *sent: results.send(sent)):
        _drain(claims)


def _check_format(fmt):
    if fmt not in REPORT_FORMATS:
        raise InvalidInput(f"format must be one of {REPORT_FORMATS}, got {fmt!r}")


def export_report(record, fmt, out_dir):
    """Write a run record under ``out_dir``; returns the written paths.

    ``json`` writes ``report.json`` (sorted keys, convergence series
    embedded). ``csv`` writes ``metrics.csv`` with one row per metric
    (mean, std, then the per-repeat values) plus one
    ``convergence_XX.csv`` per repeat with columns iteration,
    objective, surrogate, residual.
    """
    _check_format(fmt)
    out = Path(out_dir)
    if fmt == "json":
        return [write_file(out / "report.json", json_text(record.to_dict()))]

    rows = [["metric", "mean", "std"] + [f"rep{r:02d}" for r in range(len(record.repeats))]]
    for name in METRIC_NAMES:
        rows.append(
            [name, repr(record.summary[name]["mean"]), repr(record.summary[name]["std"])]
            + [repr(r.metrics[name]) for r in record.repeats]
        )
    written = [write_file(out / "metrics.csv", csv_text(rows))]
    for r, repeat in enumerate(record.repeats):
        written.append(write_file(out / f"convergence_{r:02d}.csv", csv_text(repeat.trace.rows())))
    return written


def bench_subgradient(
    sizes=((10000, 100), (10000, 200), (20000, 100), (20000, 200), (40000, 100), (40000, 200)),
    repeats=10,
    seed=0,
    oracle_memory_limit=2e9,
):
    """Time the Gram-route subgradient against a full-SVD oracle.

    The oracle computes ``numpy.linalg.svd(a, full_matrices=True)`` and
    forms ``U[:, :r] @ Vt[:r]``; sizes whose full ``U`` would exceed
    ``oracle_memory_limit`` bytes skip the oracle (reported as None).
    Returns one row per size with mean seconds per method.
    """
    repeats = _check_int(repeats, "repeats", low=1)
    seed = _check_seed(seed)
    memory_limit = _check_real(oracle_memory_limit, "oracle_memory_limit", bound="nonnegative")
    results = []
    for size in _check_list(sizes, "sizes"):
        if not isinstance(size, (tuple, list)) or len(size) != 2:
            raise InvalidInput(f"each size must be an (n, c) pair, got {size!r}")
        n, c = _check_int(size[0], "n", low=1), _check_int(size[1], "c", low=1)
        rng = np.random.default_rng(np.random.SeedSequence([seed, n, c]))
        a = rng.standard_normal((n, c))

        trace_norm_subgradient(a)  # warm-up
        kernel_times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            trace_norm_subgradient(a)
            kernel_times.append(time.perf_counter() - t0)

        oracle_bytes = 8 * (n * n + n * c + c * c)
        oracle_seconds = None
        if oracle_bytes <= memory_limit:
            oracle_times = []
            for _ in range(repeats):
                t0 = time.perf_counter()
                u, sigma, vt = np.linalg.svd(a, full_matrices=True)
                r = int(np.count_nonzero(sigma > 1e-10 * max(sigma[0], 1.0)))
                u[:, :r] @ vt[:r]
                oracle_times.append(time.perf_counter() - t0)
            oracle_seconds = float(np.mean(oracle_times))

        results.append(
            {
                "n": n,
                "c": c,
                "kernel_seconds": float(np.mean(kernel_times)),
                "oracle_seconds": oracle_seconds,
            }
        )
    return results
