"""Workload recipes: inputs derived from one seed, one timed operation, output checks.

Every library call goes through a module attribute (``solver.fit``,
``cli.main``, ...), so the tracer in ``perfbench.tracing`` can wrap the
same names from outside. Seeds are offsets from the reference recipes:
seed 0 reproduces the desk fit (synthetic 11, corruption 7, init 0) and
acceptance criterion 5 (synthetic 42, corruption 7, init 3, split 11).
Every input parameter is spelled out, so a change of a library default
does not silently change a workload.
"""

from __future__ import annotations

import io
import json
import math
import shutil
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from mvml import cli, dataset_io, masking, metrics, solver
from mvml.experiments import METRIC_NAMES
from mvml.objective import objective

# Sweeps per fit on ``large``: enough O(n) work per fit to dominate its fixed costs.
LARGE_SWEEPS = 15
# Repeats per variant on ``ablate``: one keeps an operation near 15 s at default threads.
ABLATE_REPEATS = 1
# The smoke-test size: n and sweep budget of every workload under ``--toy``.
TOY_N = 200
TOY_SWEEPS = 2

# Criterion 4's slack on an objective increase, relative to |f|.
MONOTONE_SLACK = 1e-8
# Round-off allowed for the surrogate to fall below the objective, relative to |f|.
SURROGATE_ROUNDOFF = 1e-10
# Agreement of the recomputed objective with the trace's last value.
OBJECTIVE_RTOL = 1e-9


@dataclass
class OpResult:
    """What one timed operation did and how long its parts took."""

    run_s: float
    fit_s: float
    sweeps: int
    fits: int
    failed: int
    auc: float
    average_precision: float
    problems: list[str] = field(default_factory=list)


def check_fit(ds, w, trace, lam):
    """Problems with a full-variant fit's trace and weights; empty when sound."""
    problems = []
    f = np.asarray(trace.objective)
    s = np.asarray(trace.surrogate)
    if f.size == 0 or not np.all(np.isfinite(f)) or not np.all(np.isfinite(s)):
        return ["objective or surrogate trace is empty or not finite"]
    rises = np.flatnonzero(np.diff(f) > MONOTONE_SLACK * np.abs(f[:-1]))
    if rises.size:
        t = int(rises[0]) + 1
        problems.append(f"objective rises at sweep {t + 1}: {float(f[t - 1])!r} -> {float(f[t])!r}")
    below = np.flatnonzero(s < f - SURROGATE_ROUNDOFF * np.abs(f))
    if below.size:
        t = int(below[0])
        problems.append(f"surrogate below objective at sweep {t + 1}: {float(s[t])!r} < {float(f[t])!r}")
    total = objective(ds, w, lam).total
    if not abs(total - f[-1]) <= OBJECTIVE_RTOL * abs(f[-1]):
        problems.append(f"objective() gives {total!r}, trace ends at {float(f[-1])!r}")
    return problems


class FitWorkload:
    """One full-variant fit of the corrupted source, scored on the clean source."""

    fits_per_op = 1

    def __init__(self, n, max_iters, rel_tol, seed):
        self.synthetic = masking.SyntheticSpec(
            n=n, c=30, n_views=3, dims=(40, 60, 80), positives_per_sample=2, noise_sigma=0.3,
            seed=11 + seed,
        )
        self.corruption = masking.CorruptionSpec(alpha=0.5, beta=0.5, dealign=True, seed=7 + seed)
        self.config = solver.SolverConfig(
            lam=0.5, mu=5.0, max_iters=max_iters, rel_tol=rel_tol, init_seed=seed
        )

    def setup(self, workdir):
        self.clean = masking.generate_synthetic(self.synthetic)
        self.train = masking.corrupt(self.clean, self.corruption)

    def run_once(self, index):
        t0 = time.perf_counter()
        w, trace = solver.fit(self.train, self.config)
        fit_s = time.perf_counter() - t0
        report = metrics.evaluate_predictions(
            solver.predict(w, self.clean), self.clean.views[0].labels
        )
        run_s = time.perf_counter() - t0
        problems = check_fit(self.train, w, trace, self.config.lam)
        return OpResult(
            run_s=run_s,
            fit_s=fit_s,
            sweeps=trace.iterations,
            fits=1,
            failed=int(bool(problems)),
            auc=report.auc,
            average_precision=report.average_precision,
            problems=problems,
        )


class AblateWorkload:
    """The in-process ``mvml ablate`` command on an on-disk dataset."""

    def __init__(self, n, max_iters, repeats, seed):
        self.synthetic = masking.SyntheticSpec(
            n=n, c=30, n_views=3, dims=(40, 60, 80), positives_per_sample=2, noise_sigma=0.8,
            seed=42 + seed,
        )
        self.config = {
            "corruption": {"alpha": 0.5, "beta": 0.5, "dealign": True, "seed": 7 + seed},
            "solver": {"lam": 0.5, "mu": 5.0, "max_iters": max_iters, "rel_tol": 1e-6,
                       "init_seed": 3 + seed},
            "split": {"train_fraction": 0.7, "seed": 11 + seed},
            "repeats": repeats,
        }
        self.repeats = repeats
        self.fits_per_op = len(solver.Variant) * repeats

    def setup(self, workdir):
        self.workdir = Path(workdir)
        dataset_io.save_dataset(masking.generate_synthetic(self.synthetic), self.workdir / "data")
        (self.workdir / "config.json").write_text(json.dumps(self.config), encoding="utf-8")

    def run_once(self, index):
        out = self.workdir / f"ablate{index}"
        argv = [
            "ablate",
            "--data", str(self.workdir / "data"),
            "--config", str(self.workdir / "config.json"),
            "--out", str(out),
        ]
        log = io.StringIO()
        t0 = time.perf_counter()
        with redirect_stdout(log), redirect_stderr(log):
            code = cli.main(argv)
        run_s = time.perf_counter() - t0
        try:
            if code != 0:
                raise RuntimeError(f"mvml ablate exited {code}: {log.getvalue().strip()}")
            return self._read_reports(out, run_s)
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def _read_reports(self, out, run_s):
        problems, failed, fit_s, sweeps = [], 0, 0.0, 0
        for variant in solver.Variant:
            path = out / f"variant_{variant.value}" / "report.json"
            report = json.loads(path.read_text(encoding="utf-8"))
            summary = {name: report["summary"][name]["mean"] for name in METRIC_NAMES}
            bad = {k: v for k, v in summary.items() if not (math.isfinite(v) and 0 <= v <= 1)}
            if bad:
                problems.append(f"{path}: summary outside [0, 1]: {bad}")
                failed += self.repeats
            for repeat in report["repeats"]:
                fit_s += repeat["timing"]["fit_seconds"]
                sweeps += repeat["solver"]["iterations"]
            if variant is solver.Variant.FULL:
                full = summary
        return OpResult(
            run_s=run_s,
            fit_s=fit_s,
            sweeps=sweeps,
            fits=self.fits_per_op,
            failed=failed,
            auc=full["auc"],
            average_precision=full["average_precision"],
            problems=problems,
        )


def make(name, seed, toy=False):
    """The named workload for ``seed``; ``toy`` shrinks it to a smoke-test size."""
    if name == "desk":
        return FitWorkload(
            n=TOY_N if toy else 2000,
            max_iters=TOY_SWEEPS if toy else 200,
            rel_tol=1e-6,
            seed=seed,
        )
    if name == "large":
        return FitWorkload(
            n=TOY_N if toy else 32000,
            max_iters=TOY_SWEEPS if toy else LARGE_SWEEPS,
            rel_tol=0.0,
            seed=seed,
        )
    if name == "ablate":
        return AblateWorkload(
            n=TOY_N if toy else 600,
            max_iters=TOY_SWEEPS if toy else 200,
            repeats=ABLATE_REPEATS,
            seed=seed,
        )
    raise ValueError(f"unknown workload {name!r}")
