"""Shared builders for randomized test datasets and weights, and lane controls for the
experiment runner."""

import json
import multiprocessing
import os
import signal
from contextlib import contextmanager

import numpy as np
import pytest

from mvml import (
    CorruptionSpec, MultiViewDataset, SyntheticSpec, ViewData, WeightStack, corrupt,
    generate_synthetic,
)
from mvml import experiments
from mvml.experiments import strip_timing

# At this mu the fit of diverging_training_set() grows its iterates about 2x a sweep
# until, after sweep 117, the Gram of a label stack overflows.
DIVERGING_SOLVER = {"lam": 0.5, "mu": 0.1, "max_iters": 150, "rel_tol": 0.0}


def make_view(rng, n, d, c, missing=None, ensure_positive_per_row=False):
    """One random view with labels in {-1, 0, +1} and optional missing rows."""
    features = rng.standard_normal((n, d))
    labels = rng.choice([-1.0, 0.0, 1.0], size=(n, c), p=[0.4, 0.2, 0.4])
    if ensure_positive_per_row:
        cols = rng.integers(0, c, size=n)
        labels[np.arange(n), cols] = 1.0
    if missing is None:
        missing = np.zeros(n, dtype=bool)
    features = features.copy()
    labels = labels.copy()
    features[missing] = 0.0
    labels[missing] = 0.0
    return ViewData(features=features, labels=labels, missing_rows=missing)


def make_dataset(rng, n=12, c=4, dims=(3, 5), with_missing=False, aligned=True,
                 ensure_positive_per_row=False):
    """Random aligned dataset; keeps every sample present in some view."""
    n_views = len(dims)
    masks = [np.zeros(n, dtype=bool) for _ in dims]
    if with_missing and n_views > 1:
        for i in range(n_views):
            drop = rng.random(n) < 0.3
            masks[i] = drop
        covered = ~np.logical_and.reduce([m for m in masks])
        for j in np.flatnonzero(~covered):
            masks[rng.integers(0, n_views)][j] = False
    views = [
        make_view(rng, n, d, c, missing=masks[i],
                  ensure_positive_per_row=ensure_positive_per_row)
        for i, d in enumerate(dims)
    ]
    return MultiViewDataset(views=views, aligned=aligned)


def diverging_training_set():
    """The corrupted n=600 set of the benchmark's ablate recipe, seed 0."""
    clean = generate_synthetic(SyntheticSpec(n=600, c=30, n_views=3, dims=(40, 60, 80),
                                             positives_per_sample=2, noise_sigma=0.8, seed=42))
    return corrupt(clean, CorruptionSpec(alpha=0.5, beta=0.5, dealign=True, seed=7))


def make_weights(rng, dims, c, scale=1.0):
    return WeightStack(weights=[scale * rng.standard_normal((d, c)) for d in dims])


def guarantee_conditions_dataset(rng, n=20, c=4, dims=(3, 4)):
    """Dataset satisfying the regularizer guarantee's two side conditions.

    (a) every present row carries at least one observed positive label in
    its view; (b) every label pair is shared by some sample somewhere.
    """
    n_views = len(dims)
    views = []
    for d in dims:
        features = rng.standard_normal((n, d))
        labels = rng.choice([-1.0, 1.0], size=(n, c))
        cols = rng.integers(0, c, size=n)
        labels[np.arange(n), cols] = 1.0
        # Make every pair of labels co-occur positively on some row.
        pair_rows = rng.permutation(n)
        idx = 0
        for a in range(c):
            for b in range(a + 1, c):
                row = pair_rows[idx % n]
                labels[row, a] = 1.0
                labels[row, b] = 1.0
                idx += 1
        views.append(ViewData(features=features, labels=labels,
                              missing_rows=np.zeros(n, dtype=bool)))
    return MultiViewDataset(views=views, aligned=True)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@contextmanager
def one_lane():
    """Experiment commands run every task in this process, as on one CPU."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(experiments, "_cpus", lambda: 1)
        yield


@contextmanager
def worker_takes_the_rest(lanes=2, timeout=120):
    """Experiment commands run on ``lanes`` lanes whatever the CPU count, and the calling
    lane's first task waits until every worker has ended, so the workers run every task they
    can claim before the calling lane claims another. Yields the repeats the calling lane
    ran."""
    run_repeat = experiments.run_repeat
    ran = []

    def held(ds, config, repeat):
        if not ran:
            workers = multiprocessing.active_children()
            assert len(workers) == lanes - 1
            for worker in workers:
                worker.join(timeout)
                assert not worker.is_alive()
        ran.append(repeat)
        return run_repeat(ds, config, repeat)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(experiments, "_cpus", lambda: lanes)
        patch.setattr(experiments, "run_repeat", held)
        yield ran


def stripped_outputs(root):
    """Every file under ``root`` by relative path, a JSON file with its timing stripped."""
    texts = {}
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        text = path.read_text()
        if path.suffix == ".json":
            text = json.dumps(strip_timing(json.loads(text)), sort_keys=True)
        texts[str(path.relative_to(root))] = text
    return texts


class DyingDataset(MultiViewDataset):
    """A dataset whose size, read by every repeat first, kills with SIGKILL any process but
    the one that built it: a worker that claims a task dies in the middle of it."""

    def __post_init__(self):
        super().__post_init__()
        self.home = os.getpid()

    @property
    def n_samples(self):
        if os.getpid() != self.home:
            os.kill(os.getpid(), signal.SIGKILL)
        return super().n_samples
