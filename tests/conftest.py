"""Shared builders for randomized test datasets and weights."""

import numpy as np
import pytest

from mvml import (
    CorruptionSpec, MultiViewDataset, SyntheticSpec, ViewData, WeightStack, corrupt,
    generate_synthetic,
)

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
