"""Peak memory of a fit, the objective, the stack layout and scoring, and the label
matrix a generated set's views share.

``tracemalloc`` sees numpy's array buffers, so a peak read here is the bytes
of the arrays the call holds at once, taken over the allocations made during
the call (the dataset itself is built before tracing starts).
"""

import tracemalloc

import numpy as np
import pytest

from mvml.data import StackGeometry
from mvml.masking import CorruptionSpec, SyntheticSpec, corrupt, generate_synthetic
from mvml.metrics import evaluate_predictions
from mvml.objective import objective
from mvml.solver import SolverConfig, fit

from conftest import make_weights

FLOAT = np.dtype(float).itemsize


def training_set(n):
    """The desk recipe at ``n`` samples: 3 views of (40, 60, 80) features,
    alpha = beta = 0.5, de-aligned."""
    clean = generate_synthetic(SyntheticSpec(n=n, c=30, dims=(40, 60, 80), seed=11))
    return corrupt(clean, CorruptionSpec(alpha=0.5, beta=0.5, dealign=True, seed=7))


def present_counts(ds):
    return [int(np.count_nonzero(~view.missing_rows)) for view in ds.views]


def feature_bytes(ds):
    """The bytes of every view's present rows: one copy of them all."""
    return sum(rows * view.n_features * FLOAT for rows, view in zip(present_counts(ds), ds.views))


def peak_bytes(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_fit_holds_no_copy_of_the_present_rows():
    # the sweep state does not grow with n once every label block is taller than its
    # view is wide, so doubling n grows the peak by what the fit holds per sample:
    # the stacked labels at every sweep and one view's rows during the set-up
    config = SolverConfig(lam=0.5, mu=5.0, max_iters=3, rel_tol=0.0)
    small, large = training_set(8000), training_set(16000)
    fit(small, config)  # imports and caches made once per process stay out of the peaks
    growth = peak_bytes(lambda: fit(large, config)) - peak_bytes(lambda: fit(small, config))
    bound = feature_bytes(large) - feature_bytes(small)
    assert growth < bound, f"peak grew {growth} bytes, the added present rows hold {bound}"


def test_the_objective_holds_one_view_of_present_rows():
    # the stacked labels, the stack and one residual, plus one view's present rows and
    # their product: a copy of every view, or a float indicator beside the labels, is more
    ds = training_set(8000)
    counts, c = present_counts(ds), ds.n_labels
    w = make_weights(np.random.default_rng(0), [view.n_features for view in ds.views], c)
    stack = sum(counts) * c * FLOAT
    widest = max(rows * (view.n_features + c) * FLOAT for rows, view in zip(counts, ds.views))
    peak = peak_bytes(lambda: objective(ds, w, 0.5))
    assert peak < 3 * stack + widest, f"peak {peak} bytes, bound {3 * stack + widest}"


def test_a_generated_set_holds_one_read_only_label_matrix():
    ds = generate_synthetic(SyntheticSpec(n=60, c=5, n_views=3, dims=(4, 5, 6), seed=1))
    assert all(view.labels is ds.views[0].labels for view in ds.views)
    with pytest.raises(ValueError):
        ds.views[1].labels[0, 0] = 0.0


def test_the_stack_layout_holds_less_than_one_float_label_stack():
    # the stacked labels take one byte a tag; one view's gathered rows come and go
    ds = training_set(16000)
    floats = sum(present_counts(ds)) * ds.n_labels * FLOAT
    peak = peak_bytes(lambda: StackGeometry(ds))
    assert peak < floats, f"peak {peak} bytes, one float label stack is {floats}"


def test_scoring_holds_one_block_of_rows():
    # the ranking metrics sort and count a block of rows at a time, and AUC reads one
    # column at a time: no n x c integer or transposed copy of the scores
    rng = np.random.default_rng(0)
    scores = rng.standard_normal((32000, 30))
    truth = np.where(rng.random(scores.shape) < 0.2, 1.0, -1.0)
    evaluate_predictions(scores[:10], truth[:10])  # one-time imports stay out of the peak
    peak = peak_bytes(lambda: evaluate_predictions(scores, truth))
    assert peak < 2 * scores.nbytes, f"peak {peak} bytes, two score matrices are {2 * scores.nbytes}"
