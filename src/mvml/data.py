"""Containers and indexing helpers for multi-view multi-label data.

A dataset holds one block per view: a feature matrix, a label matrix
over a shared label vocabulary with entries in {-1, 0, +1} (0 meaning
the tag is unobserved), and a per-sample missing flag for samples the
view never saw. Rows flagged missing are stored as all-zero in both
features and labels so downstream code can multiply without masking
twice. Views of an aligned dataset index the same samples in the same
order; a de-aligned dataset only promises per-view consistency.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidInput, LabelDomainViolation, _check_int, _check_list, _check_matrix, _check_type,
)


@dataclass(eq=False)
class ViewData:
    """One view: features ``(n, d)``, labels ``(n, c)``, missing flags ``(n,)``.

    The one place a view is validated; each error names the first bad row.
    """

    features: np.ndarray
    labels: np.ndarray
    missing_rows: np.ndarray

    def __post_init__(self):
        feats = _check_matrix(self.features, "features")
        labels = _check_matrix(self.labels, "labels")
        missing = np.asarray(self.missing_rows)
        if labels.shape[0] != feats.shape[0]:
            raise InvalidInput(f"labels must have {feats.shape[0]} rows, got shape {labels.shape}")
        bad = np.argwhere(~np.isin(labels, (-1.0, 0.0, 1.0)))
        if bad.size:
            r, j = bad[0]
            raise LabelDomainViolation(
                f"labels row {r}, column {j} is {labels[r, j]!r}, expected -1, 0, or +1"
            )
        if missing.shape != (feats.shape[0],):
            raise InvalidInput(
                f"missing_rows must have shape ({feats.shape[0]},), got {missing.shape}"
            )
        if missing.dtype != np.bool_:
            bad = np.flatnonzero(~np.isin(missing, (0, 1)))
            if bad.size:
                raise InvalidInput(f"missing row {bad[0]} must be 0 or 1")
            missing = missing.astype(bool)
        # reduced over every row, so the missing rows are not copied
        stored = np.flatnonzero(missing & (feats.any(axis=1) | labels.any(axis=1)))
        if stored.size:
            raise InvalidInput(f"row {stored[0]} is flagged missing but stored nonzero")
        self.features = feats
        self.labels = labels
        self.missing_rows = missing

    @property
    def n_samples(self):
        return self.features.shape[0]

    @property
    def n_features(self):
        return self.features.shape[1]

    @property
    def n_labels(self):
        return self.labels.shape[1]


@dataclass(eq=False)
class MultiViewDataset:
    """A list of views over a shared sample space and label vocabulary."""

    views: list[ViewData]
    aligned: bool = True

    def __post_init__(self):
        if not isinstance(self.aligned, (bool, np.bool_)):
            raise InvalidInput(f"aligned must be a boolean, got {self.aligned!r}")
        self.aligned = bool(self.aligned)
        self.views = _check_list(self.views, "views")
        if not self.views:
            raise InvalidInput("dataset needs at least one view")
        for i, view in enumerate(self.views):
            _check_type(view, f"views[{i}]", ViewData)
        n, c = self.views[0].n_samples, self.views[0].n_labels
        if c < 1:
            raise InvalidInput("dataset needs at least one label")
        for i, view in enumerate(self.views):
            if view.n_samples != n or view.n_labels != c:
                raise InvalidInput(
                    f"view {i} has shape ({view.n_samples} samples, {view.n_labels} labels), "
                    f"expected ({n}, {c})"
                )
        if self.aligned:
            # row indices co-refer only when aligned; coverage is checked there
            present_somewhere = np.zeros(n, dtype=bool)
            for view in self.views:
                present_somewhere |= ~view.missing_rows
            if not present_somewhere.all():
                j = int(np.flatnonzero(~present_somewhere)[0])
                raise InvalidInput(f"sample {j} is missing in every view")

    @property
    def n_views(self):
        return len(self.views)

    @property
    def n_samples(self):
        return self.views[0].n_samples

    @property
    def n_labels(self):
        return self.views[0].n_labels


@dataclass(eq=False)
class WeightStack:
    """Per-view weight matrices ``(d_i, c)`` over a shared label space."""

    weights: list[np.ndarray]

    def __post_init__(self):
        weights = _check_list(self.weights, "weights")
        if not weights:
            raise InvalidInput("weight stack needs at least one view")
        mats = [_check_matrix(w, f"weights[{i}]") for i, w in enumerate(weights)]
        c = mats[0].shape[1]
        for i, w in enumerate(mats):
            if w.shape[1] != c:
                raise InvalidInput(f"weights[{i}] has {w.shape[1]} columns, expected {c}")
        self.weights = mats

    @property
    def n_views(self):
        return len(self.weights)

    @property
    def n_labels(self):
        return self.weights[0].shape[1]


def indicator_from(view):
    """0/1 matrix of observed label entries: 1 iff the tag is nonzero and
    the row is not missing. Missing rows are all-zero.
    """
    _check_type(view, "view", ViewData)
    observed = (view.labels != 0.0) & ~view.missing_rows[:, None]
    return observed.astype(float)


def present_rows(view):
    """Ascending indices of samples the view actually observed."""
    _check_type(view, "view", ViewData)
    return np.flatnonzero(~view.missing_rows)


def sublabel_rows(view, k):
    """Ascending indices of non-missing samples tagged positive for label ``k``."""
    _check_type(view, "view", ViewData)
    if not 0 <= _check_int(k, "label index") < view.n_labels:
        raise InvalidInput(f"label index {k} out of range [0, {view.n_labels})")
    return np.flatnonzero((view.labels[:, k] == 1.0) & ~view.missing_rows)


def check_weight_shapes(w, n_features, n_labels):
    """Raise ``InvalidInput`` unless ``w`` holds one ``(n_features[i], n_labels)`` per view."""
    _check_type(w, "weights", WeightStack)
    if w.n_views != len(n_features):
        raise InvalidInput(f"weights cover {w.n_views} views, dataset has {len(n_features)}")
    if w.n_labels != n_labels:
        raise InvalidInput(f"weights predict {w.n_labels} labels, dataset has {n_labels}")
    for i, (d, wi) in enumerate(zip(n_features, w.weights)):
        if d != wi.shape[0]:
            raise InvalidInput(f"view {i} has {d} features, weights expect {wi.shape[0]}")


class StackGeometry:
    """Row layout of a dataset's present-row prediction stack.

    The stack puts each view's present rows one block after another, in
    view order and in ascending sample order inside a block. The
    objective scores the whole stack (global term) and, for each label
    ``k``, the rows tagged positive for ``k`` (local terms), so every
    per-label stack is the row selection ``stack[label_index[k]]``.

    The layout holds no feature row: ``view_features`` gathers one
    view's present rows when asked, so a caller that takes the views in
    turn holds one view's rows at a time.

    Attributes
    ----------
    views : list of ``ViewData``, the dataset's views.
    present : list of index arrays, each view's present samples, ascending.
    dims : list of ints, each view's feature count.
    blocks : list of slices, the stack rows of each view.
    labels : (N, c) int8 array, the labels stacked over the present rows; a
        use promotes it to float64 exactly.
    label_index : list of c index arrays, ascending, possibly empty.
    active_index : the nonempty entries of ``label_index``; a label
        positive nowhere adds nothing to the objective.
    """

    def __init__(self, ds):
        _check_type(ds, "ds", MultiViewDataset)
        self.views = list(ds.views)
        self.present = [present_rows(view) for view in ds.views]
        self.dims = [view.n_features for view in ds.views]
        ends = np.cumsum([rows.size for rows in self.present])
        self.blocks = [slice(end - rows.size, end) for rows, end in zip(self.present, ends)]
        self.labels = np.empty((ends[-1], ds.n_labels), dtype=np.int8)
        for view, rows, block in zip(ds.views, self.present, self.blocks):
            self.labels[block] = view.labels[rows]
        # (label, row) pairs in label order, rows ascending within a label
        label, row = np.nonzero(self.labels.T == 1)
        bounds = np.searchsorted(label, np.arange(1, self.labels.shape[1]))
        self.label_index = np.split(row, bounds)
        self.active_index = [rows for rows in self.label_index if rows.size]

    def view_features(self, i, rows=slice(None)):
        """A new array of view ``i``'s present rows, or of those at positions ``rows``
        among them, gathered straight from the view."""
        return self.views[i].features[self.present[i][rows]]

    def stack(self, w):
        """The present-row prediction stack of weights ``w``, shape ``(N, c)``, filled
        one view at a time."""
        check_weight_shapes(w, self.dims, self.labels.shape[1])
        stack = np.empty((self.labels.shape[0], w.n_labels))
        for i, (block, wi) in enumerate(zip(self.blocks, w.weights)):
            np.matmul(self.view_features(i), wi, out=stack[block])
        return stack
