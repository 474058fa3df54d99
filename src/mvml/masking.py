"""Synthetic data generation and the corruption harness.

Generation plants cluster structure: every cluster owns a small set of
positive labels, samples inherit their cluster's label row exactly, and
each view embeds a jittered one-hot cluster code through its own random
linear map plus Gaussian feature noise. The full label matrix must come
out with full column rank (regeneration with a perturbed seed, then
``GenerationFailure``), while rows sharing a positive label stay
confined to few distinct patterns, so per-label sub-matrices are low
rank.

Corruption removes whole samples per view (keeping every sample in at
least one view), blanks observed tags label-by-label, and optionally
de-aligns the views by independent row permutations.

All randomness is drawn from ``numpy.random.Generator`` instances built
on PCG64 through ``SeedSequence([seed, stream_tag, ...])`` keys, so a
fixed seed reproduces the same dataset bit-for-bit on every platform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import MultiViewDataset, ViewData
from .errors import (
    GenerationFailure, InvalidInput, _check_int, _check_real, _check_seed, _check_type,
    _set_checked,
)

# Within-cluster spread of the latent one-hot codes, relative to 1/sqrt(g).
CLUSTER_JITTER = 0.3

# Stream tags keeping the per-purpose substreams of a corruption seed apart.
_STREAM_VIEW_MISSING = 0
_STREAM_LABEL_MASK = 1
_STREAM_PERMUTE = 2
_STREAM_REPAIR = 3

_MAX_GENERATION_ATTEMPTS = 10

# Samples per block of the removal repair's candidate counts.
_REPAIR_BLOCK = 2048


def _rng(*key):
    return np.random.default_rng(np.random.SeedSequence(list(key)))


@dataclass(frozen=True)
class SyntheticSpec:
    """Shape and noise parameters for the planted-cluster generator."""

    n: int = 2000
    c: int = 30
    n_views: int = 3
    dims: tuple[int, ...] = (40, 60, 80)
    positives_per_sample: int = 2
    noise_sigma: float = 0.3
    seed: int = 0

    def __post_init__(self):
        _set_checked(self, _check_int, "n", "c", "n_views", "positives_per_sample", low=1)
        _set_checked(self, _check_real, "noise_sigma", bound="nonnegative")
        _set_checked(self, _check_seed, "seed")
        if self.n < self.c:
            raise InvalidInput(f"need n >= c, got n={self.n}, c={self.c}")
        listed = isinstance(self.dims, (tuple, list, np.ndarray))
        dims = tuple(_check_int(d, "dims entry", low=1) for d in self.dims) if listed else ()
        if len(dims) != self.n_views:
            raise InvalidInput(f"dims must list one dimension per view, got {self.dims!r}")
        object.__setattr__(self, "dims", dims)
        if self.positives_per_sample > self.c:
            raise InvalidInput(f"need positives_per_sample <= c, got {self.positives_per_sample}")


@dataclass(frozen=True)
class CorruptionSpec:
    """Fractions of samples and tags to remove, plus the de-alignment switch."""

    alpha: float = 0.0
    beta: float = 0.0
    dealign: bool = False
    seed: int = 0

    def __post_init__(self):
        _set_checked(self, _check_real, "alpha", bound="in [0, 1)")
        _set_checked(self, _check_real, "beta", bound="in [0, 1]")
        _set_checked(self, _check_seed, "seed")
        if not isinstance(self.dealign, (bool, np.bool_)):
            raise InvalidInput(f"dealign must be a boolean, got {self.dealign!r}")
        object.__setattr__(self, "dealign", bool(self.dealign))


def _cluster_labels(spec, rng):
    """Base label rows, one cluster per label: cluster m is positive on
    label m plus ``positives_per_sample - 1`` random extra labels.

    Duplicate cluster patterns collapse the label-matrix rank, so each
    row redraws its extras (boundedly) until its positive set is new;
    when distinct patterns are combinatorially impossible the duplicates
    stay and the caller's rank check rejects the draw.
    """
    g = spec.c
    extra = spec.positives_per_sample - 1
    base = -np.ones((g, spec.c))
    seen = set()
    for m in range(g):
        others = np.delete(np.arange(spec.c), m)
        for _ in range(100):
            picks = rng.choice(others, size=extra, replace=False) if extra else ()
            support = frozenset((m, *picks))
            if support not in seen:
                break
        seen.add(support)
        base[m, m] = 1.0
        base[m, list(picks)] = 1.0
    return base


def _draw_views(spec, rng, cluster, labels):
    """Each view's features for the drawn clusters, from the generator that drew them."""
    g = spec.c
    latent = np.zeros((spec.n, g))
    latent[np.arange(spec.n), cluster] = 1.0
    latent += (CLUSTER_JITTER / math.sqrt(g)) * rng.standard_normal((spec.n, g))

    views = []
    for d in spec.dims:
        embed = rng.standard_normal((g, d))
        feats = latent @ embed
        if spec.noise_sigma:
            feats = feats + spec.noise_sigma * rng.standard_normal((spec.n, d))
        views.append(
            ViewData(
                features=feats,
                labels=labels.copy(),
                missing_rows=np.zeros(spec.n, dtype=bool),
            )
        )
    return MultiViewDataset(views=views, aligned=True)


def generate_synthetic(spec):
    """Generate an aligned, complete dataset with planted label structure.

    The returned label matrix has full column rank ``c``; generation is
    retried with a perturbed seed up to 10 times before raising
    ``GenerationFailure``. The rank is checked on the ``c x c`` cluster
    patterns before any label row or feature is built, so a rejected
    attempt costs only its patterns.
    """
    _check_type(spec, "spec", SyntheticSpec)
    for attempt in range(_MAX_GENERATION_ATTEMPTS):
        rng = _rng(spec.seed, attempt)
        base = _cluster_labels(spec, rng)
        # round-robin keeps every cluster populated, so the labels base[cluster] span the
        # rows of base and share its rank; the permutation shuffles order
        cluster = rng.permutation(np.arange(spec.n) % spec.c)
        if np.linalg.matrix_rank(base) == spec.c:
            return _draw_views(spec, rng, cluster, base[cluster])
    raise GenerationFailure(
        f"label matrix never reached full column rank {spec.c} "
        f"in {_MAX_GENERATION_ATTEMPTS} attempts"
    )


def _view_missing_masks(n, n_views, n_missing, seed):
    """Per-view missing masks with exactly ``n_missing`` True per view and
    every sample left present somewhere.

    Views draw their removal sets independently; any sample that ends up
    missing everywhere is repaired by re-admitting it in one view and
    removing, in exchange, a sample that stays covered elsewhere. The
    repair draws from its own substream, so the result is deterministic.

    The repair walks the views in a random order and takes the first one
    holding a candidate: a sample present there and in some other view.
    It draws the candidate's rank among them uniformly; per-block counts
    of each view's candidates find it without rescanning all ``n``.
    """
    if n_views * (n - n_missing) < n:
        raise InvalidInput(
            f"cannot remove {n_missing} of {n} samples from each of {n_views} views "
            "while keeping every sample in at least one view"
        )
    masks = np.zeros((n_views, n), dtype=bool)
    for i in range(n_views):
        rng = _rng(seed, _STREAM_VIEW_MISSING, i)
        masks[i, rng.choice(n, size=n_missing, replace=False)] = True

    repair = _rng(seed, _STREAM_REPAIR)
    present_count = n_views - masks.sum(axis=0)
    size = max(min(_REPAIR_BLOCK, n), 1)
    candidates = np.zeros((n_views, -(-n // size) * size), dtype=bool)
    candidates[:, :n] = ~masks & (present_count >= 2)
    counts = candidates.reshape(n_views, -1, size).sum(axis=2).tolist()
    totals = [sum(view_counts) for view_counts in counts]
    for j in np.flatnonzero(present_count == 0).tolist():
        # The count check above keeps some sample present twice while j is
        # missing everywhere, so some view holds a candidate.
        for i in repair.permutation(n_views).tolist():
            if totals[i]:
                break
        rank = int(repair.integers(0, totals[i]))  # draws as repair.choice over the candidates
        for b, count in enumerate(counts[i]):
            if rank < count:
                break
            rank -= count
        swap = b * size + int(np.flatnonzero(candidates[i, b * size:(b + 1) * size])[rank])
        masks[i, j] = False
        masks[i, swap] = True
        present_count[j] += 1
        present_count[swap] -= 1
        # swap leaves view i; covered once now, it is a candidate nowhere
        for v in (np.flatnonzero(candidates[:, swap]).tolist() if present_count[swap] < 2 else [i]):
            candidates[v, swap] = False
            counts[v][b] -= 1
            totals[v] -= 1
    return masks


def _mask_labels(labels, present, beta, seed, view_index):
    """Blank ``floor(beta * count)`` observed positive and negative tags per
    label among the present rows."""
    out = labels.copy()
    rng = _rng(seed, _STREAM_LABEL_MASK, view_index)
    for k in range(labels.shape[1]):
        for value in (1.0, -1.0):
            rows = np.flatnonzero((labels[:, k] == value) & present)
            n_drop = int(beta * rows.size)
            if n_drop:
                out[rng.choice(rows, size=n_drop, replace=False), k] = 0.0
    return out


def corrupt(ds, spec):
    """Apply view removal, tag blanking, and optional de-alignment.

    Requires an aligned dataset with no missing rows. Per view,
    ``floor(alpha * n)`` samples are marked missing (every sample stays
    present in at least one view, else ``InvalidInput``), then
    ``floor(beta * count)`` of the observed positive and negative tags
    of every label are blanked. With ``dealign`` set, each view's rows
    are shuffled by an independent uniform permutation applied jointly
    to features, labels, and missing flags, and the result is marked
    unaligned.
    """
    _check_type(ds, "ds", MultiViewDataset)
    _check_type(spec, "spec", CorruptionSpec)
    if not ds.aligned:
        raise InvalidInput("corruption requires an aligned dataset")
    if any(view.missing_rows.any() for view in ds.views):
        raise InvalidInput("corruption requires a dataset with no missing rows")

    n = ds.n_samples
    n_missing = int(spec.alpha * n)
    masks = _view_missing_masks(n, ds.n_views, n_missing, spec.seed)

    views = []
    for i, view in enumerate(ds.views):
        missing = masks[i]
        present = ~missing
        labels = _mask_labels(view.labels, present, spec.beta, spec.seed, i)
        feats = view.features.copy()
        feats[missing] = 0.0
        labels[missing] = 0.0
        if spec.dealign:
            perm = _rng(spec.seed, _STREAM_PERMUTE, i).permutation(n)
            feats, labels, missing = feats[perm], labels[perm], missing[perm]
        views.append(ViewData(features=feats, labels=labels, missing_rows=missing))
    return MultiViewDataset(views=views, aligned=ds.aligned and not spec.dealign)
