"""Multi-label evaluation metrics, rank diagnostics, and critical distances.

All four headline metrics are reported so that larger is better:
``1 - hamming loss``, ``1 - ranking loss``, average precision, and a
macro (per-label) pairwise AUC. Tie handling is fixed and documented
per metric so results are reproducible down to the bit.

Ranking loss and average precision work on the whole score matrix: one
row-wise sort, then integer counts along the rows, O(n·c·log c) with
O(n·c) temporaries. Their values are bit-identical to the brute-force
pair counts and rank lists: each row's fraction or mean is formed from
the same integers, and the means are taken in row order.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import (
    InvalidInput, UndefinedMetric, _check_int, _check_list, _check_matrix, _check_real, _check_rows,
)
from .linalg import nuclear_norm, singular_values

# The four headline metrics, all larger-is-better, in report order.
METRIC_NAMES = ("one_minus_hamming", "one_minus_ranking", "average_precision", "auc")

RANK_TOL = 1e-8


def _check_scores_truth(scores, truth):
    scores, truth = _check_matrix(scores, "scores"), _check_matrix(truth, "truth")
    if scores.shape != truth.shape:
        raise InvalidInput(f"scores and truth shapes differ: {scores.shape} and {truth.shape}")
    signed = np.isin(truth, (-1.0, 1.0))
    if not signed.all():
        r, j = np.argwhere(~signed)[0]
        raise InvalidInput(
            f"truth row {r}, column {j} is {float(truth[r, j])!r}, expected -1 or +1")
    return scores, truth


def hamming_loss(scores, truth):
    """Fraction of entries whose thresholded sign disagrees with the truth.

    Scores are thresholded at zero with ties going to +1.
    """
    return _hamming_loss(*_check_scores_truth(scores, truth))


def _hamming_loss(scores, truth):
    pred = np.where(scores >= 0, 1.0, -1.0)
    return float(np.mean(pred != truth))


def ranking_loss(scores, truth):
    """Mean, over samples with both tag kinds, of the fraction of
    (positive, negative) label pairs ranked wrongly; ties count wrong.
    """
    return _ranking_loss(*_check_scores_truth(scores, truth))


def _ranking_loss(scores, truth):
    n_pos = np.count_nonzero(truth == 1.0, axis=1)
    n_neg = scores.shape[1] - n_pos
    both = (n_pos > 0) & (n_neg > 0)
    if not both.any():
        raise UndefinedMetric("no sample has both positive and negative tags")
    order = np.argsort(scores, axis=1)
    ascending = np.take_along_axis(scores, order, axis=1)
    negative = np.take_along_axis(truth == -1.0, order, axis=1)
    # a positive ranks right against the negatives strictly below its score: those
    # before the first entry of its tie run; the count never falls along a row, so
    # carrying each run start's count forward is a running maximum
    neg_before = np.cumsum(negative, axis=1) - negative
    run_start = np.ones(ascending.shape, dtype=bool)
    run_start[:, 1:] = ascending[:, 1:] != ascending[:, :-1]
    neg_below = np.maximum.accumulate(np.where(run_start, neg_before, 0), axis=1)
    good = np.where(negative, 0, neg_below).sum(axis=1)
    pairs = n_pos * n_neg
    return float(np.mean((pairs - good)[both] / pairs[both]))


def average_precision(scores, truth):
    """Mean, over samples with a positive tag, of the per-sample average
    precision; equal scores rank by ascending label index.
    """
    return _average_precision(*_check_scores_truth(scores, truth))


def _average_precision(scores, truth):
    order = np.argsort(-scores, axis=1, kind="stable")
    relevant = np.take_along_axis(truth == 1.0, order, axis=1)
    precisions = np.cumsum(relevant, axis=1) / np.arange(1, scores.shape[1] + 1)
    n_rel = np.count_nonzero(relevant, axis=1)
    if not n_rel.any():
        raise UndefinedMetric("no sample has a positive tag")
    # np.mean sums 8 or more values pairwise, so each row's mean is taken over
    # exactly its own k precisions: one (rows, k) block per positive count k
    hit_precisions = precisions[relevant]
    row_count = np.repeat(n_rel, n_rel)
    per_sample = np.zeros(scores.shape[0])
    for k in np.flatnonzero(np.bincount(row_count)):
        per_sample[n_rel == k] = np.mean(hit_precisions[row_count == k].reshape(-1, k), axis=1)
    return float(np.mean(per_sample[n_rel > 0]))


def adapted_auc(scores, truth):
    """Macro AUC: per label with both tag kinds, the fraction of
    (positive, negative) sample pairs ranked correctly, ties counting
    one half; averaged over qualifying labels.
    """
    return _adapted_auc(*_check_scores_truth(scores, truth))


def _adapted_auc(scores, truth):
    per_label = []
    for k in range(scores.shape[1]):
        pos = scores[truth[:, k] == 1.0, k]
        neg = np.sort(scores[truth[:, k] == -1.0, k])
        if pos.size == 0 or neg.size == 0:
            continue
        # integer counts of negatives below, and below or tied: U is exact
        below = int(np.searchsorted(neg, pos, "left").sum())
        below_or_tied = int(np.searchsorted(neg, pos, "right").sum())
        per_label.append((below + below_or_tied) / 2 / (pos.size * neg.size))
    if not per_label:
        raise UndefinedMetric("no label has both positive and negative samples")
    return float(np.mean(per_label))


@dataclass(frozen=True)
class MetricsReport:
    """The four headline metrics, larger-is-better, plus test shape."""

    one_minus_hamming: float
    one_minus_ranking: float
    average_precision: float
    auc: float
    n_test: int
    n_labels: int

    def __post_init__(self):
        for name in METRIC_NAMES:
            value = _check_real(getattr(self, name), name)
            if not -1e-12 <= value <= 1 + 1e-12:  # round-off may cross 0 or 1
                raise InvalidInput(f"{name} must lie in [0, 1], got {value!r}")

    def to_dict(self):
        return asdict(self)


def evaluate_predictions(scores, truth):
    """Score predictions against a fully observed +/-1 truth matrix, checked once."""
    scores, truth = _check_scores_truth(scores, truth)
    return MetricsReport(
        one_minus_hamming=1.0 - _hamming_loss(scores, truth),
        one_minus_ranking=1.0 - _ranking_loss(scores, truth),
        average_precision=_average_precision(scores, truth),
        auc=_adapted_auc(scores, truth),
        n_test=scores.shape[0],
        n_labels=scores.shape[1],
    )


@dataclass(frozen=True)
class RankDiagnostics:
    """Numeric ranks and nuclear norms of a prediction stack and its
    per-label sub-stacks."""

    entire_rank: int
    entire_nuclear: float
    sub_ranks: tuple[int, ...]
    sub_nuclear_mean: float
    sub_nuclear_median: float

    def to_dict(self):
        return {**asdict(self), "sub_ranks": list(self.sub_ranks)}


def _numeric_rank(a, tol):
    sigma = singular_values(a)
    if sigma.size == 0 or sigma[0] == 0.0:
        return 0
    # the Gram route cannot resolve singular values below
    # sqrt(dim * eps) * sigma_max; treat that band as zero
    floor = math.sqrt(max(a.shape) * np.finfo(float).eps)
    cut = max(RANK_TOL if tol is None else tol, floor) * float(sigma[0])
    return int(np.count_nonzero(sigma > cut))


def rank_diagnostics(pred, sublabel_rows_per_label, tol=None):
    """Numeric rank and nuclear norm of ``pred`` and of each per-label
    row selection.

    ``tol`` in (0, 1) scales the largest singular value of each matrix to
    form the rank cutoff (default ``1e-8``), but never below the resolution
    of the Gram-product spectrum, ``sqrt(dim * eps)``. Empty selections
    report rank 0 and nuclear norm 0.
    """
    pred = _check_matrix(pred, "pred")
    if tol is not None:
        tol = _check_real(tol, "tol", bound="in (0, 1)")
    sub_ranks = []
    sub_nuclear = []
    for k, rows in enumerate(_check_list(sublabel_rows_per_label, "sublabel_rows_per_label")):
        block = pred[_check_rows(rows, pred.shape[0], f"sublabel_rows_per_label[{k}]")]
        sub_ranks.append(_numeric_rank(block, tol))
        sub_nuclear.append(nuclear_norm(block))
    return RankDiagnostics(
        entire_rank=_numeric_rank(pred, tol),
        entire_nuclear=nuclear_norm(pred),
        sub_ranks=tuple(sub_ranks),
        sub_nuclear_mean=float(np.mean(sub_nuclear)) if sub_nuclear else 0.0,
        sub_nuclear_median=float(np.median(sub_nuclear)) if sub_nuclear else 0.0,
    )


def nemenyi_cd(n_methods, n_results, q_alpha):
    """Critical distance for a mean-rank diagram.

    ``q_alpha * sqrt(k (k + 1) / N)`` for ``k`` methods over ``N``
    results, matching the study tables this package reproduces.
    """
    n_methods = _check_int(n_methods, "n_methods", low=2)
    n_results = _check_int(n_results, "n_results", low=1)
    q_alpha = _check_real(q_alpha, "q_alpha", bound="positive")
    return float(q_alpha * math.sqrt(n_methods * (n_methods + 1) / n_results))
