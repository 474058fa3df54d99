"""Multi-label evaluation metrics, rank diagnostics, and critical distances.

All four headline metrics are reported so that larger is better:
``1 - hamming loss``, ``1 - ranking loss``, average precision, and a
macro (per-label) pairwise AUC. Tie handling is fixed and documented
per metric so results are reproducible down to the bit.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import InvalidInput, UndefinedMetric, _check_int, _check_matrix, _check_real
from .linalg import nuclear_norm, singular_values

# The four headline metrics, all larger-is-better, in report order.
METRIC_NAMES = ("one_minus_hamming", "one_minus_ranking", "average_precision", "auc")

RANK_TOL = 1e-8


def _check_scores_truth(scores, truth):
    scores, truth = _check_matrix(scores, "scores"), _check_matrix(truth, "truth")
    if scores.shape != truth.shape:
        raise InvalidInput(f"scores and truth shapes differ: {scores.shape} and {truth.shape}")
    if not np.isin(truth, (-1.0, 1.0)).all():
        raise InvalidInput("truth entries must all be -1 or +1")
    return scores, truth


def hamming_loss(scores, truth):
    """Fraction of entries whose thresholded sign disagrees with the truth.

    Scores are thresholded at zero with ties going to +1.
    """
    scores, truth = _check_scores_truth(scores, truth)
    pred = np.where(scores >= 0, 1.0, -1.0)
    return float(np.mean(pred != truth))


def ranking_loss(scores, truth):
    """Mean, over samples with both tag kinds, of the fraction of
    (positive, negative) label pairs ranked wrongly; ties count wrong.
    """
    scores, truth = _check_scores_truth(scores, truth)
    fractions = []
    for row_scores, row_truth in zip(scores, truth):
        pos = row_scores[row_truth == 1.0]
        neg = row_scores[row_truth == -1.0]
        if pos.size == 0 or neg.size == 0:
            continue
        bad = np.count_nonzero(pos[:, None] <= neg[None, :])
        fractions.append(bad / (pos.size * neg.size))
    if not fractions:
        raise UndefinedMetric("no sample has both positive and negative tags")
    return float(np.mean(fractions))


def average_precision(scores, truth):
    """Mean, over samples with a positive tag, of the per-sample average
    precision; equal scores rank by ascending label index.
    """
    scores, truth = _check_scores_truth(scores, truth)
    per_sample = []
    for row_scores, row_truth in zip(scores, truth):
        relevant = row_truth == 1.0
        if not relevant.any():
            continue
        order = np.argsort(-row_scores, kind="stable")
        rel_sorted = relevant[order]
        hits = np.cumsum(rel_sorted)
        ranks = np.arange(1, row_scores.size + 1)
        precisions = hits[rel_sorted] / ranks[rel_sorted]
        per_sample.append(np.mean(precisions))
    if not per_sample:
        raise UndefinedMetric("no sample has a positive tag")
    return float(np.mean(per_sample))


def adapted_auc(scores, truth):
    """Macro AUC: per label with both tag kinds, the fraction of
    (positive, negative) sample pairs ranked correctly, ties counting
    one half; averaged over qualifying labels.
    """
    scores, truth = _check_scores_truth(scores, truth)
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
    """Score predictions against a fully observed +/-1 truth matrix."""
    scores, truth = _check_scores_truth(scores, truth)
    return MetricsReport(
        one_minus_hamming=1.0 - hamming_loss(scores, truth),
        one_minus_ranking=1.0 - ranking_loss(scores, truth),
        average_precision=average_precision(scores, truth),
        auc=adapted_auc(scores, truth),
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

    ``tol`` scales the largest singular value of each matrix to form
    the rank cutoff (default ``1e-8``), but never below the resolution
    of the Gram-product spectrum, ``sqrt(dim * eps)``. Empty selections
    report rank 0 and nuclear norm 0.
    """
    pred = _check_matrix(pred, "pred")
    if tol is not None:
        tol = _check_real(tol, "tol", bound="positive")
    sub_ranks = []
    sub_nuclear = []
    for rows in sublabel_rows_per_label:
        rows = np.asarray(rows, dtype=int).reshape(-1)
        if rows.size and (rows.min() < 0 or rows.max() >= pred.shape[0]):
            raise InvalidInput("sub-label row selection out of range")
        block = pred[rows]
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
