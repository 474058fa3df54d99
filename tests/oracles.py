"""Independent reference implementations used to cross-check the library.

Everything here is written on purpose through a different route than the
package: full SVD instead of Gram eigendecompositions, explicit Python
loops and ``sorted`` instead of vectorized rank arithmetic, and a removal
repair that rescans every sample for each repaired one. Tolerances in
the tests bound the distance between the two routes.
"""

import numpy as np

from mvml.errors import InvalidInput
from mvml.masking import _STREAM_REPAIR, _STREAM_VIEW_MISSING, _rng

# Same relative eigenvalue cut the library uses, expressed on singular
# values: sigma is kept when sigma^2 > 1e-10 * max(sigma_max^2, 1).
EIG_DROP_TOL = 1e-10


def svd_nuclear(a):
    """Sum of singular values via full SVD."""
    return float(np.linalg.svd(np.asarray(a, dtype=float), compute_uv=False).sum())


def svd_subgradient(a):
    """U @ Vt from the thin SVD, dropping directions the library drops."""
    a = np.asarray(a, dtype=float)
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    if s.size == 0:
        return np.zeros_like(a)
    cut = EIG_DROP_TOL * max(s[0] ** 2, 1.0)
    keep = s**2 > cut
    return u[:, keep] @ vt[keep]


def svd_svt(a, tau):
    """Singular value shrinkage via full SVD."""
    a = np.asarray(a, dtype=float)
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    shrunk = np.maximum(s - tau, 0.0)
    return (u * shrunk) @ vt


def prox_objective(z, a, tau):
    """tau*||z||_* + 0.5*||z - a||_F^2, the functional svt minimizes."""
    return tau * svd_nuclear(z) + 0.5 * float(np.sum((z - a) ** 2))


def brute_hamming(scores, truth):
    """Sign-mismatch fraction with the score >= 0 -> +1 tie rule."""
    n, c = scores.shape
    wrong = 0
    for j in range(n):
        for k in range(c):
            predicted = 1 if scores[j, k] >= 0 else -1
            if predicted != truth[j, k]:
                wrong += 1
    return wrong / (n * c)


def brute_ranking(scores, truth):
    """Mean fraction of (relevant, irrelevant) pairs ranked wrongly.

    A pair counts as wrong when the relevant score is <= the irrelevant
    score (ties count fully wrong). Samples without both classes are
    skipped; returns None when no sample qualifies.
    """
    n, c = scores.shape
    per_sample = []
    for j in range(n):
        pos = [k for k in range(c) if truth[j, k] == 1]
        neg = [k for k in range(c) if truth[j, k] == -1]
        if not pos or not neg:
            continue
        wrong = sum(1 for r in pos for s in neg if scores[j, r] <= scores[j, s])
        per_sample.append(wrong / (len(pos) * len(neg)))
    if not per_sample:
        return None
    return float(np.mean(per_sample))


def brute_average_precision(scores, truth):
    """Mean per-sample average precision; score ties break by label index.

    Returns None when no sample has a relevant label.
    """
    n, c = scores.shape
    per_sample = []
    for j in range(n):
        relevant = [k for k in range(c) if truth[j, k] == 1]
        if not relevant:
            continue
        order = sorted(range(c), key=lambda k: (-scores[j, k], k))
        rank_of = {k: r + 1 for r, k in enumerate(order)}
        precisions = []
        for k in sorted(relevant, key=lambda k: rank_of[k]):
            r = rank_of[k]
            inside = sum(1 for other in relevant if rank_of[other] <= r)
            precisions.append(inside / r)
        per_sample.append(float(np.mean(precisions)))
    if not per_sample:
        return None
    return float(np.mean(per_sample))


def brute_auc(scores, truth):
    """Macro-averaged pairwise AUC, ties counting one half.

    Returns None when no label has both a positive and a negative sample.
    """
    n, c = scores.shape
    per_label = []
    for k in range(c):
        pos = [j for j in range(n) if truth[j, k] == 1]
        neg = [j for j in range(n) if truth[j, k] == -1]
        if not pos or not neg:
            continue
        score = 0.0
        for p in pos:
            for q in neg:
                if scores[p, k] > scores[q, k]:
                    score += 1.0
                elif scores[p, k] == scores[q, k]:
                    score += 0.5
        per_label.append(score / (len(pos) * len(neg)))
    if not per_label:
        return None
    return float(np.mean(per_label))


def loop_view_missing_masks(n, n_views, n_missing, seed):
    """Per-view missing masks with exactly ``n_missing`` True per view and
    every sample left present somewhere.

    Views draw their removal sets independently; any sample that ends up
    missing everywhere is repaired by re-admitting it in one view and
    removing, in exchange, a sample that stays covered elsewhere. The
    repair draws from its own substream, so the result is deterministic.
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
    for j in np.flatnonzero(present_count == 0):
        fixed = False
        for i in repair.permutation(n_views):
            if not masks[i, j]:
                continue
            candidates = np.flatnonzero(~masks[i] & (present_count >= 2))
            if candidates.size == 0:
                continue
            swap = int(repair.choice(candidates))
            masks[i, j] = False
            masks[i, swap] = True
            present_count[j] += 1
            present_count[swap] -= 1
            fixed = True
            break
        if not fixed:
            raise InvalidInput(
                "view removal fractions leave no feasible assignment covering every sample"
            )
    return masks
