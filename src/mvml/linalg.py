"""Trace-norm kernels built on symmetric eigendecompositions.

Every kernel routes through the Gram matrix of the smaller side of its
input (``a.T @ a`` when ``a`` has at least as many rows as columns,
``a @ a.T`` otherwise), so the cost of a nuclear norm, subgradient, or
shrinkage on an ``n x c`` matrix stays ``O(n c^2)`` for tall inputs
instead of the ``O(c n^2)`` a full SVD of the long side would pay.
None of the kernels ever forms a full SVD of the input itself. The
batched kernels stack the Grams of one size and decompose them with one
LAPACK call, and the one-matrix kernels are their one-element case.

Every kernel runs on the calling thread, and a fit calls them from its
own thread alone (``solver``). numpy's ``eigh`` decomposes each matrix
of a stack on its own, so a matrix's result does not depend on the
others it is batched with.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import InvalidInput, SingularSystem, _check_matrix, _check_real

# Gram eigenvalues below EIG_DROP_TOL * max(largest eigenvalue, 1) are
# treated as exactly zero when inverting spectra (pseudo-inverse cut).
EIG_DROP_TOL = 1e-10

# Ridge added to an SPD system before factorization: RIDGE_SCALE * trace/dim.
RIDGE_SCALE = 1e-8


class EigenPair(NamedTuple):
    """Eigendecomposition result: ``vectors[:, i]`` pairs with ``values[i]``."""

    values: np.ndarray
    vectors: np.ndarray


def symmetric_eig(b):
    """Eigendecomposition of a symmetric matrix, eigenvalues descending.

    Parameters
    ----------
    b : array_like, shape (m, m)
        Square matrix with finite entries. It is symmetrized internally
        as ``(b + b.T) / 2`` before decomposition.

    Returns
    -------
    EigenPair
        ``values`` sorted descending, ``vectors`` with orthonormal
        columns. For positive semi-definite input the values are
        nonnegative up to round-off; no clamping is applied here.

    Raises
    ------
    InvalidInput
        If ``b`` is not square or contains non-finite entries.
    """
    b = _check_matrix(b, "b")
    if b.shape[0] != b.shape[1]:
        raise InvalidInput(f"b must be square, got shape {b.shape}")
    if b.shape[0] == 0:
        return EigenPair(np.zeros(0), np.zeros((0, 0)))
    values, vectors = np.linalg.eigh(0.5 * (b + b.T))
    return EigenPair(np.ascontiguousarray(values[::-1]), np.ascontiguousarray(vectors[:, ::-1]))


def _tall(a):
    return a.shape[0] >= a.shape[1]


def _spectra(mats, vectors):
    """The Gram spectra of the nonempty matrices of ``mats``, one LAPACK call per Gram size.

    Yields ``(members, values)``, or ``(members, (values, vectors))`` with ``vectors``,
    for each group of equal-size Grams: ``members`` lists the matrices' positions and
    the ``k``-th row of ``values`` holds the ascending eigenvalues of the Gram of
    ``mats[members[k]]``, its smaller Gram product ``a.T @ a`` or ``a @ a.T``. numpy
    forms either by a symmetric rank-k update, so the Gram is exactly symmetric and
    LAPACK may read one triangle of it. A stacked ``eigh`` or ``eigvalsh`` decomposes
    each matrix of its stack as the one-matrix call would, so a matrix's result does
    not depend on the others it is batched with.
    """
    groups = {}
    for j, a in enumerate(mats):
        if a.size:
            groups.setdefault(min(a.shape), []).append(j)
    for size, members in groups.items():
        grams = np.empty((len(members), size, size))
        for j, gram in zip(members, grams):
            a = mats[j]
            np.matmul(a.T, a, out=gram) if _tall(a) else np.matmul(a, a.T, out=gram)
        yield members, (np.linalg.eigh if vectors else np.linalg.eigvalsh)(grams)


def _reassemble(mats, weigh, out=None):
    """Each ``a`` of ``mats`` with its spectrum reweighted: ``a @ (V f V.T)`` for a tall ``a``
    with ``a.T @ a = V S V.T``, or ``(U f U.T) @ a`` for a wide ``a`` with ``a @ a.T = U S U.T``.

    ``f = diag(weigh(s))`` for the Gram's eigenvalues ``s``, ascending and clamped at zero,
    so singular value ``sqrt(s)`` becomes ``sqrt(s) * weigh(s)``; ``weigh`` maps a stack of
    spectra, one per row, at once. The results go to the arrays ``out``, new ones by
    default, which are returned; an empty ``a`` has no entry to write.
    """
    out = [np.empty(a.shape) for a in mats] if out is None else out
    for members, (values, vectors) in _spectra(mats, vectors=True):
        weighted = vectors * weigh(np.maximum(values, 0.0))[:, None, :]
        for j, core in zip(members, np.matmul(weighted, vectors.transpose(0, 2, 1))):
            a = mats[j]
            np.matmul(a, core, out=out[j]) if _tall(a) else np.matmul(core, a, out=out[j])
    return out


def _nuclear_norm_many(mats):
    """The nuclear norm of each of ``mats``, finite float matrices that the caller
    checked, as an array: bitwise what :func:`nuclear_norm` gives each alone. The Grams
    of one size share one stacked ``eigvalsh``."""
    norms = np.zeros(len(mats))
    for members, values in _spectra(mats, vectors=False):
        norms[members] = np.sum(np.sqrt(np.maximum(values[:, ::-1], 0.0)), axis=1)
    return norms


def _svt_many(mats, tau, out=None):
    """:func:`svt` by ``tau`` of each of ``mats``, finite float matrices that the caller
    checked, with ``tau`` too: bitwise what ``svt`` gives each alone. The Grams of one
    size share one stacked ``eigh``; the results go to ``out`` as :func:`_reassemble`
    writes them."""

    def shrink_ratio(values):  # shrunk over original singular value; exact zeros give 0
        sigma = np.sqrt(values)
        return np.divide(np.maximum(sigma - tau, 0.0), sigma, out=np.zeros_like(sigma),
                         where=sigma > 0)

    return _reassemble(mats, shrink_ratio, out)


def singular_values(a):
    """Singular values of ``a``, descending, via the smaller Gram product."""
    a = _check_matrix(a, "a")
    if a.size == 0:
        return np.zeros(min(a.shape))
    [(_, values)] = _spectra([a], vectors=False)
    return np.sqrt(np.maximum(values[0, ::-1], 0.0))


def nuclear_norm(a):
    """Sum of singular values of ``a``.

    Computed as ``sum(sqrt(eig))`` over the eigenvalues of the smaller
    Gram product, with eigenvalues clamped at zero before the square
    root.

    Parameters
    ----------
    a : array_like, shape (n, c)
        Matrix with finite entries.

    Returns
    -------
    float
        Nonnegative nuclear norm; exactly 0.0 for an all-zero or empty
        matrix.
    """
    return float(_nuclear_norm_many([_check_matrix(a, "a")])[0])


def trace_norm_subgradient(a):
    """Subgradient ``U @ V.T`` of the nuclear norm at ``a``.

    Uses the eigendecomposition of the smaller Gram product: for a tall
    ``a`` with ``a.T @ a = V S V.T`` the subgradient is
    ``a @ V S^{-1/2} V.T``; for a wide ``a`` with ``a @ a.T = U S U.T``
    it is ``U S^{-1/2} U.T @ a``. Eigenvalues below
    ``EIG_DROP_TOL * max(largest eigenvalue, 1)`` are treated as exactly
    zero and their directions dropped, which selects the minimum-norm
    member of the subdifferential for rank-deficient input.

    Parameters
    ----------
    a : array_like, shape (n, c)
        Matrix with finite entries.

    Returns
    -------
    numpy.ndarray, shape (n, c)
        ``U @ V.T`` restricted to the numerically nonzero spectrum. Its
        spectral norm is at most 1 up to round-off, and
        ``trace(a.T @ G)`` equals ``nuclear_norm(a)``.
    """
    a = _check_matrix(a, "a")

    def inverse_sigma(values):  # a dropped direction gets weight 0
        keep = values > EIG_DROP_TOL * np.maximum(values[:, -1:], 1.0)
        return np.divide(1.0, np.sqrt(values), out=np.zeros_like(values), where=keep)

    return _reassemble([a], inverse_sigma)[0]


def svt(a, tau):
    """Singular value thresholding: shrink the spectrum of ``a`` by ``tau``.

    Returns the unique minimizer of ``tau * ||z||_* + 0.5 * ||z - a||_F^2``,
    which replaces every singular value ``s`` of ``a`` by ``max(s - tau, 0)``.
    The shrinkage runs through the smaller Gram product of ``a``: the
    eigen-square-roots are shrunk and the matrix reassembled from the
    eigenvectors, so no SVD of ``a`` itself is formed.

    Parameters
    ----------
    a : array_like, shape (n, c)
        Matrix with finite entries.
    tau : float
        Nonnegative threshold. ``tau = 0`` returns ``a`` unchanged (up
        to round-off).

    Raises
    ------
    InvalidInput
        If ``tau`` is negative or not finite.
    """
    a = _check_matrix(a, "a")
    return _svt_many([a], _check_real(tau, "tau", bound="nonnegative"))[0]


class SpdFactor:
    """Cached inverse Cholesky factor of ``m + ridge * I``.

    The ridge is ``RIDGE_SCALE * trace(m) / dim``, fixed at
    construction; a solve is two products with the inverted factor.
    Instances are immutable after ``__init__`` and may be shared
    freely across threads; ``solve`` allocates its own output.

    Raises
    ------
    SingularSystem
        If the factorization fails even with the ridge applied.
    """

    def __init__(self, m):
        m = _check_matrix(m, "m")
        if m.shape[0] != m.shape[1]:
            raise InvalidInput(f"m must be square, got shape {m.shape}")
        self.dim = m.shape[0]
        self.ridge = RIDGE_SCALE * float(np.trace(m)) / self.dim if self.dim else 0.0
        sym = 0.5 * (m + m.T)
        sym[np.diag_indices_from(sym)] += self.ridge
        try:
            self._inv_lower = np.linalg.inv(np.linalg.cholesky(sym))
        except np.linalg.LinAlgError as exc:
            raise SingularSystem(
                f"Cholesky factorization failed for {self.dim}x{self.dim} system "
                f"(ridge {self.ridge:.3e})"
            ) from exc

    def solve(self, rhs):
        """Solve ``(m + ridge * I) x = rhs`` for a vector or matrix ``rhs``."""
        rhs = _check_matrix(rhs, "rhs", ndims=(1, 2))
        if rhs.shape[0] != self.dim:
            raise InvalidInput(f"rhs has {rhs.shape[0]} rows, expected {self.dim}")
        return self._inv_lower.T @ (self._inv_lower @ rhs)


def spd_solve(m, rhs):
    """One-shot ridged SPD solve; see :class:`SpdFactor` for the conventions."""
    return SpdFactor(m).solve(rhs)
