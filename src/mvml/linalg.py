"""Trace-norm kernels built on symmetric eigendecompositions.

Every kernel routes through the Gram matrix of the smaller side of its
input (``a.T @ a`` when ``a`` has at least as many rows as columns,
``a @ a.T`` otherwise), so the cost of a nuclear norm, subgradient, or
shrinkage on an ``n x c`` matrix stays ``O(n c^2)`` for tall inputs
instead of the ``O(c n^2)`` a full SVD of the long side would pay.
None of the kernels ever forms a full SVD of the input itself.
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


def _gram(a):
    """The smaller Gram product of ``a`` and whether it is ``a.T @ a``.

    numpy forms either product by a symmetric rank-k update, so the
    result is exactly symmetric and LAPACK may read one triangle of it.
    """
    tall = a.shape[0] >= a.shape[1]
    return (a.T @ a if tall else a @ a.T), tall


def _gram_eig(a):
    """Eigendecomposition of the smaller Gram product of ``a``.

    Returns ``(values, vectors, tall)`` with the values ascending and
    clamped at zero; ``tall`` is True when the product is ``a.T @ a``.
    """
    gram, tall = _gram(a)
    values, vectors = np.linalg.eigh(gram)
    return np.maximum(values, 0.0), vectors, tall


def singular_values(a):
    """Singular values of ``a``, descending, via the smaller Gram product."""
    a = _check_matrix(a, "a")
    if a.size == 0:
        return np.zeros(min(a.shape))
    values = np.linalg.eigvalsh(_gram(a)[0])  # values only
    return np.sqrt(np.maximum(values[::-1], 0.0))


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
    return float(np.sum(singular_values(a)))


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
    if a.size == 0:
        return np.zeros_like(a)
    values, vectors, tall = _gram_eig(a)
    cut = EIG_DROP_TOL * max(float(values[-1]), 1.0)
    keep = values > cut
    if not np.any(keep):
        return np.zeros_like(a)
    basis = vectors[:, keep]
    inv_sigma = 1.0 / np.sqrt(values[keep])
    core = (basis * inv_sigma) @ basis.T
    return a @ core if tall else core @ a


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
    tau = _check_real(tau, "tau", bound="nonnegative")
    if a.size == 0:
        return np.zeros_like(a)
    values, vectors, tall = _gram_eig(a)
    sigma = np.sqrt(values)
    shrunk = np.maximum(sigma - tau, 0.0)
    # ratio of shrunk to original singular value; exact zeros contribute nothing
    ratio = np.divide(shrunk, sigma, out=np.zeros_like(sigma), where=sigma > 0)
    core = (vectors * ratio) @ vectors.T
    return a @ core if tall else core @ a


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
