"""Eigendecomposition-route kernels against full-SVD references."""

import threading

import numpy as np
import pytest

from mvml import (
    InvalidInput,
    SingularSystem,
    SpdFactor,
    nuclear_norm,
    singular_values,
    spd_solve,
    svt,
    symmetric_eig,
    trace_norm_subgradient,
)
from mvml.linalg import _nuclear_norm_many, _svt_many

import oracles


class TestNuclearNorm:
    def test_identity(self):
        assert nuclear_norm(np.eye(3)) == pytest.approx(3.0)

    def test_zero_matrix(self):
        assert nuclear_norm(np.zeros((4, 2))) == 0.0

    def test_matches_svd_oracle(self, rng):
        a = rng.standard_normal((50, 5))
        expected = oracles.svd_nuclear(a)
        assert nuclear_norm(a) == pytest.approx(expected, rel=1e-9)

    def test_rejects_non_finite(self):
        a = np.ones((3, 3))
        a[1, 2] = np.nan
        with pytest.raises(InvalidInput):
            nuclear_norm(a)


class TestTraceNormSubgradient:
    def test_positive_diagonal_gives_identity(self):
        g = trace_norm_subgradient(np.diag([2.0, 3.0]))
        np.testing.assert_allclose(g, np.eye(2), atol=1e-12)

    def test_matches_svd_oracle_tall(self, rng):
        a = rng.standard_normal((100, 10))
        g = trace_norm_subgradient(a)
        assert np.linalg.norm(g - oracles.svd_subgradient(a)) <= 1e-8

    def test_rank_one(self, rng):
        u = rng.standard_normal(7)
        u /= np.linalg.norm(u)
        v = rng.standard_normal(4)
        v /= np.linalg.norm(v)
        a = np.outer(u, v)
        np.testing.assert_allclose(trace_norm_subgradient(a), a, atol=1e-10)

    def test_rejects_non_finite(self):
        a = np.ones((2, 2))
        a[0, 0] = np.inf
        with pytest.raises(InvalidInput):
            trace_norm_subgradient(a)

    def test_spectral_norm_bound(self, rng):
        for trial in range(50):
            n = int(rng.integers(2, 40))
            c = int(rng.integers(1, 8))
            a = rng.standard_normal((n, c))
            if trial % 3 == 0:  # make it rank-deficient
                r = max(1, c // 2)
                a = rng.standard_normal((n, r)) @ rng.standard_normal((r, c))
            g = trace_norm_subgradient(a)
            assert np.linalg.svd(g, compute_uv=False)[0] <= 1.0 + 1e-8

    def test_duality_pairing(self, rng):
        for trial in range(50):
            n = int(rng.integers(2, 60))
            c = int(rng.integers(1, 10))
            a = rng.standard_normal((n, c))
            if trial % 4 == 0:
                r = max(1, c // 2)
                a = rng.standard_normal((n, r)) @ rng.standard_normal((r, c))
            g = trace_norm_subgradient(a)
            pairing = float(np.trace(a.T @ g))
            nn = nuclear_norm(a)
            assert abs(pairing - nn) <= 1e-7 * max(nn, 1e-30)

    def test_oracle_equivalence_wide_and_tall(self, rng):
        for _ in range(40):
            n = int(rng.integers(1, 30))
            c = int(rng.integers(1, 30))
            a = rng.standard_normal((n, c))
            g = trace_norm_subgradient(a)
            assert np.linalg.norm(g - oracles.svd_subgradient(a)) <= 1e-8


class TestSvt:
    def test_scalar_shrinkage(self):
        np.testing.assert_allclose(svt(np.diag([5.0]), 2.0), np.diag([3.0]), atol=1e-12)

    def test_zero_threshold_is_identity(self, rng):
        a = rng.standard_normal((6, 3))
        np.testing.assert_allclose(svt(a, 0.0), a, atol=1e-12)

    def test_matches_svd_oracle(self, rng):
        a = rng.standard_normal((60, 8))
        assert np.linalg.norm(svt(a, 0.7) - oracles.svd_svt(a, 0.7)) <= 1e-8

    def test_full_shrinkage_gives_zero(self, rng):
        a = rng.standard_normal((10, 4))
        tau = np.linalg.svd(a, compute_uv=False)[0] + 1.0
        np.testing.assert_allclose(svt(a, tau), np.zeros_like(a), atol=1e-12)

    def test_rejects_negative_tau(self, rng):
        with pytest.raises(InvalidInput):
            svt(rng.standard_normal((3, 3)), -0.1)

    def test_proximal_optimality_probes(self, rng):
        for _ in range(10):
            n = int(rng.integers(3, 25))
            c = int(rng.integers(1, 8))
            a = rng.standard_normal((n, c))
            tau = float(rng.uniform(0.0, 2.0))
            z = svt(a, tau)
            base = oracles.prox_objective(z, a, tau)
            for _ in range(20):
                direction = rng.standard_normal((n, c))
                direction /= np.linalg.norm(direction)
                perturbed = oracles.prox_objective(z + 1e-3 * direction, a, tau)
                assert perturbed >= base - 1e-10


class TestBatchedKernels:
    def test_an_empty_list_gives_an_empty_result(self):
        assert _svt_many([], 0.5) == []
        assert _nuclear_norm_many([]).shape == (0,)

    def test_the_kernels_run_on_the_calling_thread(self, rng, monkeypatch):
        mats = [rng.standard_normal((40, 30)) for _ in range(9)]
        threads, count = set(), threading.active_count()
        for name in ("eigh", "eigvalsh"):
            kernel = getattr(np.linalg, name)

            def recording(a, kernel=kernel):
                threads.add(threading.get_ident())
                return kernel(a)

            monkeypatch.setattr(np.linalg, name, recording)
        _svt_many(mats, 0.5)
        _nuclear_norm_many(mats)
        assert threads == {threading.get_ident()}
        assert threading.active_count() == count

    @pytest.mark.parametrize("c", [3, 30, 100])
    @pytest.mark.parametrize("rows", [[5, 3, 7], [180], [40] * 7, [180] * 4 + [2] * 20])
    def test_shrinking_into_a_stacks_row_blocks_gives_each_block_its_own_svt(
            self, rng, rows, c):
        """As a sweep shrinks its labels: one call over the row blocks of one stack, tall
        and wide blocks mixed, writes each block what ``svt`` gives it alone, and the
        norms are each block's own."""
        bounds = np.cumsum([0, *rows]).tolist()
        blocks = [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
        stack, z = rng.standard_normal((bounds[-1], c)), np.full((bounds[-1], c), np.nan)
        out = [z[block] for block in blocks]
        assert all(got is want for got, want in zip(_svt_many([stack[b] for b in blocks],
                                                               0.5, out=out), out))
        norms = _nuclear_norm_many([stack[block] for block in blocks])
        for block, norm in zip(blocks, norms):
            assert z[block].tobytes() == svt(stack[block], 0.5).tobytes()
            assert np.float64(norm).tobytes() == np.float64(nuclear_norm(stack[block])).tobytes()


class TestSymmetricEig:
    def test_identity(self):
        pair = symmetric_eig(np.eye(3))
        np.testing.assert_allclose(pair.values, np.ones(3), atol=1e-12)

    def test_diagonal_descending(self):
        pair = symmetric_eig(np.diag([4.0, 1.0]))
        np.testing.assert_allclose(pair.values, [4.0, 1.0], atol=1e-12)
        # vectors form a signed permutation of the identity
        np.testing.assert_allclose(np.abs(pair.vectors), np.eye(2), atol=1e-12)

    def test_reconstruction(self, rng):
        b = rng.standard_normal((20, 20))
        b = (b + b.T) / 2
        pair = symmetric_eig(b)
        residual = b @ pair.vectors - pair.vectors * pair.values
        assert np.linalg.norm(residual) <= 1e-8 * np.linalg.norm(b)
        assert np.all(np.diff(pair.values) <= 1e-12)
        gram = pair.vectors.T @ pair.vectors
        assert np.linalg.norm(gram - np.eye(20)) <= 1e-10 * 20

    def test_rejects_non_square(self, rng):
        with pytest.raises(InvalidInput):
            symmetric_eig(rng.standard_normal((3, 4)))


class TestSpdSolve:
    def test_identity_system(self, rng):
        rhs = rng.standard_normal((3, 2))
        np.testing.assert_allclose(spd_solve(np.eye(3), rhs), rhs, atol=1e-10)

    def test_diagonal_solve(self):
        x = spd_solve(np.diag([2.0, 4.0]), np.array([[2.0], [4.0]]))
        np.testing.assert_allclose(x, np.ones((2, 1)), atol=1e-7)

    def test_matches_dense_inverse(self, rng):
        m = rng.standard_normal((30, 30))
        m = m @ m.T + 30 * np.eye(30)
        rhs = rng.standard_normal((30, 4))
        expected = np.linalg.inv(m) @ rhs
        x = spd_solve(m, rhs)
        assert np.linalg.norm(x - expected) <= 1e-7 * np.linalg.norm(expected)

    def test_factor_reuse(self, rng):
        m = rng.standard_normal((8, 8))
        m = m @ m.T + 8 * np.eye(8)
        factor = SpdFactor(m)
        r1 = rng.standard_normal((8, 2))
        r2 = rng.standard_normal((8, 3))
        np.testing.assert_allclose(factor.solve(r1), spd_solve(m, r1), atol=1e-12)
        np.testing.assert_allclose(factor.solve(r2), spd_solve(m, r2), atol=1e-12)

    def test_singular_system_error(self):
        m = np.diag([1.0, -1e12])
        with pytest.raises(SingularSystem):
            spd_solve(m, np.ones((2, 1)))


class TestSingularValues:
    def test_matches_svd(self, rng):
        a = rng.standard_normal((12, 5))
        expected = np.linalg.svd(a, compute_uv=False)
        np.testing.assert_allclose(singular_values(a), expected, atol=1e-9)
