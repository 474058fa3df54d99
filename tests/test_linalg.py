"""Eigendecomposition-route kernels against full-SVD references."""

import os
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
from mvml import linalg
from mvml.linalg import _eigh_parts, _nuclear_norm_many, _svt_many

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


def gate_crossing_list(rng, count):
    """``count`` matrices with Grams of 30x30, 24x24 and 31x31: tall and wide, every fifth
    rank-deficient. From 15 on, 8 or more are 30x30, enough work for the gate to split."""
    mats = []
    for k in range(count):
        size = (30, 30, 24, 31)[k % 4]
        shape = (size, size + int(rng.integers(0, 50)))
        shape = shape[::-1] if k % 3 else shape  # two tall to one wide
        if k % 5 == 0:
            rank = size // 2
            left = rng.standard_normal((shape[0], rank))
            mats.append(left @ rng.standard_normal((rank, shape[1])))
        else:
            mats.append(rng.standard_normal(shape))
    return mats


def record_eigh(monkeypatch):
    """Record the thread and the stack of each ``np.linalg.eigh`` call."""
    calls, eigh = [], np.linalg.eigh

    def recording(a):
        calls.append((threading.get_ident(), a))
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", recording)
    return calls


class TestSplitEigh:
    @pytest.mark.parametrize("cpus, count, size, want", [
        (2, 7, 30, 1), (2, 8, 30, 2), (2, 30, 30, 2), (1, 30, 30, 1), (4, 30, 30, 4),
        (4, 12, 30, 3), (2, 1, 200, 1), (2, 40, 7, 1), (2, 0, 30, 1),
    ])
    def test_a_stack_splits_by_its_work_and_the_cpus(self, monkeypatch, cpus, count, size, want):
        monkeypatch.setattr(linalg, "_cpus", lambda: cpus)
        assert _eigh_parts(count, size) == want

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no CPU affinity call")
    def test_the_cpus_are_those_the_process_may_use(self):
        assert linalg._cpus() == len(os.sched_getaffinity(0))

    @pytest.mark.parametrize("count", [9, 17, 40])
    def test_forced_chunks_give_the_bytes_of_one_matrix_at_a_time(self, rng, monkeypatch, count):
        mats = gate_crossing_list(rng, count)
        alone = [svt(a, 0.7).tobytes() for a in mats]
        norms = [nuclear_norm(a) for a in mats]
        with linalg._eigh_workers():
            assert [z.tobytes() for z in _svt_many(mats, 0.7)] == alone  # the gate's own split
            for parts in (1, 2, 3):
                monkeypatch.setattr(linalg, "_eigh_parts", lambda count, size: min(parts, count))
                assert [z.tobytes() for z in _svt_many(mats, 0.7)] == alone, parts
                assert _nuclear_norm_many(mats).tolist() == norms
        for a, z in zip(mats, _svt_many(mats, 0.7)):
            assert np.linalg.norm(z - oracles.svd_svt(a, 0.7)) <= 1e-8

    def test_the_caller_takes_the_first_chunk_and_workers_the_rest(self, rng, monkeypatch):
        mats = [rng.standard_normal((40, 30)) for _ in range(9)]
        monkeypatch.setattr(linalg, "_eigh_parts", lambda count, size: 3)
        calls = record_eigh(monkeypatch)
        threads = threading.active_count()
        with linalg._eigh_workers():
            _svt_many(mats, 0.5)
        assert sorted(len(stack) for _, stack in calls) == [3, 3, 3]
        grams = np.stack([a.T @ a for a in mats])
        placed = sorted((k, ident) for ident, stack in calls for k in (0, 3, 6)
                        if np.allclose(stack, grams[k:k + 3]))
        assert [k for k, _ in placed] == [0, 3, 6]
        assert [ident == threading.get_ident() for _, ident in placed] == [True, False, False]
        assert threading.active_count() == threads  # the block's pool is joined

    @pytest.mark.parametrize("parts", [1, 2, 3])
    def test_work_meanwhile_leaves_the_bytes_as_they_are(self, rng, monkeypatch, parts):
        mats = gate_crossing_list(rng, 17)
        alone = [svt(a, 0.7).tobytes() for a in mats]
        monkeypatch.setattr(linalg, "_eigh_parts", lambda count, size: min(parts, count))
        calls = []
        with linalg._eigh_workers():
            got = _svt_many(mats, 0.7, meanwhile=lambda: calls.append(threading.get_ident()))
        assert [z.tobytes() for z in got] == alone
        assert calls == [threading.get_ident()]

    @pytest.mark.parametrize("count, parts, caller, workers", [
        (8, 2, 2, [6]), (30, 2, 7, [23]), (12, 3, 2, [5, 5]), (9, 1, 9, []),
    ])
    def test_work_meanwhile_shrinks_the_callers_chunk_to_a_half_share(
            self, rng, monkeypatch, count, parts, caller, workers):
        mats = [rng.standard_normal((40, 30)) for _ in range(count)]
        monkeypatch.setattr(linalg, "_eigh_parts", lambda count, size: parts)
        calls = record_eigh(monkeypatch)
        caller_id, seen = threading.get_ident(), []

        def meanwhile():  # the workers have their chunks, and the caller's comes after
            started = [t for t in threading.enumerate() if t.name.startswith("mvml-eigh")]
            seen.append((bool(started), [ident for ident, _ in calls if ident == caller_id]))

        with linalg._eigh_workers():
            _svt_many(mats, 0.5, meanwhile=meanwhile)
        mine = [len(stack) for ident, stack in calls if ident == caller_id]
        theirs = [len(stack) for ident, stack in calls if ident != caller_id]
        assert (mine, sorted(theirs)) == ([caller], workers)
        assert seen == [(bool(workers), [] if workers else [caller_id])]

    @pytest.mark.parametrize("shapes", [
        [],  # nothing to decompose
        [(5, 3), (0, 4)],  # one small group, never split
        [(40, 30)] * 9 + [(3, 5)],  # a split group and a small one
        [(40, 30)] * 9 + [(50, 31)] * 9,  # two split groups
    ])
    def test_work_meanwhile_runs_once_whatever_is_split(self, rng, shapes):
        mats = [rng.standard_normal(shape) for shape in shapes]
        calls = []
        with linalg._eigh_workers():
            _svt_many(mats, 0.5, meanwhile=lambda: calls.append(threading.get_ident()))
        assert calls == [threading.get_ident()]

    def test_a_worker_error_reaches_the_caller(self, rng, monkeypatch):
        mats = [rng.standard_normal((40, 30)) for _ in range(8)]
        monkeypatch.setattr(linalg, "_eigh_parts", lambda count, size: 2)
        caller, eigh = threading.get_ident(), np.linalg.eigh

        def failing_off_the_caller(a):
            if threading.get_ident() != caller:
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", failing_off_the_caller)
        with pytest.raises(np.linalg.LinAlgError), linalg._eigh_workers():
            _svt_many(mats, 0.5)

    def test_an_open_block_keeps_one_pool_for_its_calls(self, rng, monkeypatch):
        mats = [rng.standard_normal((40, 30)) for _ in range(8)]
        monkeypatch.setattr(linalg, "_cpus", lambda: 2)  # a pool of one worker anywhere
        monkeypatch.setattr(linalg, "_eigh_parts", lambda count, size: 2)
        calls = record_eigh(monkeypatch)
        threads = threading.active_count()
        with linalg._eigh_workers():
            for _ in range(2):
                _svt_many(mats, 0.5)
            with linalg._eigh_workers():
                _svt_many(mats, 0.5)
            assert threading.active_count() == threads + 1
        workers = {ident for ident, _ in calls} - {threading.get_ident()}
        assert len(workers) == 1
        assert threading.active_count() == threads

    def test_outside_a_block_a_stack_is_one_call(self, rng, monkeypatch):
        mats = [rng.standard_normal((40, 30)) for _ in range(9)]
        monkeypatch.setattr(linalg, "_eigh_parts", lambda count, size: 3)
        calls = record_eigh(monkeypatch)
        want = [z.tobytes() for z in _svt_many(mats, 0.5)]
        assert [(ident, len(stack)) for ident, stack in calls] == [(threading.get_ident(), 9)]
        with linalg._eigh_workers():
            assert [z.tobytes() for z in _svt_many(mats, 0.5)] == want

    def test_a_block_without_a_split_starts_no_thread(self, rng, monkeypatch):
        calls = record_eigh(monkeypatch)
        threads = threading.active_count()
        with linalg._eigh_workers():
            _svt_many([rng.standard_normal((40, 30)) for _ in range(7)], 0.5)
            assert threading.active_count() == threads
        assert {ident for ident, _ in calls} == {threading.get_ident()}


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
