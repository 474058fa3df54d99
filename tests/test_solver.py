"""Solver loop: the seeded state, the three block updates, fit, and predict."""

import multiprocessing
import sys
import threading

import numpy as np
import pytest

from mvml import (
    AllViewsMissing,
    InvalidInput,
    MultiViewDataset,
    NonFiniteObjective,
    SolverConfig,
    ViewData,
    WeightStack,
    fit,
    predict,
    trace_norm_subgradient,
)
from mvml import solver as solver_mod
from mvml.linalg import RIDGE_SCALE, _nuclear_norm_many, _svt_many, nuclear_norm, svt
from mvml.masking import CorruptionSpec, SyntheticSpec, corrupt, generate_synthetic
from mvml.data import StackGeometry, present_rows, sublabel_rows
from mvml.objective import objective
from mvml.solver import _gram_root, _group_width, _observed_grams

import oracles
from oracles import SampleState, multiplier_step, seed_state, w_step, z_step
from conftest import DIVERGING_SOLVER, diverging_training_set, make_dataset


def small_training_set(rng, n=40, c=3, dims=(4, 6)):
    return make_dataset(rng, n=n, c=c, dims=dims, ensure_positive_per_row=True)


def manual_state(ds, rng, config, scale=1.0):
    """A sample-space state with random weights, splits, and multipliers."""
    state = seed_state(ds, config)
    weights = [scale * rng.standard_normal(w.shape) for w in state.w.weights]
    z = [rng.standard_normal(zk.shape) for zk in state.z]
    mult = [rng.standard_normal(m.shape) for m in state.multipliers]
    return SampleState(w=WeightStack(weights), z=z, multipliers=mult)


def label_stack_rows(ds):
    """Per active label, the per-view positive-row index lists."""
    out = []
    for k in range(ds.n_labels):
        rows = [sublabel_rows(v, k) for v in ds.views]
        if sum(r.size for r in rows):
            out.append(rows)
    return out


def dense_w_oracle(ds, state, config, grad_prev):
    """Rebuild the per-view linear systems explicitly and solve densely."""
    actives = label_stack_rows(ds)
    grad_blocks = None
    if grad_prev is not None and config.lam > 0:
        sizes = [present_rows(v).size for v in ds.views]
        grad_blocks = np.split(grad_prev, np.cumsum(sizes)[:-1])
    out = []
    for i, view in enumerate(ds.views):
        x = view.features
        gram = sum(x[rows[i]].T @ x[rows[i]] for rows in actives)
        m = config.mu * gram
        m = m + (RIDGE_SCALE * np.trace(m) / m.shape[0]) * np.eye(m.shape[0])
        rhs = np.zeros((view.n_features, ds.n_labels))
        for a, rows in enumerate(actives):
            start = sum(rows[j].size for j in range(i))
            block = slice(start, start + rows[i].size)
            rhs += x[rows[i]].T @ (config.mu * state.z[a][block] - state.multipliers[a][block])
        ind = (view.labels != 0) & ~view.missing_rows[:, None]
        rhs -= x.T @ (ind * (x @ state.w.weights[i] - view.labels))
        if grad_blocks is not None:
            rhs += config.lam * x[present_rows(view)].T @ grad_blocks[i]
        out.append(np.linalg.solve(m, rhs))
    return WeightStack(out)


def seeded_iterate(ds, config):
    """The state ``fit`` starts its sweeps from."""
    geometry = StackGeometry(ds)
    return solver_mod._Problem(geometry, config).seed(geometry)


class TestInitState:
    def test_same_seed_gives_identical_states(self, rng):
        ds = small_training_set(rng)
        cfg = SolverConfig(lam=0.5, init_seed=99)
        a, b = seeded_iterate(ds, cfg), seeded_iterate(ds, cfg)
        for wa, wb in zip(a.preds.w.weights, b.preds.w.weights):
            assert np.array_equal(wa, wb)

    def test_splits_and_multipliers_start_at_zero(self, rng):
        ds = small_training_set(rng)
        state = seeded_iterate(ds, SolverConfig(lam=0.5))
        assert state.z.size and state.multipliers.size
        assert not state.z.any() and not state.multipliers.any()
        assert state.z.shape == state.multipliers.shape == (state.z.shape[0], ds.n_labels)

    def test_column_norms_average_to_one(self, rng):
        ds = small_training_set(rng, n=10, c=2, dims=(16,))
        norms = []
        for seed in range(1000):
            state = seeded_iterate(ds, SolverConfig(lam=0.0, init_seed=seed))
            norms.extend(np.linalg.norm(state.preds.w.weights[0], axis=0))
        assert np.mean(norms) == pytest.approx(1.0, rel=0.10)


class TestUpdateW:
    def test_interpolating_weights_map_to_zero(self, rng):
        features = np.linalg.qr(rng.standard_normal((6, 6)))[0]
        labels = -np.ones((6, 2))
        labels[:3, 0] = 1.0  # exactly one positive per row
        labels[3:, 1] = 1.0
        view = ViewData(features=features, labels=labels,
                        missing_rows=np.zeros(6, dtype=bool))
        ds = MultiViewDataset(views=[view], aligned=True)
        cfg = SolverConfig(lam=0.0, mu=5.0, init_seed=1)
        state = seed_state(ds, cfg)
        w_fit = np.linalg.lstsq(features, labels, rcond=None)[0]
        state = SampleState(w=WeightStack([w_fit]), z=state.z, multipliers=state.multipliers)
        w_new = w_step(state, ds, cfg)
        assert np.abs(w_new.weights[0]).max() <= 1e-12

    def test_matches_dense_oracle_single_view(self, rng):
        ds = make_dataset(rng, n=6, c=2, dims=(2,), ensure_positive_per_row=True)
        cfg = SolverConfig(lam=0.7, mu=5.0, init_seed=3)
        state = manual_state(ds, rng, cfg)
        stack = np.vstack([v.features[present_rows(v)] @ w
                           for v, w in zip(ds.views, state.w.weights)])
        grad = trace_norm_subgradient(stack)
        got = w_step(state, ds, cfg, grad_prev=grad)
        want = dense_w_oracle(ds, state, cfg, grad)
        for g, w in zip(got.weights, want.weights):
            assert np.linalg.norm(g - w) <= 1e-9 * max(1.0, np.linalg.norm(w))

    def test_matches_dense_oracle_two_views_with_missing(self, rng):
        ds = make_dataset(rng, n=15, c=3, dims=(4, 5), with_missing=True,
                          ensure_positive_per_row=True)
        cfg = SolverConfig(lam=0.4, mu=2.0, init_seed=8)
        state = manual_state(ds, rng, cfg)
        stack = np.vstack([v.features[present_rows(v)] @ w
                           for v, w in zip(ds.views, state.w.weights)])
        grad = trace_norm_subgradient(stack)
        got = w_step(state, ds, cfg, grad_prev=grad)
        want = dense_w_oracle(ds, state, cfg, grad)
        for g, w in zip(got.weights, want.weights):
            assert np.linalg.norm(g - w) <= 1e-9 * max(1.0, np.linalg.norm(w))

    def test_self_residual_small_on_short_run(self, rng):
        ds = small_training_set(rng, n=30)
        cfg = SolverConfig(lam=0.5, mu=5.0, max_iters=5, rel_tol=0.0, init_seed=2)
        state = seed_state(ds, cfg)
        for _ in range(5):
            stack = np.vstack([v.features[present_rows(v)] @ w
                               for v, w in zip(ds.views, state.w.weights)])
            grad = trace_norm_subgradient(stack)
            w_new = w_step(state, ds, cfg, grad_prev=grad)
            oracle = dense_w_oracle(ds, state, cfg, grad)
            for g, w in zip(w_new.weights, oracle.weights):
                assert np.linalg.norm(g - w) <= 1e-8 * max(1.0, np.linalg.norm(w))
            state = SampleState(w=w_new, z=z_step(state, ds, cfg),
                                multipliers=multiplier_step(state, ds, cfg))


class TestUpdateZ:
    def test_tau_zero_is_identity(self, rng):
        ds = small_training_set(rng)
        cfg = SolverConfig(lam=0.0, mu=5.0, init_seed=4)
        state = manual_state(ds, rng, cfg)
        rows = label_stack_rows(ds)
        new_z = z_step(state, ds, cfg)
        for a, per_view in enumerate(rows):
            stack = np.vstack([v.features[r] @ w for v, r, w
                               in zip(ds.views, per_view, state.w.weights)])
            want = stack + state.multipliers[a] / cfg.mu
            assert np.allclose(new_z[a], want, atol=1e-12)

    def test_full_shrinkage_gives_zero(self, rng):
        ds = small_training_set(rng)
        cfg = SolverConfig(lam=1e9, mu=1.0, init_seed=4)
        state = manual_state(ds, rng, cfg, scale=0.01)
        for zk in z_step(state, ds, cfg):
            assert not zk.any()

    def test_matches_proximal_oracle(self, rng):
        ds = small_training_set(rng)
        cfg = SolverConfig(lam=0.8, mu=2.5, init_seed=4)
        state = manual_state(ds, rng, cfg)
        rows = label_stack_rows(ds)
        new_z = z_step(state, ds, cfg)
        for a, per_view in enumerate(rows):
            stack = np.vstack([v.features[r] @ w for v, r, w
                               in zip(ds.views, per_view, state.w.weights)])
            want = oracles.svd_svt(stack + state.multipliers[a] / cfg.mu,
                                   cfg.lam / cfg.mu)
            assert np.linalg.norm(new_z[a] - want) <= 1e-8


class TestUpdateMultipliers:
    def test_zero_residual_leaves_multipliers(self, rng):
        ds = small_training_set(rng)
        cfg = SolverConfig(lam=0.5, mu=5.0, init_seed=6)
        state = manual_state(ds, rng, cfg)
        rows = label_stack_rows(ds)
        z = []
        for per_view in rows:
            z.append(np.vstack([v.features[r] @ w for v, r, w
                                in zip(ds.views, per_view, state.w.weights)]))
        state = SampleState(w=state.w, z=z, multipliers=state.multipliers)
        new = multiplier_step(state, ds, cfg)
        for m_new, m_old in zip(new, state.multipliers):
            assert np.allclose(m_new, m_old, atol=1e-12)

    def test_ascends_by_mu_times_residual(self, rng):
        ds = small_training_set(rng)
        cfg = SolverConfig(lam=0.5, mu=5.0, init_seed=6)
        state = manual_state(ds, rng, cfg)
        zero_mult = [np.zeros_like(m) for m in state.multipliers]
        state = SampleState(w=state.w, z=state.z, multipliers=zero_mult)
        rows = label_stack_rows(ds)
        new = multiplier_step(state, ds, cfg)
        for a, per_view in enumerate(rows):
            stack = np.vstack([v.features[r] @ w for v, r, w
                               in zip(ds.views, per_view, state.w.weights)])
            assert np.allclose(new[a], 5.0 * (stack - state.z[a]), atol=1e-12)

    def test_two_steps_advance_twice(self, rng):
        ds = small_training_set(rng)
        cfg = SolverConfig(lam=0.5, mu=3.0, init_seed=6)
        state = manual_state(ds, rng, cfg)
        once = multiplier_step(state, ds, cfg)
        state2 = SampleState(w=state.w, z=state.z, multipliers=once)
        twice = multiplier_step(state2, ds, cfg)
        for m0, m1, m2 in zip(state.multipliers, once, twice):
            assert np.allclose(m2 - m1, m1 - m0, atol=1e-10)


class TestFit:
    def test_lambda_zero_matches_loss_only(self, rng):
        # complete +/-1 labels with exactly one positive per row keep the
        # iterative path's normal matrix equal to the least-squares one at
        # mu=1, so both variants land on the same interpolant
        n, c, d = 40, 3, 6
        features = rng.standard_normal((n, d))
        labels = -np.ones((n, c))
        labels[np.arange(n), rng.integers(0, c, size=n)] = 1.0
        for k in range(c):
            labels[k % n, :] = -1.0
            labels[k % n, k] = 1.0
        view = ViewData(features=features, labels=labels,
                        missing_rows=np.zeros(n, dtype=bool))
        ds = MultiViewDataset(views=[view], aligned=True)
        w_full, _ = fit(ds, SolverConfig(lam=0.0, mu=1.0, variant="full", init_seed=5))
        w_loss, _ = fit(ds, SolverConfig(lam=0.0, mu=1.0, variant="loss_only", init_seed=5))
        pred_full = features @ w_full.weights[0]
        pred_loss = features @ w_loss.weights[0]
        assert np.abs(pred_full - pred_loss).max() <= 1e-6

    def test_lambda_zero_full_equals_loss_plus_local_exactly(self):
        # at lam = 0 the linearized global term adds 0 * G to the W step and the
        # surrogate equals the objective, so FULL takes LOSS_PLUS_LOCAL's sweeps
        ds = corrupt(generate_synthetic(SyntheticSpec(n=200, c=6, n_views=2, dims=(8, 10),
                                                      seed=3)),
                     CorruptionSpec(alpha=0.3, beta=0.3, dealign=True, seed=5))
        (w_full, full), (w_local, local) = (
            fit(ds, SolverConfig(lam=0.0, variant=variant, init_seed=2))
            for variant in ("full", "loss_plus_local"))
        assert full.converged and full.iterations > 2
        assert full.surrogate == full.objective
        assert full.to_dict() == local.to_dict() and full.converged == local.converged
        for a, b in zip(w_full.weights, w_local.weights):
            assert np.array_equal(a, b)

    def test_loss_only_unobserved_label_column_stays_zero(self, rng):
        ds = make_dataset(rng, n=20, c=3, dims=(4,), ensure_positive_per_row=True)
        labels = ds.views[0].labels.copy()
        labels[:, 2] = 0.0
        labels[:, 0] = np.where(labels[:, 0] == 0, -1.0, labels[:, 0])
        view = ViewData(features=ds.views[0].features, labels=labels,
                        missing_rows=ds.views[0].missing_rows)
        ds = MultiViewDataset(views=[view], aligned=True)
        w, _ = fit(ds, SolverConfig(lam=0.0, variant="loss_only"))
        assert not w.weights[0][:, 2].any()
        assert w.weights[0][:, 0].any()

    def test_loss_only_zero_gram_gives_a_zero_column(self, rng):
        # label 1 is observed in view 1 only on rows whose features are zero
        n = 12
        views = []
        for i in range(2):
            features = rng.standard_normal((n, 2))
            labels = np.where(rng.random((n, 2)) < 0.5, 1.0, -1.0)
            if i == 1:
                features[8:] = 0.0
                labels[:8, 1] = 0.0
            views.append(ViewData(features=features, labels=labels,
                                  missing_rows=np.zeros(n, dtype=bool)))
        ds = MultiViewDataset(views=views, aligned=True)
        w, trace = fit(ds, SolverConfig(lam=0.0, variant="loss_only"))
        assert not w.weights[1][:, 1].any()
        x, y = views[1].features[:8], views[1].labels[:8, 0]
        assert np.allclose(w.weights[1][:, 0], np.linalg.lstsq(x, y, rcond=None)[0], atol=1e-6)
        assert trace.objective[-1] == pytest.approx(
            objective(ds, w, 0.0).loss, rel=1e-12)
        fit(ds, SolverConfig(lam=0.5, max_iters=3, variant="full"))

    def test_objective_monotone_and_nonnegative_small(self, rng):
        ds = generate_synthetic(SyntheticSpec(n=200, c=6, n_views=2, dims=(8, 10), seed=3))
        w, trace = fit(ds, SolverConfig(lam=0.5, mu=5.0, max_iters=100, init_seed=7))
        f = np.array(trace.objective)
        assert f.min() >= -1e-9 * abs(f[0])
        rel_inc = np.diff(f) / np.maximum(np.abs(f[:-1]), 1e-12)
        assert rel_inc.max() <= 1e-8
        assert trace.iterations == len(trace.objective) == len(trace.surrogate)
        assert len(trace.residual) == len(trace.seconds) == trace.iterations

    @pytest.mark.parametrize("variant", ["full", "loss_plus_local", "loss_only"])
    def test_trace_records_the_set_up_time_outside_its_series(self, rng, variant):
        _, trace = fit(small_training_set(rng), SolverConfig(lam=0.5, max_iters=3,
                                                             variant=variant))
        assert trace.setup_seconds > 0.0
        assert "setup_seconds" not in trace.to_dict() and "setup_seconds" not in trace.summary()

    def test_fit_is_deterministic(self, rng):
        ds = generate_synthetic(SyntheticSpec(n=120, c=5, n_views=2, dims=(6, 7), seed=9))
        cfg = SolverConfig(lam=0.3, mu=5.0, max_iters=30, init_seed=13)
        w1, t1 = fit(ds, cfg)
        w2, t2 = fit(ds, cfg)
        for a, b in zip(w1.weights, w2.weights):
            assert np.array_equal(a, b)
        assert t1.objective == t2.objective
        assert t1.surrogate == t2.surrogate
        assert t1.residual == t2.residual

    def test_non_finite_objective_is_reported(self, rng, monkeypatch):
        ds = small_training_set(rng)
        monkeypatch.setattr(solver_mod, "_masked_loss_from_preds",
                            lambda ws, preds: float("nan"))
        with pytest.raises(NonFiniteObjective) as info:
            fit(ds, SolverConfig(lam=0.5, max_iters=5, init_seed=1))
        assert info.value.iteration == 1

    @pytest.mark.parametrize("variant", ["full", "loss_plus_local", "loss_only"])
    def test_non_finite_objective_carries_the_trace_so_far(self, rng, variant, monkeypatch):
        ds = small_training_set(rng)
        cfg = SolverConfig(lam=0.5, max_iters=5, rel_tol=0.0, init_seed=1, variant=variant)
        _, clean = fit(ds, cfg)
        fails_at = 1 if variant == "loss_only" else 3
        real, calls = solver_mod._masked_loss_from_preds, []

        def failing(grams, preds):
            calls.append(None)
            return float("nan") if len(calls) == fails_at else real(grams, preds)

        monkeypatch.setattr(solver_mod, "_masked_loss_from_preds", failing)
        with pytest.raises(NonFiniteObjective, match=f"at iteration {fails_at}") as info:
            fit(ds, cfg)
        trace = info.value.trace
        assert info.value.iteration == trace.iterations == fails_at
        assert np.isnan(info.value.value) and np.isnan(trace.objective[-1])
        assert trace.objective[:-1] == clean.objective[:fails_at - 1]
        assert trace.residual[:-1] == clean.residual[:fails_at - 1]
        assert not trace.converged

    def test_a_diverging_fit_ends_in_non_finite_objective(self):
        """The sweep that would overflow a label stack's Gram stops the fit with a NaN
        record, before any trace-norm kernel sees that stack, and warns of nothing."""
        with pytest.raises(NonFiniteObjective, match="at iteration 118") as info:
            fit(diverging_training_set(), SolverConfig(**DIVERGING_SOLVER))
        trace = info.value.trace
        assert info.value.iteration == trace.iterations
        assert np.isnan(info.value.value) and np.isnan(trace.objective[-1])
        assert np.all(np.isfinite(trace.objective[:-1]))

    def test_a_fit_runs_every_eigendecomposition_on_the_calling_thread(self, monkeypatch):
        """Even on a set with label work for several threads, every ``eigh`` and
        ``eigvalsh`` runs on the fit's thread, no other thread runs meanwhile, and the
        results are those of the unwatched fit."""
        count = threading.active_count()
        want_w, want_trace = fit_the_label_split_set()
        calls = []
        for name in ("eigh", "eigvalsh"):
            kernel = getattr(np.linalg, name)

            def recording(a, kernel=kernel, name=name):
                calls.append((name, threading.get_ident(), threading.active_count()))
                return kernel(a)

            monkeypatch.setattr(np.linalg, name, recording)
        w, trace = fit_the_label_split_set()
        assert {name for name, _, _ in calls} == {"eigh", "eigvalsh"}
        assert {(ident, active) for _, ident, active in calls} == {(threading.get_ident(), count)}
        assert threading.active_count() == count
        assert trace.to_dict() == want_trace.to_dict()
        assert [wi.tobytes() for wi in w.weights] == [wi.tobytes() for wi in want_w.weights]

    # From 3.12, os.fork warns in a process with threads, and the BLAS library keeps some
    @pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
    def test_a_forked_child_fits_after_the_parent_has_fit(self):
        """A fit leaves nothing behind that a forked child cannot use: a thread pool kept
        past the parent's fit, say, would reach the child without its worker threads,
        and the child's fit would wait forever."""
        w, trace = fit_the_label_split_set()
        with multiprocessing.get_context("fork").Pool(1) as pool:
            child_w, child_trace = pool.apply_async(fit_the_label_split_set).get(timeout=60)
        assert child_trace.to_dict() == trace.to_dict()
        assert [wi.tobytes() for wi in child_w.weights] == [wi.tobytes() for wi in w.weights]

    def test_global_term_never_sees_more_rows_than_features(self, rng, monkeypatch):
        ds = make_dataset(rng, n=40, c=4, dims=(3, 5), with_missing=True,
                          ensure_positive_per_row=True)
        rows = []

        def recording(a):
            rows.append(np.shape(a)[0])
            return trace_norm_subgradient(a)

        monkeypatch.setattr(solver_mod, "trace_norm_subgradient", recording)
        fit(ds, SolverConfig(lam=0.5, max_iters=4, rel_tol=0.0))
        assert len(rows) == 4
        assert max(rows) <= 3 + 5 < sum(present_rows(v).size for v in ds.views)

    @pytest.mark.parametrize("variant", ["full", "loss_plus_local"])
    def test_label_stacks_never_see_more_rows_than_their_blocks_allow(
            self, rng, variant, monkeypatch):
        ds = make_dataset(rng, n=60, c=3, dims=(3, 5), with_missing=True,
                          ensure_positive_per_row=True)
        # label k's bound: sum over views of min(n_{k,i}, d_i)
        bounds = [sum(min(rows.size, d) for rows, d in zip(per_view, (3, 5)))
                  for per_view in label_stack_rows(ds)]
        assert sum(bounds) < sum(rows.size for per_view in label_stack_rows(ds)
                                 for rows in per_view)
        rows = {"svt": [], "nuclear_norm": []}

        def recording(name, kernel):  # the label kernels take every label's stack at once
            def wrapped(mats, *args, **kwargs):
                rows[name].extend(np.shape(a)[0] for a in mats)
                return kernel(mats, *args, **kwargs)
            return wrapped

        monkeypatch.setattr(solver_mod, "_svt_many", recording("svt", _svt_many))
        monkeypatch.setattr(solver_mod, "_nuclear_norm_many",
                            recording("nuclear_norm", _nuclear_norm_many))
        global_norm = recording("nuclear_norm", lambda mats: nuclear_norm(mats[0]))
        monkeypatch.setattr(solver_mod, "nuclear_norm", lambda a: global_norm([a]))
        sweeps = 3
        fit(ds, SolverConfig(lam=0.5, max_iters=sweeps, rel_tol=0.0, variant=variant))
        # labels, then the global term: every present row's roots, or no row set
        norms = bounds + [3 + 5] if variant == "full" else bounds + [0]
        assert rows["svt"] == bounds * sweeps
        assert rows["nuclear_norm"] == norms * sweeps

    @pytest.mark.parametrize("variant", ["full", "loss_plus_local"])
    def test_fit_stacks_only_the_compressed_label_rows(self, rng, variant, monkeypatch):
        ds = make_dataset(rng, n=60, c=3, dims=(3, 5), with_missing=True,
                          ensure_positive_per_row=True)
        want = sum(min(rows.size, d) for per_view in label_stack_rows(ds)
                   for rows, d in zip(per_view, (3, 5)))
        layouts = []

        class Recording(solver_mod._LabelStacks):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                layouts.append(self)

        monkeypatch.setattr(solver_mod, "_LabelStacks", Recording)
        fit(ds, SolverConfig(lam=0.5, max_iters=2, rel_tol=0.0, variant=variant))
        compressed_views = sum(min(present_rows(v).size, d) for v, d in zip(ds.views, (3, 5)))
        want = [want, compressed_views] if variant == "full" else [want, 0]
        assert [layout.shape[0] for layout in layouts] == want

    def test_rejects_a_non_dataset(self):
        with pytest.raises(InvalidInput):
            fit(None, SolverConfig(lam=0.5, max_iters=2))

    def test_variants_accept_string_names(self, rng):
        ds = small_training_set(rng, n=20)
        for name in ("full", "loss_only", "loss_plus_local"):
            w, _ = fit(ds, SolverConfig(lam=0.2, max_iters=5, variant=name))
            assert w.n_views == ds.n_views

    @pytest.mark.parametrize("blank", ["every_view", "one_view"])
    def test_a_view_without_positive_tags_is_named(self, blank):
        if blank == "every_view":  # beta = 1 blanks every observed tag
            ds = corrupt(
                generate_synthetic(SyntheticSpec(n=200, c=10, n_views=2, dims=(5, 6), seed=1)),
                CorruptionSpec(alpha=0.3, beta=1.0, seed=2),
            )
        else:
            ds = generate_synthetic(SyntheticSpec(n=60, c=5, n_views=2, dims=(5, 6), seed=7))
            labels = ds.views[1].labels.copy()
            labels[labels == 1.0] = 0.0
            blanked = ViewData(features=ds.views[1].features, labels=labels,
                               missing_rows=ds.views[1].missing_rows)
            ds = MultiViewDataset(views=[ds.views[0], blanked], aligned=True)
        view = 0 if blank == "every_view" else 1
        for variant in ("full", "loss_plus_local"):
            config = SolverConfig(lam=0.5, max_iters=5, variant=variant)
            with pytest.raises(InvalidInput, match=f"view {view}: no present row"):
                fit(ds, config)
        fit(ds, SolverConfig(lam=0.5, variant="loss_only"))  # one direct solve per label


def fit_the_label_split_set():
    """Three sweeps on a set with enough label work to keep several threads busy; a
    module-level name, so a pool worker can run it."""
    return fit(diverging_training_set(), SolverConfig(lam=0.5, max_iters=3, rel_tol=0.0))


def recording_factorizations(monkeypatch):
    """Make every ``cholesky``, ``inv``, ``eigh`` and ``eigvalsh`` of numpy record its
    name, the thread it runs on and the live thread count then; returns the records."""
    calls = []
    for name in ("cholesky", "inv", "eigh", "eigvalsh"):
        kernel = getattr(np.linalg, name)

        def recording(a, kernel=kernel, name=name):
            calls.append((name, threading.get_ident(), threading.active_count()))
            return kernel(a)

        monkeypatch.setattr(np.linalg, name, recording)
    return calls


def weight_bytes(w):
    return [wi.tobytes() for wi in w.weights]


class TestOneThread:
    """A fit runs on the thread that calls it, starts no other and shares no state with
    the fits of other threads."""

    @pytest.mark.parametrize("variant", ["full", "loss_plus_local", "loss_only"])
    def test_every_variant_runs_on_the_calling_thread(self, monkeypatch, variant):
        count = threading.active_count()
        calls = recording_factorizations(monkeypatch)
        fit(diverging_training_set(), SolverConfig(lam=0.5, max_iters=2, variant=variant))
        names = {name for name, _, _ in calls}
        assert {"cholesky", "inv"} <= names
        assert ("eigh" in names) == (variant != "loss_only")
        assert {(ident, active) for _, ident, active in calls} == {(threading.get_ident(), count)}
        assert threading.active_count() == count

    @pytest.mark.parametrize("end", ["returns", "non_finite", "linalg_error"])
    def test_a_fit_leaves_the_thread_count_on_every_exit(self, monkeypatch, end):
        """A fit that returns, raises ``NonFiniteObjective`` or meets a ``LinAlgError`` in
        its sweep, which reaches its caller as raised, leaves as many threads as it found."""
        count = threading.active_count()
        if end == "returns":
            fit_the_label_split_set()
        elif end == "non_finite":
            with pytest.raises(NonFiniteObjective):
                fit(diverging_training_set(), SolverConfig(**DIVERGING_SOLVER))
        else:
            def failing(a):
                raise np.linalg.LinAlgError("Eigenvalues did not converge")

            monkeypatch.setattr(np.linalg, "eigh", failing)
            with pytest.raises(np.linalg.LinAlgError, match="^Eigenvalues did not converge$"):
                fit_the_label_split_set()
        assert threading.active_count() == count

    def test_a_fit_on_another_thread_keeps_its_work_there(self, monkeypatch):
        want_w, want_trace = fit_the_label_split_set()
        calls = recording_factorizations(monkeypatch)
        got = []
        thread = threading.Thread(target=lambda: got.append(fit_the_label_split_set()))
        thread.start()
        thread.join(timeout=120)
        assert not thread.is_alive()
        (w, trace), = got
        assert calls and {ident for _, ident, _ in calls} == {thread.ident}
        assert trace.to_dict() == want_trace.to_dict()
        assert weight_bytes(w) == weight_bytes(want_w)

    def test_fits_on_two_threads_at_once_give_the_bytes_of_fits_in_turn(self):
        """No module state links two fits: run together, switching threads every
        microsecond, each gives what it gives alone."""
        ds = diverging_training_set()
        configs = [SolverConfig(lam=0.5, max_iters=3, rel_tol=0.0),
                   SolverConfig(lam=0.2, mu=3.0, max_iters=3, rel_tol=0.0,
                                variant="loss_plus_local")]
        want = [fit(ds, config) for config in configs]
        got = [None] * len(configs)

        def run(k):
            got[k] = fit(ds, configs[k])

        threads = [threading.Thread(target=run, args=(k,)) for k in range(len(configs))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for (w, trace), (want_w, want_trace) in zip(got, want):
            assert trace.to_dict() == want_trace.to_dict()
            assert weight_bytes(w) == weight_bytes(want_w)

    def test_a_sweep_shrinks_every_label_in_one_batched_call(self, monkeypatch):
        """Each sweep makes one ``_svt_many`` and one ``_nuclear_norm_many`` call, each
        over every label's block of the stack."""
        ds = diverging_training_set()
        geometry = StackGeometry(ds)
        layout = solver_mod._LabelStacks(geometry, geometry.active_index)
        shapes = [(block.stop - block.start, layout.shape[1]) for block in layout.index]
        assert len(shapes) == 30
        calls = []
        for name in ("_svt_many", "_nuclear_norm_many"):
            kernel = getattr(solver_mod, name)

            def counting(mats, *args, kernel=kernel, name=name, **kwargs):
                calls.append((name, [m.shape for m in mats]))
                return kernel(mats, *args, **kwargs)

            monkeypatch.setattr(solver_mod, name, counting)
        fit(ds, SolverConfig(lam=0.5, max_iters=3, rel_tol=0.0))
        assert calls == [("_svt_many", shapes), ("_nuclear_norm_many", shapes)] * 3

def edge_case_dataset(rng, case, n=20):
    """Two views, the second partly missing, shaped to hit one edge case."""
    c = 1 if case == "single_label" else 3
    dims = (3, 8) if case == "wide_view" else (3, 4)
    missing = [np.zeros(n, dtype=bool), rng.random(n) < 0.3]
    if case == "wide_view":
        missing[1] = np.arange(n) >= 5  # 5 present rows against 8 features
    views = []
    for i, d in enumerate(dims):
        labels = np.where(rng.random((n, c)) < 0.5, 1.0, -1.0)
        labels[rng.random((n, c)) < 0.2] = 0.0
        if c > 1:
            labels[np.arange(n), rng.integers(0, c, size=n)] = 1.0
        if case == "label_in_one_view" and i == 1:
            labels[:, 2] = -1.0
        if case == "label_nowhere":
            labels[:, 1] = -1.0
        features = rng.standard_normal((n, d))
        features[missing[i]] = 0.0
        labels[missing[i]] = 0.0
        views.append(ViewData(features=features, labels=labels, missing_rows=missing[i]))
    return MultiViewDataset(views=views, aligned=True)


def manual_rounds(ds, cfg, held_grad=None):
    """``cfg.max_iters`` rounds of the sample-space step functions from the seeded state.

    Each round takes the trace-norm subgradient at its input weights, or ``held_grad``
    in every round when it is given."""
    state = seed_state(ds, cfg)
    for _ in range(cfg.max_iters):
        grad = held_grad
        if grad is None:
            stack = oracles.stack_predictions(ds, state.w, [present_rows(v) for v in ds.views])
            grad = trace_norm_subgradient(stack)
        w = w_step(state, ds, cfg, grad_prev=grad)
        z = z_step(SampleState(w=w, z=state.z, multipliers=state.multipliers), ds, cfg)
        mult = multiplier_step(SampleState(w=w, z=z, multipliers=state.multipliers), ds, cfg)
        state = SampleState(w=w, z=z, multipliers=mult)
    return state


def ill_conditioned_dataset(rng, case, n=60):
    """Two views whose every (label, view) block is tall. ``rank_deficient``: view 0
    has a duplicated and a constant column, view 1 a zero column; ``tiny_columns``:
    every other column is scaled by 1e-6; ``rank_deficient_tiny``: both."""
    ds = make_dataset(rng, n=n, c=3, dims=(5, 4), with_missing=True,
                      ensure_positive_per_row=True)
    views = []
    for i, view in enumerate(ds.views):
        features, present = view.features.copy(), ~view.missing_rows
        if case.startswith("rank_deficient"):
            if i == 0:
                features[present, 1] = features[present, 0]
                features[present, 2] = 1.0
            else:
                features[present, 1] = 0.0
        if "tiny" in case:
            features[:, ::2] *= 1e-6
        views.append(ViewData(features=features, labels=view.labels,
                              missing_rows=view.missing_rows))
    return MultiViewDataset(views=views, aligned=ds.aligned)


def test_gram_root_of_a_singular_gram_keeps_every_column_relative():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((40, 5))
    x[:, 1] = x[:, 0]  # duplicated
    x[:, 2] = 0.0
    x[:, 3] *= 1e-6
    gram = x.T @ x
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(gram)
    root = _gram_root(gram)
    assert root.shape == gram.shape
    scale = np.sqrt(np.outer(np.diag(gram), np.diag(gram)))
    assert np.all(np.abs(root.T @ root - gram) <= 1e-14 * scale)


def per_label_grams(x, observed):
    """One Gram per label from its own gather of observed rows."""
    grams = []
    for rows in observed:
        xo = x[rows]
        grams.append(xo.T @ xo)
    return np.stack(grams)


@pytest.mark.parametrize("rows, want", [(210, 1), (1_000, 2), (16_000, 6), (10**6, 8)])
def test_group_width_keeps_about_256_rows_per_group(rows, want):
    assert _group_width(rows) == want


@pytest.mark.parametrize("case", ["c_not_a_multiple", "label_never_observed", "all_observed",
                                  "no_present_row", "fewer_rows_than_groups"])
def test_grouped_grams_edge_cases(rng, case):
    n, c, width = {"no_present_row": (0, 7, 3), "fewer_rows_than_groups": (5, 8, 8)}.get(
        case, (60, 7, 3))
    x = rng.standard_normal((n, 4))
    observed = rng.random((c, n)) < 0.5
    if case == "label_never_observed":
        observed[4] = False
    if case == "all_observed":
        observed[:] = True
    got = _observed_grams(x, observed, _width=width)
    assert got.shape == (c, 4, 4)
    np.testing.assert_allclose(got, per_label_grams(x, observed), rtol=0, atol=1e-13 * np.sum(x**2))
    for k in np.flatnonzero(~observed.any(axis=1)):
        assert not got[k].any()  # LOSS_ONLY's zero-column test reads this exactly


def test_grouped_grams_of_width_one_are_the_per_label_products(rng):
    x = rng.standard_normal((300, 7))
    observed = rng.random((5, 300)) < 0.5
    assert np.array_equal(_observed_grams(x, observed, _width=1), per_label_grams(x, observed))


class TestFitComposesBlockUpdates:
    @pytest.mark.parametrize("sweeps", [1, 5])
    def test_fit_equals_manual_rounds(self, rng, sweeps):
        ds = make_dataset(rng, n=30, c=4, dims=(3, 5), with_missing=True, aligned=False,
                          ensure_positive_per_row=True)
        cfg = SolverConfig(lam=0.6, mu=3.0, max_iters=sweeps, rel_tol=0.0, init_seed=4)
        w_fit, trace = fit(ds, cfg)
        assert trace.iterations == sweeps

        state = manual_rounds(ds, cfg)
        for got, want in zip(w_fit.weights, state.w.weights):
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    @pytest.mark.parametrize("variant", ["full", "loss_plus_local"])
    def test_fit_iterates_a_pure_step(self, rng, variant):
        """Two steps from one state agree bit for bit, and K steps from the seeded state
        are ``fit(max_iters=K, rel_tol=0)``: no value crosses a sweep outside the state."""
        ds = make_dataset(rng, n=60, c=4, dims=(3, 5), with_missing=True, aligned=False,
                          ensure_positive_per_row=True)
        sweeps = 4
        cfg = SolverConfig(lam=0.6, mu=3.0, max_iters=sweeps, rel_tol=0.0, init_seed=4,
                           variant=variant)
        geometry = StackGeometry(ds)
        problem = solver_mod._Problem(geometry, cfg)
        state, records = problem.seed(geometry), []
        for _ in range(sweeps):
            again, again_record = solver_mod._step(problem, state)
            state, record = solver_mod._step(problem, state)
            assert again_record == record
            for name in ("z", "multipliers", "global_stack"):
                for a, b in zip(getattr(again, name), getattr(state, name), strict=True):
                    assert np.array_equal(a, b)
            for a, b in zip([*again.preds.w.weights, *again.preds.products],
                            [*state.preds.w.weights, *state.preds.products], strict=True):
                assert np.array_equal(a, b)
            records.append(record)

        w, trace = fit(ds, cfg)
        assert records == list(zip(trace.objective, trace.surrogate, trace.residual))
        for a, b in zip(w.weights, state.preds.w.weights, strict=True):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("variant", ["full", "loss_plus_local"])
    def test_state_carries_the_global_stack_of_its_weights(self, rng, variant):
        """The seeded state and each stepped state hold ``S`` of their own weights, bit for
        bit; under ``LOSS_PLUS_LOCAL``, whose global layout holds no row set, ``S`` has no
        rows."""
        ds = make_dataset(rng, n=60, c=4, dims=(3, 5), with_missing=True, aligned=False,
                          ensure_positive_per_row=True)
        cfg = SolverConfig(lam=0.6, mu=3.0, max_iters=3, rel_tol=0.0, init_seed=4,
                           variant=variant)
        geometry = StackGeometry(ds)
        problem = solver_mod._Problem(geometry, cfg)
        state = problem.seed(geometry)
        for step in range(cfg.max_iters + 1):
            assert np.array_equal(state.global_stack, problem.glob.stack(state.preds.w))
            if variant == "loss_plus_local":
                assert state.global_stack.shape == (0, 4)
            if step < cfg.max_iters:
                state, _ = solver_mod._step(problem, state)

    @pytest.mark.parametrize("seed", range(3))
    def test_a_held_global_stack_linearizes_every_step_at_it(self, seed):
        """Steps from ``state._replace(global_stack=held)``, ``held`` the seeded ``S``, are
        the sample-space rounds whose subgradient stays at the seeded weights."""
        ds = make_dataset(np.random.default_rng(seed), n=30, c=4, dims=(3, 5),
                          with_missing=True, aligned=False, ensure_positive_per_row=True)
        cfg = SolverConfig(lam=0.6, mu=3.0, max_iters=5, rel_tol=0.0, init_seed=4)
        geometry = StackGeometry(ds)
        problem = solver_mod._Problem(geometry, cfg)
        state = problem.seed(geometry)
        held = state.global_stack
        for _ in range(cfg.max_iters):
            state, _ = solver_mod._step(problem, state._replace(global_stack=held))

        seeded = oracles.stack_predictions(ds, seed_state(ds, cfg).w,
                                           [present_rows(v) for v in ds.views])
        rounds = manual_rounds(ds, cfg, held_grad=trace_norm_subgradient(seeded))
        w_fit, _ = fit(ds, cfg)
        for got, want in zip(state.preds.w.weights, rounds.w.weights, strict=True):
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
        assert any(np.linalg.norm(got - moving) > 1e-6 * np.linalg.norm(moving)
                   for got, moving in zip(state.preds.w.weights, w_fit.weights))

    @pytest.mark.parametrize("variant", ["full", "loss_plus_local"])
    def test_step_updates_each_label_at_its_rows_of_the_extended_stack(self, rng, variant):
        """The step holds every Z~_k and every L~_k in one array each, row-aligned with the
        label layout's extended stack; label ``k``'s rows of the new arrays are its own
        shrinkage and multiplier step, bit for bit, from the seed and from later states."""
        ds = make_dataset(rng, n=60, c=4, dims=(3, 5), with_missing=True, aligned=False,
                          ensure_positive_per_row=True)
        cfg = SolverConfig(lam=0.6, mu=3.0, max_iters=3, rel_tol=0.0, init_seed=4,
                           variant=variant)
        geometry = StackGeometry(ds)
        problem = solver_mod._Problem(geometry, cfg)
        layout = problem.layout
        every_row = np.arange(layout.shape[0])
        rows = np.sort(np.concatenate([every_row[index] for index in layout.index]))
        assert np.array_equal(rows, np.arange(layout.shape[0]))  # disjoint, covering
        state = problem.seed(geometry)
        for split in (state.z, state.multipliers):
            assert split.shape == layout.shape and not split.any()
        for _ in range(cfg.max_iters):
            new, _ = solver_mod._step(problem, state)
            ext = layout.stack(new.preds.w)
            for index in layout.index:
                stack = ext[index]
                z = svt(stack + state.multipliers[index] / cfg.mu, cfg.lam / cfg.mu)
                assert np.array_equal(new.z[index], z)
                assert np.array_equal(new.multipliers[index],
                                      state.multipliers[index] + cfg.mu * (stack - z))
            state = new
        assert state.multipliers.any()

    @pytest.mark.parametrize("case", ["rank_deficient", "rank_deficient_tiny", "tiny_columns"])
    def test_fit_equals_manual_rounds_on_ill_conditioned_views(self, rng, case):
        ds = ill_conditioned_dataset(rng, case)
        rows = [present_rows(v) for v in ds.views]
        blocks = [v.features[r] for v in ds.views
                  for r in [*(sublabel_rows(v, k) for k in range(ds.n_labels)), present_rows(v)]]
        assert all(len(x) > x.shape[1] for x in blocks)
        rejected = 0
        for x in blocks:
            try:
                np.linalg.cholesky(x.T @ x)
            except np.linalg.LinAlgError:
                rejected += 1
        if case == "tiny_columns":
            assert rejected == 0
        else:  # view 1's zero column makes each of its Grams singular: eigen roots
            assert rejected >= ds.n_labels + 1

        sweeps = 5
        cfg = SolverConfig(lam=0.6, mu=3.0, max_iters=sweeps, rel_tol=0.0, init_seed=4)
        w_fit, trace = fit(ds, cfg)
        state = manual_rounds(ds, cfg)
        # the 1e-8 ridge alone fixes the weights along a null or tiny direction of a view,
        # so the rounds are compared by the predictions every term of the objective reads
        got = oracles.stack_predictions(ds, w_fit, rows)
        want = oracles.stack_predictions(ds, state.w, rows)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
        total = objective(ds, w_fit, cfg.lam).total
        assert abs(total - trace.objective[-1]) <= 1e-12 * abs(trace.objective[-1])

    @pytest.mark.parametrize(
        "case", ["single_label", "label_in_one_view", "label_nowhere", "wide_view"])
    def test_objective_agrees_with_trace_on_edge_shapes(self, rng, case):
        ds = edge_case_dataset(rng, case)
        positives = [sum(int((v.labels[:, k] == 1).sum()) for v in ds.views)
                     for k in range(ds.n_labels)]
        if case == "single_label":
            assert ds.n_labels == 1
        elif case == "label_in_one_view":
            assert (ds.views[0].labels[:, 2] == 1).any()
            assert not (ds.views[1].labels[:, 2] == 1).any()
        elif case == "label_nowhere":
            assert positives[1] == 0
        else:
            assert present_rows(ds.views[1]).size < ds.views[1].n_features

        cfg = SolverConfig(lam=0.5, mu=5.0, max_iters=4, rel_tol=0.0, init_seed=2)
        w, trace = fit(ds, cfg)
        assert trace.iterations == 4
        assert np.isfinite(trace.objective).all()
        total = objective(ds, w, cfg.lam).total
        assert abs(total - trace.objective[-1]) <= 1e-12 * abs(trace.objective[-1])


class TestPredict:
    def test_single_view_is_linear_scoring(self, rng):
        ds = make_dataset(rng, n=8, c=3, dims=(5,))
        w = WeightStack([rng.standard_normal((5, 3))])
        assert np.allclose(predict(w, ds), ds.views[0].features @ w.weights[0],
                           atol=1e-12)

    def test_duplicated_view_equals_single_view(self, rng):
        features = rng.standard_normal((7, 4))
        labels = np.zeros((7, 2))
        labels[:, 0] = 1.0
        labels[:, 1] = -1.0
        missing = np.zeros(7, dtype=bool)
        mono = MultiViewDataset(
            views=[ViewData(features=features, labels=labels, missing_rows=missing)],
            aligned=True)
        double = MultiViewDataset(
            views=[ViewData(features=features, labels=labels, missing_rows=missing),
                   ViewData(features=features.copy(), labels=labels.copy(),
                            missing_rows=missing.copy())],
            aligned=True)
        wmat = rng.standard_normal((4, 2))
        single = predict(WeightStack([wmat]), mono)
        dup = predict(WeightStack([wmat, wmat.copy()]), double)
        assert np.allclose(single, dup, atol=1e-12)

    def test_missing_row_uses_remaining_view(self, rng):
        n, c = 6, 2
        f1, f2 = rng.standard_normal((n, 3)), rng.standard_normal((n, 4))
        labels = np.zeros((n, c))
        labels[:, 0] = 1.0
        labels[:, 1] = -1.0
        m1 = np.zeros(n, dtype=bool)
        m1[2] = True
        f1_masked, l1 = f1.copy(), labels.copy()
        f1_masked[2] = 0.0
        l1[2] = 0.0
        ds = MultiViewDataset(
            views=[ViewData(features=f1_masked, labels=l1, missing_rows=m1),
                   ViewData(features=f2, labels=labels, missing_rows=np.zeros(n, bool))],
            aligned=True)
        w1, w2 = rng.standard_normal((3, c)), rng.standard_normal((4, c))
        scores = predict(WeightStack([w1, w2]), ds)
        assert np.allclose(scores[2], f2[2] @ w2, atol=1e-12)
        assert np.allclose(scores[0], 0.5 * (f1[0] @ w1 + f2[0] @ w2), atol=1e-12)

    def test_sample_absent_everywhere_is_an_error(self, rng):
        ds = make_dataset(rng, n=6, c=2, dims=(3, 4), with_missing=True)
        for view in ds.views:
            view.missing_rows[4] = True
        w = WeightStack([rng.standard_normal((3, 2)), rng.standard_normal((4, 2))])
        with pytest.raises(AllViewsMissing) as info:
            predict(w, ds)
        assert info.value.sample == 4

    def test_requires_aligned_rows(self, rng):
        ds = make_dataset(rng, n=6, c=2, dims=(3,), aligned=False)
        w = WeightStack([rng.standard_normal((3, 2))])
        with pytest.raises(InvalidInput):
            predict(w, ds)

    def test_rejects_feature_dim_mismatch(self, rng):
        ds = make_dataset(rng, n=6, c=2, dims=(3,))
        w = WeightStack([rng.standard_normal((5, 2))])
        with pytest.raises(InvalidInput):
            predict(w, ds)

    def test_rejects_a_plain_list_of_weights(self, rng):
        ds = make_dataset(rng, n=6, c=2, dims=(3,))
        with pytest.raises(InvalidInput):
            predict([rng.standard_normal((3, 2))], ds)
