"""Solver loop: state init, the three block updates, fit, and predict."""

import numpy as np
import pytest

from mvml import (
    AllViewsMissing,
    InvalidInput,
    MultiViewDataset,
    NonFiniteObjective,
    SolverConfig,
    SolverState,
    ViewData,
    WeightStack,
    fit,
    init_state,
    predict,
    trace_norm_subgradient,
    update_multipliers,
    update_w,
    update_z,
)
from mvml.linalg import RIDGE_SCALE, nuclear_norm, svt
from mvml.masking import CorruptionSpec, SyntheticSpec, corrupt, generate_synthetic
from mvml.data import present_rows, stack_predictions, sublabel_rows
from mvml.objective import objective

import oracles
from conftest import make_dataset


def small_training_set(rng, n=40, c=3, dims=(4, 6)):
    return make_dataset(rng, n=n, c=c, dims=dims, ensure_positive_per_row=True)


def manual_state(ds, rng, config, scale=1.0):
    """A solver state with random weights, splits, and multipliers."""
    state = init_state(ds, config)
    weights = [scale * rng.standard_normal(w.shape) for w in state.w.weights]
    z = [rng.standard_normal(zk.shape) for zk in state.z]
    mult = [rng.standard_normal(m.shape) for m in state.multipliers]
    return SolverState(w=WeightStack(weights), z=z, multipliers=mult, iteration=0)


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


class TestInitState:
    def test_same_seed_gives_identical_states(self, rng):
        ds = small_training_set(rng)
        cfg = SolverConfig(lam=0.5, init_seed=99)
        a, b = init_state(ds, cfg), init_state(ds, cfg)
        for wa, wb in zip(a.w.weights, b.w.weights):
            assert np.array_equal(wa, wb)

    def test_splits_and_multipliers_start_at_zero(self, rng):
        ds = small_training_set(rng)
        state = init_state(ds, SolverConfig(lam=0.5))
        assert state.z and state.multipliers
        for zk, mk in zip(state.z, state.multipliers):
            assert not zk.any() and not mk.any()
            assert zk.shape == mk.shape == (zk.shape[0], ds.n_labels)
        assert state.iteration == 0

    def test_column_norms_average_to_one(self, rng):
        ds = small_training_set(rng, n=10, c=2, dims=(16,))
        norms = []
        for seed in range(1000):
            state = init_state(ds, SolverConfig(lam=0.0, init_seed=seed))
            norms.extend(np.linalg.norm(state.w.weights[0], axis=0))
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
        state = init_state(ds, cfg)
        w_fit = np.linalg.lstsq(features, labels, rcond=None)[0]
        state = SolverState(w=WeightStack([w_fit]), z=state.z,
                            multipliers=state.multipliers, iteration=0)
        w_new = update_w(state, ds, cfg)
        assert np.abs(w_new.weights[0]).max() <= 1e-12

    def test_matches_dense_oracle_single_view(self, rng):
        ds = make_dataset(rng, n=6, c=2, dims=(2,), ensure_positive_per_row=True)
        cfg = SolverConfig(lam=0.7, mu=5.0, init_seed=3)
        state = manual_state(ds, rng, cfg)
        stack = np.vstack([v.features[present_rows(v)] @ w
                           for v, w in zip(ds.views, state.w.weights)])
        grad = trace_norm_subgradient(stack)
        got = update_w(state, ds, cfg, grad_prev=grad)
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
        got = update_w(state, ds, cfg, grad_prev=grad)
        want = dense_w_oracle(ds, state, cfg, grad)
        for g, w in zip(got.weights, want.weights):
            assert np.linalg.norm(g - w) <= 1e-9 * max(1.0, np.linalg.norm(w))

    def test_self_residual_small_on_short_run(self, rng):
        ds = small_training_set(rng, n=30)
        cfg = SolverConfig(lam=0.5, mu=5.0, max_iters=5, rel_tol=0.0, init_seed=2)
        state = init_state(ds, cfg)
        for _ in range(5):
            stack = np.vstack([v.features[present_rows(v)] @ w
                               for v, w in zip(ds.views, state.w.weights)])
            grad = trace_norm_subgradient(stack)
            w_new = update_w(state, ds, cfg, grad_prev=grad)
            oracle = dense_w_oracle(ds, state, cfg, grad)
            for g, w in zip(w_new.weights, oracle.weights):
                assert np.linalg.norm(g - w) <= 1e-8 * max(1.0, np.linalg.norm(w))
            state = SolverState(w=w_new, z=update_z(state, ds, cfg),
                                multipliers=update_multipliers(state, ds, cfg),
                                iteration=state.iteration + 1)

    def test_rejects_wrong_gradient_shape(self, rng):
        ds = small_training_set(rng)
        cfg = SolverConfig(lam=0.5)
        state = init_state(ds, cfg)
        with pytest.raises(InvalidInput):
            update_w(state, ds, cfg, grad_prev=np.zeros((3, 3)))


class TestUpdateZ:
    def test_tau_zero_is_identity(self, rng):
        ds = small_training_set(rng)
        cfg = SolverConfig(lam=0.0, mu=5.0, init_seed=4)
        state = manual_state(ds, rng, cfg)
        rows = label_stack_rows(ds)
        new_z = update_z(state, ds, cfg)
        for a, per_view in enumerate(rows):
            stack = np.vstack([v.features[r] @ w for v, r, w
                               in zip(ds.views, per_view, state.w.weights)])
            want = stack + state.multipliers[a] / cfg.mu
            assert np.allclose(new_z[a], want, atol=1e-12)

    def test_full_shrinkage_gives_zero(self, rng):
        ds = small_training_set(rng)
        cfg = SolverConfig(lam=1e9, mu=1.0, init_seed=4)
        state = manual_state(ds, rng, cfg, scale=0.01)
        for zk in update_z(state, ds, cfg):
            assert not zk.any()

    def test_matches_proximal_oracle(self, rng):
        ds = small_training_set(rng)
        cfg = SolverConfig(lam=0.8, mu=2.5, init_seed=4)
        state = manual_state(ds, rng, cfg)
        rows = label_stack_rows(ds)
        new_z = update_z(state, ds, cfg)
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
        state = SolverState(w=state.w, z=z, multipliers=state.multipliers, iteration=0)
        new = update_multipliers(state, ds, cfg)
        for m_new, m_old in zip(new, state.multipliers):
            assert np.allclose(m_new, m_old, atol=1e-12)

    def test_ascends_by_mu_times_residual(self, rng):
        ds = small_training_set(rng)
        cfg = SolverConfig(lam=0.5, mu=5.0, init_seed=6)
        state = manual_state(ds, rng, cfg)
        zero_mult = [np.zeros_like(m) for m in state.multipliers]
        state = SolverState(w=state.w, z=state.z, multipliers=zero_mult, iteration=0)
        rows = label_stack_rows(ds)
        new = update_multipliers(state, ds, cfg)
        for a, per_view in enumerate(rows):
            stack = np.vstack([v.features[r] @ w for v, r, w
                               in zip(ds.views, per_view, state.w.weights)])
            assert np.allclose(new[a], 5.0 * (stack - state.z[a]), atol=1e-12)

    def test_two_steps_advance_twice(self, rng):
        ds = small_training_set(rng)
        cfg = SolverConfig(lam=0.5, mu=3.0, init_seed=6)
        state = manual_state(ds, rng, cfg)
        once = update_multipliers(state, ds, cfg)
        state2 = SolverState(w=state.w, z=state.z, multipliers=once, iteration=1)
        twice = update_multipliers(state2, ds, cfg)
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
        import mvml.solver as solver_mod
        monkeypatch.setattr(solver_mod, "_masked_loss_from_preds",
                            lambda ws, preds: float("nan"))
        with pytest.raises(NonFiniteObjective) as info:
            fit(ds, SolverConfig(lam=0.5, max_iters=5, init_seed=1))
        assert info.value.iteration == 1

    def test_global_term_never_sees_more_rows_than_features(self, rng, monkeypatch):
        ds = make_dataset(rng, n=40, c=4, dims=(3, 5), with_missing=True,
                          ensure_positive_per_row=True)
        import mvml.solver as solver_mod
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
        import mvml.solver as solver_mod
        rows = {"svt": [], "nuclear_norm": []}

        def recording(name, kernel):
            def wrapped(a, *args):
                rows[name].append(np.shape(a)[0])
                return kernel(a, *args)
            return wrapped

        monkeypatch.setattr(solver_mod, "svt", recording("svt", svt))
        monkeypatch.setattr(solver_mod, "nuclear_norm", recording("nuclear_norm", nuclear_norm))
        sweeps = 3
        fit(ds, SolverConfig(lam=0.5, max_iters=sweeps, rel_tol=0.0, variant=variant))
        norms = bounds + [3 + 5] if variant == "full" else bounds  # labels, then the global term
        assert rows["svt"] == bounds * sweeps
        assert rows["nuclear_norm"] == norms * sweeps

    @pytest.mark.parametrize("variant", ["full", "loss_plus_local"])
    def test_fit_stacks_only_the_compressed_label_rows(self, rng, variant, monkeypatch):
        ds = make_dataset(rng, n=60, c=3, dims=(3, 5), with_missing=True,
                          ensure_positive_per_row=True)
        want = sum(min(rows.size, d) for per_view in label_stack_rows(ds)
                   for rows, d in zip(per_view, (3, 5)))
        import mvml.solver as solver_mod
        layouts = []

        class Recording(solver_mod._LabelStacks):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                layouts.append(self)

        monkeypatch.setattr(solver_mod, "_LabelStacks", Recording)
        fit(ds, SolverConfig(lam=0.5, max_iters=2, rel_tol=0.0, variant=variant))
        compressed_views = sum(min(present_rows(v).size, d) for v, d in zip(ds.views, (3, 5)))
        want = [want, compressed_views] if variant == "full" else [want]
        assert [layout.ext.shape[0] for layout in layouts] == want

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
            ds.views[1].labels[ds.views[1].labels == 1.0] = 0.0
        view = 0 if blank == "every_view" else 1
        for variant in ("full", "loss_plus_local"):
            config = SolverConfig(lam=0.5, max_iters=5, variant=variant)
            with pytest.raises(InvalidInput, match=f"view {view}: no present row"):
                fit(ds, config)
            state = init_state(ds, config)
            with pytest.raises(InvalidInput, match=f"view {view}: no present row"):
                update_w(state, ds, config)
        fit(ds, SolverConfig(lam=0.5, variant="loss_only"))  # one direct solve per label


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


class TestFitComposesBlockUpdates:
    @pytest.mark.parametrize("sweeps", [1, 5])
    def test_fit_equals_manual_rounds(self, rng, sweeps):
        ds = make_dataset(rng, n=30, c=4, dims=(3, 5), with_missing=True, aligned=False,
                          ensure_positive_per_row=True)
        cfg = SolverConfig(lam=0.6, mu=3.0, max_iters=sweeps, rel_tol=0.0, init_seed=4)
        w_fit, trace = fit(ds, cfg)
        assert trace.iterations == sweeps

        state = init_state(ds, cfg)
        for _ in range(sweeps):
            stack = stack_predictions(ds, state.w, [present_rows(v) for v in ds.views])
            w = update_w(state, ds, cfg, grad_prev=trace_norm_subgradient(stack))
            z = update_z(SolverState(w=w, z=state.z, multipliers=state.multipliers), ds, cfg)
            mult = update_multipliers(
                SolverState(w=w, z=z, multipliers=state.multipliers), ds, cfg)
            state = SolverState(w=w, z=z, multipliers=mult, iteration=state.iteration + 1)
        for got, want in zip(w_fit.weights, state.w.weights):
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

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
