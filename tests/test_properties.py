"""Property tests on small random inputs: metric ties, the CCCP bound, the compressed
global and label terms, the batched label kernels, a sweep as a pure map, the loss on its
Grams, the Grams from tag-pattern groups, the trace-norm duality pairing, save/load."""

import pickle
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvml import (
    CorruptionSpec,
    SolverConfig,
    UndefinedMetric,
    adapted_auc,
    average_precision,
    corrupt,
    fit,
    load_dataset,
    ranking_loss,
    save_dataset,
    trace_norm_subgradient,
)
from mvml.data import StackGeometry
from mvml.linalg import _nuclear_norm_many, _svt_many, nuclear_norm, svt
from mvml.objective import stack_loss
from mvml.solver import (
    _LabelStacks, _LossGrams, _Problem, _masked_loss_from_preds, _observed_grams, _step,
)

import oracles
from conftest import make_dataset, make_weights

PROPERTY_SETTINGS = settings(max_examples=100, deadline=None, database=None, derandomize=True)


@st.composite
def tied_scores_and_truth(draw, max_c=4):
    n = draw(st.integers(1, 12))
    c = draw(st.integers(1, max_c))
    decimals = draw(st.integers(0, 2))
    raw = draw(st.lists(st.floats(-2.0, 2.0), min_size=n * c, max_size=n * c))
    signs = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n * c, max_size=n * c))
    scores = np.round(np.array(raw).reshape(n, c), decimals)
    return scores, np.array(signs).reshape(n, c)


@st.composite
def wide_tied_scores_and_truth(draw):
    """Up to 34 labels, so a row can hold the 8 or more positives at which numpy's
    pairwise summation starts; some entries are -0.0 and some rows are all one sign."""
    scores, truth = draw(tied_scores_and_truth(max_c=34))
    n, c = scores.shape
    zeros = draw(st.lists(st.sampled_from([None, -0.0, 0.0]), min_size=n * c, max_size=n * c))
    for flat, zero in enumerate(zeros):
        if zero is not None:
            scores.flat[flat] = zero
    rows = st.integers(0, n - 1)
    truth[draw(rows)] = 1.0
    truth[draw(rows)] = -1.0
    return scores, truth


@PROPERTY_SETTINGS
@given(tied_scores_and_truth())
def test_adapted_auc_equals_the_pairwise_count_under_ties(case):
    scores, truth = case
    expected = oracles.brute_auc(scores, truth)
    if expected is None:
        with pytest.raises(UndefinedMetric):
            adapted_auc(scores, truth)
    else:
        assert adapted_auc(scores, truth) == expected


@PROPERTY_SETTINGS
@given(wide_tied_scores_and_truth())
def test_ranking_and_precision_equal_the_oracles_at_wide_rows(case):
    scores, truth = case
    for metric, oracle in ((ranking_loss, oracles.brute_ranking),
                           (average_precision, oracles.brute_average_precision)):
        expected = oracle(scores, truth)
        if expected is None:
            with pytest.raises(UndefinedMetric):
                metric(scores, truth)
        else:
            assert metric(scores, truth) == expected


@PROPERTY_SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(3, 39),
    c=st.integers(1, 5),
    dims=st.lists(st.integers(1, 8), min_size=1, max_size=3),
    with_missing=st.booleans(),
    lam=st.floats(0.0, 2.0),
    mu=st.floats(0.5, 10.0),
)
def test_surrogate_bounds_the_objective_at_every_sweep(seed, n, c, dims, with_missing, lam, mu):
    ds = make_dataset(np.random.default_rng(seed), n=n, c=c, dims=tuple(dims),
                      with_missing=with_missing, ensure_positive_per_row=True)
    _, trace = fit(ds, SolverConfig(lam=lam, mu=mu, max_iters=15, rel_tol=0.0))
    for objective, surrogate in zip(trace.objective, trace.surrogate):
        assert surrogate >= objective - 1e-10 * abs(objective)


@PROPERTY_SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(3, 39),
    c=st.integers(1, 5),
    dims=st.lists(st.integers(1, 8), min_size=1, max_size=3),
    with_missing=st.booleans(),
    lam=st.floats(0.01, 2.0),
)
def test_compressed_stack_carries_the_global_term(seed, n, c, dims, with_missing, lam):
    rng = np.random.default_rng(seed)
    ds = make_dataset(rng, n=n, c=c, dims=tuple(dims), with_missing=with_missing,
                      ensure_positive_per_row=True)
    geometry = StackGeometry(ds)
    w = make_weights(rng, dims, c)
    stack = geometry.stack(w)
    layout = _LabelStacks(geometry, [np.arange(geometry.labels.shape[0])])
    compressed = layout.stack(w)
    assert compressed.shape[0] <= sum(dims)

    want = oracles.svd_nuclear(stack)
    assert abs(nuclear_norm(compressed) - want) <= 1e-12 * want

    got = [lam * g for g in layout.back_project(trace_norm_subgradient(compressed))]
    oracle = oracles.svd_subgradient(stack)
    want = [lam * feats.T @ oracle[b] for feats, b in zip(geometry.features, geometry.blocks)]
    for feats, g, o in zip(geometry.features, got, want):
        assert np.linalg.norm(g - o) <= 1e-10 * lam * np.linalg.norm(feats)


@st.composite
def label_edge_datasets(draw):
    """Random datasets reaching the label-stack edge shapes: c = 1, views wider than
    their present rows, a label positive in one view only, stacks shorter than c,
    every tag blanked (beta = 1), and views narrower than c, whose blocks X_k W_i
    have rank d_i < c."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    c = draw(st.integers(1, 6))
    dims = tuple(draw(st.lists(st.integers(1, 8), min_size=1, max_size=3)))
    ds = make_dataset(rng, n=draw(st.integers(1, 40)), c=c, dims=dims,
                      with_missing=draw(st.booleans()))
    beta = draw(st.sampled_from([0.0, 0.5, 1.0]))
    for view in ds.views:
        view.labels[rng.random(view.labels.shape) < beta] = 0.0
    if draw(st.booleans()):  # label 0 positive in view 0 at most
        for view in ds.views[1:]:
            view.labels[view.labels[:, 0] == 1.0, 0] = -1.0
    return ds, rng


@PROPERTY_SETTINGS
@given(case=label_edge_datasets(), lam=st.floats(0.0, 2.0), mu=st.floats(0.5, 10.0))
def test_compressed_label_stacks_carry_the_local_terms(case, lam, mu):
    ds, rng = case
    geometry = StackGeometry(ds)
    dims = [feats.shape[1] for feats in geometry.features]
    c = geometry.labels.shape[1]
    w, w_mult = make_weights(rng, dims, c), make_weights(rng, dims, c)
    layout = _LabelStacks(geometry, geometry.active_index)
    ext_mult, ext_w = layout.stack(w_mult), layout.stack(w)
    # a multiplier in the range of each Q~_k, as in the sweep
    mult = [ext_mult[index] for index in layout.index]
    stack = geometry.stack(w)
    sample_mult = geometry.stack(w_mult)
    compressed_stacks = [ext_w[index] for index in layout.index]
    for a, (rows, compressed) in enumerate(zip(geometry.active_index, compressed_stacks)):
        per_view = [np.sum((rows >= b.start) & (rows < b.stop)) for b in geometry.blocks]
        assert compressed.shape[0] == sum(min(n_ki, d) for n_ki, d in zip(per_view, dims))

        p_k = stack[rows]
        want = oracles.svd_nuclear(p_k)
        assert abs(nuclear_norm(compressed) - want) <= 1e-12 * want

        shifted = p_k + sample_mult[rows] / mu
        ext = np.zeros(layout.shape)
        ext[layout.index[a]] = svt(compressed + mult[a] / mu, lam / mu)
        sample = np.zeros_like(stack)
        sample[rows] = svt(shifted, lam / mu)
        scale = 1e-10 * np.linalg.norm(shifted)
        for feats, block, got in zip(geometry.features, geometry.blocks, layout.back_project(ext)):
            assert np.linalg.norm(got - feats.T @ sample[block]) <= scale * np.linalg.norm(feats)


@st.composite
def matrix_lists(draw):
    """Up to 8 tall, wide or square matrices of at most 7 rows and columns, each full
    rank, rank-deficient or all zero, so several share a Gram size and some are empty."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mats = []
    for _ in range(draw(st.integers(0, 8))):
        rows, cols = draw(st.integers(0, 7)), draw(st.integers(0, 7))
        kind = draw(st.sampled_from(["full", "rank_deficient", "zero"]))
        if kind == "rank_deficient" and min(rows, cols) > 1:
            rank = draw(st.integers(1, min(rows, cols) - 1))
            mats.append(rng.standard_normal((rows, rank)) @ rng.standard_normal((rank, cols)))
        else:
            mats.append(rng.standard_normal((rows, cols)) * (kind != "zero"))
    return mats


@PROPERTY_SETTINGS
@given(mats=matrix_lists(), tau=st.floats(0.0, 3.0))
def test_batched_label_kernels_give_each_matrix_its_own_result(mats, tau):
    """A matrix's shrinkage and norm are bitwise the same batched or alone, which keeps
    a fit's label phase bit-identical to one kernel call per label."""
    shrunk, norms = _svt_many(mats, tau), _nuclear_norm_many(mats)
    assert len(shrunk) == len(norms) == len(mats)
    for a, z, norm in zip(mats, shrunk, norms):
        alone = svt(a, tau)
        assert z.shape == a.shape and z.tobytes() == alone.tobytes()
        assert np.float64(norm).tobytes() == np.float64(nuclear_norm(a)).tobytes()
        assert np.linalg.norm(z - oracles.svd_svt(a, tau)) <= 1e-8
        # test_linalg's tolerances: 1e-9 for a norm, and 1e-7, its duality pairing's, once a
        # rank-deficient Gram's zero eigenvalues come back as round-off of eps * |a|^2
        full_rank = a.size == 0 or np.linalg.matrix_rank(a) == min(a.shape)
        assert norm == pytest.approx(oracles.svd_nuclear(a), rel=1e-9 if full_rank else 1e-7)


@st.composite
def two_sweep_fits(draw):
    """A small fit's dataset and a config of two sweeps with no early stop."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dims = tuple(draw(st.lists(st.integers(1, 8), min_size=1, max_size=3)))
    ds = make_dataset(rng, n=draw(st.integers(8, 40)), c=draw(st.integers(1, 8)), dims=dims,
                      with_missing=draw(st.booleans()), ensure_positive_per_row=True)
    config = SolverConfig(lam=draw(st.floats(0.0, 2.0)), mu=draw(st.floats(0.5, 10.0)),
                          variant=draw(st.sampled_from(["full", "loss_plus_local"])),
                          max_iters=2, rel_tol=0.0)
    return ds, config


@PROPERTY_SETTINGS
@given(case=two_sweep_fits())
def test_a_step_is_a_pure_map_and_two_steps_are_a_two_sweep_fit(case):
    """Stepping a state again gives the same bytes, no step writes the problem or the
    state it is given, and two steps from the seed give the bytes of ``fit``'s weights
    and records."""
    ds, config = case
    geometry = StackGeometry(ds)
    problem = _Problem(geometry, config)
    problem_bytes = pickle.dumps(problem)
    state, records = problem.seed(geometry), []
    for _ in range(2):
        state_bytes = pickle.dumps(state)
        stepped = _step(problem, state)
        assert pickle.dumps(_step(problem, state)) == pickle.dumps(stepped)
        assert pickle.dumps(state) == state_bytes
        state, record = stepped
        records.append(record)
    assert pickle.dumps(problem) == problem_bytes
    w, trace = fit(ds, config)
    assert [wi.tobytes() for wi in w.weights] == [wi.tobytes() for wi in state.preds.w.weights]
    columns = np.array([trace.objective, trace.surrogate, trace.residual])
    assert columns.tobytes() == np.array(records, dtype=float).T.tobytes()


@PROPERTY_SETTINGS
@given(case=label_edge_datasets())
def test_loss_grams_carry_the_loss_and_its_gradient(case):
    ds, rng = case
    geometry = StackGeometry(ds)
    dims = [feats.shape[1] for feats in geometry.features]
    w = make_weights(rng, dims, geometry.labels.shape[1])
    stack = geometry.stack(w)
    grams = _LossGrams(geometry)
    preds = grams.predict(w)

    masked_preds = geometry.indicator * stack
    scale = grams.constant + 0.5 * np.sum(masked_preds**2)
    assert abs(_masked_loss_from_preds(grams, preds) - stack_loss(geometry, stack)) <= 1e-12 * scale

    resid = geometry.indicator * (stack - geometry.labels)
    norms = np.linalg.norm(masked_preds) + np.linalg.norm(geometry.indicator * geometry.labels)
    for feats, block, got in zip(geometry.features, geometry.blocks, grams.w_rhs(preds)):
        want = -feats.T @ resid[block]
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(feats) * norms


@PROPERTY_SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(0, 40),
    c=st.integers(1, 12),
    d=st.integers(1, 5),
    share=st.sampled_from([0.0, 0.3, 0.7, 1.0]),
)
def test_grouped_grams_equal_the_per_label_grams_at_every_width(seed, n, c, d, share):
    # the datasets of the other properties have under 256 rows, so the width rule gives
    # them b = 1; every width is forced here
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d))
    observed = rng.random((c, n)) < share
    want = np.stack([x[rows].T @ x[rows] for rows in observed])
    for width in range(1, 9):
        got = _observed_grams(x, observed, _width=width)
        assert np.all(np.abs(got - want) <= 1e-13 * np.sum(x**2))
        assert not got[~observed.any(axis=1)].any()  # no observed tag: exactly zero


@PROPERTY_SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(1, 12),
    c=st.integers(1, 6),
    data=st.data(),
)
def test_subgradient_pairs_to_the_nuclear_norm(seed, m, c, data):
    # inner widths below min(m, c) give exactly rank-deficient products
    width = data.draw(st.integers(1, min(m, c) + 1))
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, width)) @ rng.standard_normal((width, c))
    want = oracles.svd_nuclear(a)
    assert abs(float(np.sum(a * trace_norm_subgradient(a))) - want) <= 1e-11 * want


@PROPERTY_SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 15),
    c=st.integers(1, 4),
    dims=st.lists(st.integers(1, 5), min_size=2, max_size=3),
    alpha=st.floats(0.0, 0.5),
    beta=st.floats(0.0, 1.0),
    dealign=st.booleans(),
)
def test_save_then_load_is_bit_exact(seed, n, c, dims, alpha, beta, dealign):
    base = make_dataset(np.random.default_rng(seed), n=n, c=c, dims=tuple(dims))
    ds = corrupt(base, CorruptionSpec(alpha=alpha, beta=beta, dealign=dealign, seed=seed))
    with tempfile.TemporaryDirectory() as root:
        save_dataset(ds, root)
        back = load_dataset(root)
    assert back.aligned == ds.aligned
    assert back.n_views == ds.n_views
    for a, b in zip(ds.views, back.views):
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.missing_rows, b.missing_rows)
