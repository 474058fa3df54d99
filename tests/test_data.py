"""Containers, indicator masks, sub-label extraction, and stacking."""

import numpy as np
import pytest

from mvml import (
    InvalidInput,
    MultiViewDataset,
    NonFiniteEntry,
    StackGeometry,
    ViewData,
    WeightStack,
    indicator_from,
    present_rows,
    stack_predictions,
    sublabel_rows,
)

from conftest import make_dataset, make_weights


def view_from(labels, missing=None, d=2, seed=0):
    labels = np.asarray(labels, dtype=float)
    n = labels.shape[0]
    rng = np.random.default_rng(seed)
    features = rng.standard_normal((n, d))
    if missing is None:
        missing = np.zeros(n, dtype=bool)
    missing = np.asarray(missing, dtype=bool)
    features = features.copy()
    features[missing] = 0.0
    labels = labels.copy()
    labels[missing] = 0.0
    return ViewData(features=features, labels=labels, missing_rows=missing)


class TestViewData:
    def test_rejects_label_outside_domain(self):
        with pytest.raises(InvalidInput):
            ViewData(
                features=np.zeros((2, 2)),
                labels=np.array([[1.0, 2.0], [0.0, -1.0]]),
                missing_rows=np.zeros(2, dtype=bool),
            )

    def test_rejects_nonzero_missing_row(self):
        features = np.ones((2, 2))
        labels = np.array([[1.0, -1.0], [1.0, 0.0]])
        with pytest.raises(InvalidInput):
            ViewData(features=features, labels=labels,
                     missing_rows=np.array([False, True]))

    def test_rejects_non_finite_features(self):
        features = np.zeros((2, 2))
        features[0, 0] = np.inf
        with pytest.raises(InvalidInput):
            ViewData(features=features, labels=np.zeros((2, 2)),
                     missing_rows=np.zeros(2, dtype=bool))

    def test_non_finite_entry_names_its_row_and_column(self):
        features = np.zeros((3, 2))
        features[1, 0] = np.nan
        with pytest.raises(NonFiniteEntry) as info:
            ViewData(features=features, labels=np.zeros((3, 2)),
                     missing_rows=np.zeros(3, dtype=bool))
        assert isinstance(info.value, InvalidInput)
        assert "row 1" in str(info.value) and "column 0" in str(info.value)


class TestMultiViewDataset:
    def test_rejects_sample_missing_everywhere_when_aligned(self):
        missing = np.array([False, True, False])
        views = [view_from(np.zeros((3, 2)), missing=missing, seed=s) for s in (0, 1)]
        with pytest.raises(InvalidInput):
            MultiViewDataset(views=views, aligned=True)

    def test_allows_gaps_when_not_aligned(self):
        missing = np.array([False, True, False])
        views = [view_from(np.zeros((3, 2)), missing=missing, seed=s) for s in (0, 1)]
        ds = MultiViewDataset(views=views, aligned=False)
        assert ds.n_views == 2

    def test_aligned_must_be_a_boolean(self):
        views = [view_from(np.zeros((3, 2)))]
        assert MultiViewDataset(views=views, aligned=np.bool_(False)).aligned is False
        with pytest.raises(InvalidInput):
            MultiViewDataset(views=views, aligned="false")

    def test_rejects_inconsistent_shapes(self):
        views = [view_from(np.zeros((3, 2))), view_from(np.zeros((4, 2)), seed=1)]
        with pytest.raises(InvalidInput):
            MultiViewDataset(views=views, aligned=True)


class TestIndicatorFrom:
    def test_direct_definition(self):
        view = view_from([[1.0, -1.0, 0.0]])
        np.testing.assert_array_equal(indicator_from(view), [[1.0, 1.0, 0.0]])

    def test_missing_row_zeroes_indicator(self):
        view = view_from([[1.0, 1.0, 1.0], [1.0, 1.0, 1.0]],
                         missing=[False, True])
        np.testing.assert_array_equal(indicator_from(view)[1], [0.0, 0.0, 0.0])

    def test_all_observed_gives_ones(self, rng):
        labels = rng.choice([-1.0, 1.0], size=(5, 4))
        view = view_from(labels)
        np.testing.assert_array_equal(indicator_from(view), np.ones((5, 4)))

    def test_idempotent_under_remasking(self, rng):
        ds = make_dataset(rng, n=10, c=3, dims=(2, 3), with_missing=True)
        for view in ds.views:
            p = indicator_from(view)
            masked = ViewData(
                features=view.features,
                labels=view.labels * p,
                missing_rows=view.missing_rows,
            )
            np.testing.assert_array_equal(indicator_from(masked), p)


class TestSublabelRows:
    def test_positive_rows_only(self):
        view = view_from(np.array([[1.0], [-1.0], [1.0], [0.0]]), d=2)
        np.testing.assert_array_equal(sublabel_rows(view, 0), [0, 2])

    def test_empty_column(self):
        view = view_from(np.zeros((3, 2)))
        assert sublabel_rows(view, 1).size == 0

    def test_missing_row_excluded(self):
        view = view_from(np.array([[1.0], [1.0]]), missing=[False, True])
        np.testing.assert_array_equal(sublabel_rows(view, 0), [0])

    def test_rejects_out_of_range(self):
        view = view_from(np.zeros((2, 2)))
        with pytest.raises(InvalidInput):
            sublabel_rows(view, 2)

    def test_multiplicity_identity(self, rng):
        # With every row positively labeled somewhere and fully observed,
        # the union of per-label row sets covers every present row.
        ds = make_dataset(rng, n=15, c=4, dims=(3, 4), with_missing=True,
                          ensure_positive_per_row=True)
        for view in ds.views:
            covered = np.zeros(15, dtype=bool)
            for k in range(4):
                covered[sublabel_rows(view, k)] = True
            np.testing.assert_array_equal(covered, ~view.missing_rows)


class TestStackPredictions:
    def test_single_view_all_rows(self, rng):
        ds = make_dataset(rng, n=8, c=3, dims=(4,))
        w = make_weights(rng, (4,), 3)
        rows = [np.arange(8)]
        expected = ds.views[0].features @ w.weights[0]
        np.testing.assert_allclose(stack_predictions(ds, w, rows), expected)

    def test_second_view_empty_selection(self, rng):
        ds = make_dataset(rng, n=8, c=3, dims=(4, 5))
        w = make_weights(rng, (4, 5), 3)
        rows = [np.array([1, 3]), np.array([], dtype=int)]
        expected = ds.views[0].features[[1, 3]] @ w.weights[0]
        np.testing.assert_allclose(stack_predictions(ds, w, rows), expected)

    def test_hand_computed_two_view_stack(self):
        f0 = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [2.0, 0.0]])
        f1 = np.array([[2.0], [1.0], [0.0], [3.0]])
        labels0 = np.zeros((4, 4))
        labels1 = np.zeros((4, 4))
        views = [
            ViewData(features=f0, labels=labels0, missing_rows=np.zeros(4, dtype=bool)),
            ViewData(features=f1, labels=labels1, missing_rows=np.zeros(4, dtype=bool)),
        ]
        ds = MultiViewDataset(views=views, aligned=False)
        w0 = np.array([[1.0, 2.0, 3.0, 4.0], [5.0, 6.0, 7.0, 8.0]])
        w1 = np.array([[1.0, -1.0, 0.5, 0.0]])
        w = WeightStack(weights=[w0, w1])
        rows = [np.array([0, 2]), np.array([0, 1, 3])]
        result = stack_predictions(ds, w, rows)
        expected = np.vstack([
            [1.0, 2.0, 3.0, 4.0],          # row 0 of view 0: f=(1,0)
            [6.0, 8.0, 10.0, 12.0],        # row 2 of view 0: f=(1,1)
            [2.0, -2.0, 1.0, 0.0],         # row 0 of view 1: f=(2,)
            [1.0, -1.0, 0.5, 0.0],         # row 1 of view 1
            [3.0, -3.0, 1.5, 0.0],         # row 3 of view 1
        ])
        assert result.shape == (5, 4)
        np.testing.assert_allclose(result, expected)

    def test_rejects_row_count_mismatch(self, rng):
        ds = make_dataset(rng, n=6, c=2, dims=(3, 3))
        w = make_weights(rng, (3, 3), 2)
        with pytest.raises(InvalidInput):
            stack_predictions(ds, w, [np.arange(6)])  # one list for two views


class TestStackGeometry:
    def test_label_rows_select_the_per_label_stacks(self, rng):
        ds = make_dataset(rng, n=14, c=4, dims=(3, 5, 2), with_missing=True, aligned=False)
        w = make_weights(rng, (3, 5, 2), 4)
        geometry = StackGeometry(ds)
        stack = geometry.stack(w)
        # products over different row subsets may differ in the last bit
        np.testing.assert_allclose(
            stack, stack_predictions(ds, w, [present_rows(v) for v in ds.views]),
            rtol=1e-12, atol=1e-14)
        for k, rows in enumerate(geometry.label_index):
            want = stack_predictions(ds, w, [sublabel_rows(v, k) for v in ds.views])
            np.testing.assert_allclose(stack[rows], want, rtol=1e-12, atol=1e-14)

    def test_blocks_hold_each_views_present_labels(self, rng):
        ds = make_dataset(rng, n=10, c=3, dims=(2, 3), with_missing=True)
        geometry = StackGeometry(ds)
        assert geometry.blocks[-1].stop == geometry.labels.shape[0]
        for view, block in zip(ds.views, geometry.blocks):
            rows = present_rows(view)
            np.testing.assert_array_equal(geometry.labels[block], view.labels[rows])
            np.testing.assert_array_equal(geometry.indicator[block], indicator_from(view)[rows])

    def test_label_positive_nowhere_selects_no_rows(self):
        views = [view_from([[1.0, -1.0], [0.0, -1.0]], seed=s) for s in (0, 1)]
        geometry = StackGeometry(MultiViewDataset(views=views, aligned=True))
        np.testing.assert_array_equal(geometry.label_index[0], [0, 2])
        assert geometry.label_index[1].size == 0

    def test_rejects_mismatched_weights(self, rng):
        geometry = StackGeometry(make_dataset(rng, n=6, c=2, dims=(3, 4)))
        for dims, c in (((3,), 2), ((3, 4), 3), ((3, 5), 2)):
            with pytest.raises(InvalidInput):
                geometry.stack(make_weights(rng, dims, c))


class TestPresentRows:
    def test_complement_of_missing(self, rng):
        ds = make_dataset(rng, n=10, c=3, dims=(2, 3), with_missing=True)
        for view in ds.views:
            np.testing.assert_array_equal(
                present_rows(view), np.flatnonzero(~view.missing_rows)
            )


class TestWeightStack:
    def test_rejects_inconsistent_label_count(self, rng):
        with pytest.raises(InvalidInput):
            WeightStack(weights=[rng.standard_normal((3, 2)),
                                 rng.standard_normal((4, 3))])

    def test_rejects_non_finite(self, rng):
        w = rng.standard_normal((3, 2))
        w[0, 0] = np.nan
        with pytest.raises(InvalidInput):
            WeightStack(weights=[w])
