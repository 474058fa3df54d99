"""Synthetic generation and the seeded corruption harness."""

import numpy as np
import pytest

from mvml import (
    CorruptionSpec,
    GenerationFailure,
    InvalidInput,
    SyntheticSpec,
    corrupt,
    generate_synthetic,
    indicator_from,
)
from mvml.masking import _view_missing_masks

import oracles


def label_rank(labels):
    return int(np.linalg.matrix_rank(labels))


class TestSyntheticSpec:
    def test_rejects_bad_fraction(self):
        with pytest.raises(InvalidInput):
            CorruptionSpec(alpha=1.0, beta=0.0, dealign=False, seed=0)
        with pytest.raises(InvalidInput):
            CorruptionSpec(alpha=0.0, beta=1.5, dealign=False, seed=0)

    def test_rejects_dims_mismatch(self):
        with pytest.raises(InvalidInput):
            SyntheticSpec(n_views=2, dims=(10, 10, 10))

    def test_rejects_positives_out_of_range(self):
        with pytest.raises(InvalidInput):
            SyntheticSpec(positives_per_sample=0)


class TestGenerateSynthetic:
    def test_label_matrix_has_full_column_rank(self):
        ds = generate_synthetic(SyntheticSpec(n=500, c=20, n_views=3,
                                              dims=(10, 12, 14), seed=0))
        assert ds.aligned
        assert ds.n_samples == 500 and ds.n_labels == 20
        for view in ds.views:
            assert label_rank(view.labels) == 20
            assert not view.missing_rows.any()

    def test_single_positive_per_cluster_gives_rank_one_submatrices(self):
        # One cluster per label and a single positive per sample: all rows
        # positive at label k are identical, so each sub-matrix has rank 1.
        ds = generate_synthetic(SyntheticSpec(n=60, c=6, n_views=2,
                                              dims=(8, 9),
                                              positives_per_sample=1, seed=3))
        labels = ds.views[0].labels
        for k in range(6):
            rows = labels[labels[:, k] == 1]
            assert rows.shape[0] > 0
            assert label_rank(rows) == 1

    def test_desk_scale_true_sublabel_ranks_are_low(self):
        ds = generate_synthetic(SyntheticSpec(seed=0))
        labels = ds.views[0].labels
        c = ds.n_labels
        sub_ranks = []
        for k in range(c):
            rows = labels[labels[:, k] == 1]
            if rows.shape[0]:
                sub_ranks.append(label_rank(rows))
        assert np.mean(sub_ranks) <= c / 2

    def test_same_seed_is_bit_identical(self):
        spec = SyntheticSpec(n=100, c=8, n_views=2, dims=(6, 7), seed=9)
        a = generate_synthetic(spec)
        b = generate_synthetic(spec)
        for va, vb in zip(a.views, b.views):
            np.testing.assert_array_equal(va.features, vb.features)
            np.testing.assert_array_equal(va.labels, vb.labels)

    def test_unachievable_rank_raises_generation_failure(self):
        # Every label positive in every cluster collapses the label matrix
        # to rank one, so full column rank can never be reached.
        with pytest.raises(GenerationFailure):
            generate_synthetic(SyntheticSpec(n=40, c=4, n_views=1, dims=(5,),
                                             positives_per_sample=4, seed=0))


class TestCorrupt:
    def test_identity_corruption(self):
        ds = generate_synthetic(SyntheticSpec(n=80, c=5, n_views=2,
                                              dims=(6, 7), seed=1))
        out = corrupt(ds, CorruptionSpec(alpha=0.0, beta=0.0, dealign=False, seed=5))
        assert out.aligned
        for va, vb in zip(ds.views, out.views):
            np.testing.assert_array_equal(va.features, vb.features)
            np.testing.assert_array_equal(va.labels, vb.labels)
            np.testing.assert_array_equal(va.missing_rows, vb.missing_rows)

    def test_aligned_corruption_writes_new_arrays_only(self):
        ds = generate_synthetic(SyntheticSpec(n=80, c=5, n_views=2, dims=(6, 7), seed=1))
        before = [(v.features.copy(), v.labels.copy(), v.missing_rows.copy()) for v in ds.views]
        out = corrupt(ds, CorruptionSpec(alpha=0.3, beta=0.5, dealign=False, seed=5))
        for view, kept, new in zip(ds.views, before, out.views):
            for a, b in zip((view.features, view.labels, view.missing_rows), kept):
                np.testing.assert_array_equal(a, b)
            for a in (new.features, new.labels, new.missing_rows):
                assert not any(np.shares_memory(a, b)
                               for b in (view.features, view.labels, view.missing_rows))

    def test_half_missing_counts_and_coverage(self):
        ds = generate_synthetic(SyntheticSpec(n=1000, c=10, n_views=3,
                                              dims=(8, 9, 10), seed=2))
        out = corrupt(ds, CorruptionSpec(alpha=0.5, beta=0.5, dealign=False, seed=6))
        present = np.zeros(1000, dtype=bool)
        for view in out.views:
            assert int(view.missing_rows.sum()) == 500
            np.testing.assert_array_equal(view.features[view.missing_rows], 0.0)
            np.testing.assert_array_equal(view.labels[view.missing_rows], 0.0)
            present |= ~view.missing_rows
        assert present.all()

    def test_beta_removes_floor_counts_per_label(self):
        ds = generate_synthetic(SyntheticSpec(n=200, c=6, n_views=2,
                                              dims=(7, 8), seed=4))
        beta = 0.3
        out = corrupt(ds, CorruptionSpec(alpha=0.0, beta=beta, dealign=False, seed=8))
        for before, after in zip(ds.views, out.views):
            for k in range(6):
                pos_before = int((before.labels[:, k] == 1).sum())
                neg_before = int((before.labels[:, k] == -1).sum())
                pos_after = int((after.labels[:, k] == 1).sum())
                neg_after = int((after.labels[:, k] == -1).sum())
                assert pos_before - pos_after == int(beta * pos_before)
                assert neg_before - neg_after == int(beta * neg_before)

    def test_dealign_preserves_per_view_content(self):
        ds = generate_synthetic(SyntheticSpec(n=120, c=5, n_views=3,
                                              dims=(4, 5, 6), seed=5))
        out = corrupt(ds, CorruptionSpec(alpha=0.3, beta=0.2, dealign=True, seed=9))
        ref = corrupt(ds, CorruptionSpec(alpha=0.3, beta=0.2, dealign=False, seed=9))
        assert not out.aligned
        for permuted, plain in zip(out.views, ref.views):
            a = np.column_stack([permuted.features, permuted.labels,
                                 permuted.missing_rows.astype(float)])
            b = np.column_stack([plain.features, plain.labels,
                                 plain.missing_rows.astype(float)])
            a_sorted = a[np.lexsort(a.T[::-1])]
            b_sorted = b[np.lexsort(b.T[::-1])]
            np.testing.assert_array_equal(a_sorted, b_sorted)

    def test_determinism_bit_identical(self):
        ds = generate_synthetic(SyntheticSpec(n=150, c=6, n_views=3,
                                              dims=(5, 6, 7), seed=6))
        spec = CorruptionSpec(alpha=0.4, beta=0.5, dealign=True, seed=10)
        a = corrupt(ds, spec)
        b = corrupt(ds, spec)
        for va, vb in zip(a.views, b.views):
            np.testing.assert_array_equal(va.features, vb.features)
            np.testing.assert_array_equal(va.labels, vb.labels)
            np.testing.assert_array_equal(va.missing_rows, vb.missing_rows)

    def test_observed_count_non_increasing_in_beta(self):
        ds = generate_synthetic(SyntheticSpec(n=200, c=8, n_views=2,
                                              dims=(6, 7), seed=7))
        counts = []
        for beta in (0.0, 0.2, 0.4, 0.6, 0.8):
            out = corrupt(ds, CorruptionSpec(alpha=0.2, beta=beta,
                                             dealign=False, seed=11))
            counts.append(sum(int(indicator_from(v).sum()) for v in out.views))
        assert all(b <= a for a, b in zip(counts, counts[1:]))

    def test_unsatisfiable_alpha_raises(self):
        ds = generate_synthetic(SyntheticSpec(n=90, c=5, n_views=3,
                                              dims=(6, 7, 8), seed=8))
        # With three views and alpha = 0.7, total presence capacity
        # 3 * 0.3 * n < n cannot cover every sample.
        with pytest.raises(InvalidInput):
            corrupt(ds, CorruptionSpec(alpha=0.7, beta=0.0, dealign=False, seed=12))

    def test_requires_aligned_complete_input(self):
        ds = generate_synthetic(SyntheticSpec(n=60, c=5, n_views=2,
                                              dims=(6, 7), seed=9))
        once = corrupt(ds, CorruptionSpec(alpha=0.3, beta=0.0, dealign=True, seed=1))
        with pytest.raises(InvalidInput):
            corrupt(once, CorruptionSpec(alpha=0.1, beta=0.0, dealign=False, seed=2))


class TestRemovalRepair:
    """The counted repair of ``_view_missing_masks`` against the rescanning loop."""

    GRID = [(n, views, alpha, seed)
            for n in (0, 1, 5, 7, 33, 600, 2000, 5000)
            for views in (1, 2, 3, 4)
            for alpha in (0.0, 0.1, 0.3, 0.5, 0.7, 0.9)
            for seed in (0, 1, 7)]
    LARGE = [(32000, 3, 0.5, 7), (32000, 2, 0.5, 0), (32000, 4, 0.7, 1), (32000, 1, 0.1, 0)]

    @staticmethod
    def outcome(draw, n, views, alpha, seed):
        try:
            return draw(n, views, int(alpha * n), seed)
        except InvalidInput as exc:
            return str(exc)

    @pytest.mark.parametrize("cases", [GRID, LARGE], ids=["small", "n32000"])
    def test_matches_the_rescanning_loop(self, cases):
        raised = 0
        for case in cases:
            want = self.outcome(oracles.loop_view_missing_masks, *case)
            got = self.outcome(_view_missing_masks, *case)
            if isinstance(want, str):
                assert got == want, case
                raised += 1
            else:
                assert np.array_equal(got, want), case
        assert 0 < raised < len(cases)  # infeasible cases raise, the rest are repaired
