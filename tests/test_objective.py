"""Masked loss, the two-term trace-norm regularizer, and the objective."""

import numpy as np
import pytest

from mvml import (
    InvalidInput,
    MultiViewDataset,
    ViewData,
    WeightStack,
    masked_loss,
    nuclear_norm,
    regularizer_value,
    sublabel_rows,
)
from mvml.objective import objective

import oracles
from conftest import make_dataset, make_weights, guarantee_conditions_dataset


def single_view_ds(features, labels):
    n = features.shape[0]
    view = ViewData(features=features, labels=labels,
                    missing_rows=np.zeros(n, dtype=bool))
    return MultiViewDataset(views=[view], aligned=True)


class TestMaskedLoss:
    def test_interpolating_weights_give_zero(self, rng):
        features = rng.standard_normal((6, 6))
        labels = np.where(rng.standard_normal((6, 3)) >= 0, 1.0, -1.0)
        # square full-rank system: the least-squares fit interpolates exactly
        w_fit = np.linalg.lstsq(features, labels, rcond=None)[0]
        ds = single_view_ds(features, labels)
        assert masked_loss(ds, WeightStack(weights=[w_fit])) == pytest.approx(0.0, abs=1e-18)

    def test_fully_masked_labels_give_zero(self, rng):
        features = rng.standard_normal((5, 3))
        labels = np.zeros((5, 2))
        ds = single_view_ds(features, labels)
        w = make_weights(rng, (3,), 2)
        assert masked_loss(ds, w) == 0.0

    def test_hand_arithmetic_toy(self):
        features = np.array([[1.0], [2.0]])
        labels = np.array([[1.0], [1.0]])
        ds = single_view_ds(features, labels)
        w = WeightStack(weights=[np.array([[1.0]])])
        assert masked_loss(ds, w) == pytest.approx(0.5)

    def test_rejects_shape_mismatch(self, rng):
        ds = make_dataset(rng, n=6, c=2, dims=(3,))
        w = make_weights(rng, (4,), 2)
        with pytest.raises(InvalidInput):
            masked_loss(ds, w)


class TestRegularizerValue:
    def test_single_label_single_view_cancels(self, rng):
        features = rng.standard_normal((8, 3))
        labels = np.ones((8, 1))
        ds = single_view_ds(features, labels)
        w = make_weights(rng, (3,), 1)
        local, global_ = regularizer_value(ds, w)
        assert local == pytest.approx(global_, rel=1e-12)

    def test_zero_weights(self, rng):
        ds = make_dataset(rng, n=10, c=3, dims=(4, 5))
        w = WeightStack(weights=[np.zeros((4, 3)), np.zeros((5, 3))])
        assert regularizer_value(ds, w) == (0.0, 0.0)

    def test_two_view_toy_against_svd_oracle(self, rng):
        ds = make_dataset(rng, n=30, c=4, dims=(5, 6),
                          ensure_positive_per_row=True)
        w = make_weights(rng, (5, 6), 4)
        local, global_ = regularizer_value(ds, w)

        expected_local = 0.0
        for k in range(4):
            rows = [sublabel_rows(view, k) for view in ds.views]
            if sum(len(r) for r in rows):
                expected_local += oracles.svd_nuclear(oracles.stack_predictions(ds, w, rows))
        all_rows = [np.flatnonzero(~view.missing_rows) for view in ds.views]
        expected_global = oracles.svd_nuclear(oracles.stack_predictions(ds, w, all_rows))

        assert local == pytest.approx(expected_local, rel=1e-9)
        assert global_ == pytest.approx(expected_global, rel=1e-9)
        assert local - global_ >= -1e-7 * local

    def test_empty_label_contributes_zero(self, rng):
        features = rng.standard_normal((6, 3))
        labels = np.zeros((6, 2))
        labels[:, 0] = 1.0  # label 1 never observed anywhere
        ds = single_view_ds(features, labels)
        w = make_weights(rng, (3,), 2)
        local, _ = regularizer_value(ds, w)
        rows = [sublabel_rows(ds.views[0], 0)]
        only_first = nuclear_norm(oracles.stack_predictions(ds, w, rows))
        assert local == pytest.approx(only_first, rel=1e-12)


class TestObjective:
    def test_lambda_zero_reduces_to_loss(self, rng):
        ds = make_dataset(rng, n=12, c=3, dims=(4, 5))
        w = make_weights(rng, (4, 5), 3)
        value = objective(ds, w, 0.0)
        assert value.total == pytest.approx(masked_loss(ds, w), rel=1e-12)

    def test_zero_weights_give_half_observed_count(self, rng):
        ds = make_dataset(rng, n=15, c=4, dims=(3, 4), with_missing=True)
        w = WeightStack(weights=[np.zeros((3, 4)), np.zeros((4, 4))])
        m = sum(int(np.count_nonzero(
            (view.labels != 0) & ~view.missing_rows[:, None]))
            for view in ds.views)
        value = objective(ds, w, 0.7)
        assert value.loss == pytest.approx(m / 2)

    def test_components_consistent(self, rng):
        ds = make_dataset(rng, n=20, c=3, dims=(4, 6),
                          ensure_positive_per_row=True)
        w = make_weights(rng, (4, 6), 3)
        value = objective(ds, w, 0.3)
        recomputed = value.loss + 0.3 * (value.local_term - value.global_term)
        assert value.total == pytest.approx(recomputed, rel=1e-12)

    def test_rejects_negative_lambda(self, rng):
        ds = make_dataset(rng, n=6, c=2, dims=(3,))
        w = make_weights(rng, (3,), 2)
        with pytest.raises(InvalidInput):
            objective(ds, w, -0.1)

    def test_rejects_a_plain_list_of_weights(self, rng):
        ds = make_dataset(rng, n=6, c=2, dims=(3, 4))
        with pytest.raises(InvalidInput):
            objective(ds, list(make_weights(rng, (3, 4), 2).weights), 0.5)

    def test_total_nonnegative_guard(self, rng):
        for _ in range(25):
            n = int(rng.integers(8, 30))
            c = int(rng.integers(1, 5))
            dims = tuple(int(d) for d in rng.integers(2, 6, size=rng.integers(1, 4)))
            ds = make_dataset(rng, n=n, c=c, dims=dims,
                              ensure_positive_per_row=True)
            w = make_weights(rng, dims, c, scale=float(rng.uniform(0.1, 3.0)))
            lam = float(rng.uniform(0.0, 2.0))
            value = objective(ds, w, lam)
            floor = -1e-6 * (value.loss + lam * value.local_term)
            assert value.total >= floor


class TestStackPropositions:
    def test_sum_of_nuclear_norms_dominates_stack(self, rng):
        for _ in range(20):
            m = int(rng.integers(1, 5))
            c = int(rng.integers(1, 6))
            blocks = [rng.standard_normal((int(rng.integers(1, 10)), c))
                      for _ in range(m)]
            total = sum(nuclear_norm(b) for b in blocks)
            assert total >= nuclear_norm(np.vstack(blocks)) - 1e-9 * max(total, 1)

    def test_stack_norm_invariant_under_block_reorder(self, rng):
        blocks = [rng.standard_normal((int(rng.integers(2, 8)), 4))
                  for _ in range(4)]
        forward = nuclear_norm(np.vstack(blocks))
        backward = nuclear_norm(np.vstack(blocks[::-1]))
        assert forward == pytest.approx(backward, rel=1e-9)

    def test_stack_dominates_single_block(self, rng):
        a = rng.standard_normal((6, 3))
        b = rng.standard_normal((9, 3))
        assert nuclear_norm(np.vstack([a, b])) >= nuclear_norm(a) - 1e-12


class TestRegularizerGuarantee:
    def test_nonnegative_on_condition_satisfying_draws(self, rng):
        worst = np.inf
        for _ in range(60):
            n = int(rng.integers(10, 40))
            c = int(rng.integers(2, 6))
            dims = tuple(int(d) for d in rng.integers(2, 7, size=rng.integers(1, 4)))
            ds = guarantee_conditions_dataset(rng, n=n, c=c, dims=dims)
            w = make_weights(rng, dims, c, scale=float(rng.uniform(0.2, 2.0)))
            local, global_ = regularizer_value(ds, w)
            worst = min(worst, local - global_)
            assert local - global_ >= -1e-7 * local
        assert np.isfinite(worst)
