"""The four multi-label metrics, rank diagnostics, and the critical distance."""

import numpy as np
import pytest

from mvml import (
    InvalidInput,
    MetricsReport,
    UndefinedMetric,
    adapted_auc,
    average_precision,
    evaluate_predictions,
    hamming_loss,
    nemenyi_cd,
    nuclear_norm,
    rank_diagnostics,
    ranking_loss,
)
from mvml import metrics as metrics_mod
from mvml.metrics import METRIC_NAMES

import oracles


def random_instance(rng, n, c):
    """Scores plus a +/-1 truth matrix with no structural degeneracies."""
    scores = rng.standard_normal((n, c))
    truth = np.where(rng.random((n, c)) < 0.5, 1.0, -1.0)
    return scores, truth


class TestHammingLoss:
    def test_matching_signs_score_zero(self, rng):
        scores, truth = random_instance(rng, 10, 4)
        assert hamming_loss(truth * np.abs(scores), truth) == 0.0

    def test_flipped_signs_score_one(self, rng):
        scores, truth = random_instance(rng, 10, 4)
        assert hamming_loss(-truth * (np.abs(scores) + 0.1), truth) == 1.0

    def test_single_wrong_entry_in_2x2(self):
        truth = np.array([[1.0, -1.0], [1.0, 1.0]])
        scores = np.array([[2.0, -1.0], [-0.5, 3.0]])
        assert hamming_loss(scores, truth) == 0.25

    def test_zero_score_counts_as_positive(self):
        truth = np.array([[1.0, -1.0]])
        scores = np.array([[0.0, 0.0]])
        assert hamming_loss(scores, truth) == 0.5

    def test_rejects_shape_mismatch(self):
        with pytest.raises(InvalidInput):
            hamming_loss(np.zeros((2, 3)), np.ones((3, 2)))

    def test_truth_outside_plus_minus_one_names_the_first_entry(self):
        truth = np.array([[1.0, -1.0, 1.0], [1.0, 0.0, 0.5]])
        with pytest.raises(InvalidInput, match=r"^truth row 1, column 1 is 0\.0, expected -1 or \+1$"):
            hamming_loss(np.zeros((2, 3)), truth)


class TestRankingLoss:
    def test_perfect_separation_scores_zero(self, rng):
        scores, truth = random_instance(rng, 12, 5)
        truth[:, 0] = 1.0
        truth[:, 1] = -1.0
        assert ranking_loss(truth + 0.0, truth) == 0.0

    def test_anti_separation_scores_one(self, rng):
        scores, truth = random_instance(rng, 12, 5)
        truth[:, 0] = 1.0
        truth[:, 1] = -1.0
        assert ranking_loss(-truth + 0.0, truth) == 1.0

    def test_matches_brute_force_on_random_20x6(self, rng):
        scores, truth = random_instance(rng, 20, 6)
        truth[:, 0] = 1.0
        truth[:, 1] = -1.0
        assert ranking_loss(scores, truth) == oracles.brute_ranking(scores, truth)

    def test_tie_counts_against(self):
        truth = np.array([[1.0, -1.0]])
        scores = np.array([[0.3, 0.3]])
        assert ranking_loss(scores, truth) == 1.0

    def test_single_class_samples_are_skipped(self):
        truth = np.array([[1.0, 1.0], [1.0, -1.0]])
        scores = np.array([[5.0, 4.0], [1.0, 2.0]])
        # only the second sample qualifies, and its single pair is inverted
        assert ranking_loss(scores, truth) == 1.0

    def test_all_single_class_is_undefined(self):
        truth = np.array([[1.0, 1.0], [-1.0, -1.0]])
        with pytest.raises(UndefinedMetric):
            ranking_loss(np.zeros((2, 2)), truth)


class TestAveragePrecision:
    def test_perfect_ranking_scores_one(self, rng):
        scores, truth = random_instance(rng, 12, 5)
        truth[:, 0] = 1.0
        assert average_precision(truth + 0.0, truth) == 1.0

    def test_single_relevant_ranked_last(self):
        truth = np.array([[1.0, -1.0, -1.0, -1.0]])
        scores = np.array([[0.1, 0.9, 0.8, 0.7]])
        assert average_precision(scores, truth) == 0.25

    def test_matches_brute_force_on_random_15x5(self, rng):
        scores, truth = random_instance(rng, 15, 5)
        truth[:, 0] = 1.0
        assert average_precision(scores, truth) == oracles.brute_average_precision(
            scores, truth)

    def test_ties_break_by_label_index(self):
        truth = np.array([[-1.0, 1.0]])
        scores = np.array([[0.5, 0.5]])
        # the tie resolves in favor of label 0, pushing the relevant label to
        # rank 2
        assert average_precision(scores, truth) == 0.5

    def test_no_relevant_labels_is_undefined(self):
        truth = -np.ones((3, 4))
        with pytest.raises(UndefinedMetric):
            average_precision(np.zeros((3, 4)), truth)


class TestAdaptedAuc:
    def test_separated_columns_score_one(self, rng):
        scores, truth = random_instance(rng, 12, 4)
        truth[0] = 1.0
        truth[1] = -1.0
        assert adapted_auc(truth * (1 + np.abs(scores)), truth) == 1.0

    def test_random_scores_average_one_half(self, rng):
        values = []
        truth = np.ones((20, 1))
        truth[10:] = -1.0
        for _ in range(1000):
            values.append(adapted_auc(rng.standard_normal((20, 1)), truth))
        assert np.mean(values) == pytest.approx(0.5, abs=0.01)

    def test_single_qualifying_label_is_its_pairwise_auc(self, rng):
        truth = np.ones((6, 3))
        truth[:3, 1] = -1.0  # only label 1 has both classes
        scores = rng.standard_normal((6, 3))
        expected = oracles.brute_auc(scores[:, 1:2], truth[:, 1:2])
        assert adapted_auc(scores, truth) == pytest.approx(expected, abs=1e-15)

    def test_tie_counts_half(self):
        truth = np.array([[1.0], [-1.0]])
        scores = np.array([[0.4], [0.4]])
        assert adapted_auc(scores, truth) == 0.5

    def test_no_qualifying_label_is_undefined(self):
        truth = np.ones((3, 2))
        with pytest.raises(UndefinedMetric):
            adapted_auc(np.zeros((3, 2)), truth)


class TestBruteForceEquivalence:
    def test_all_metrics_match_oracles_on_100_random_instances(self, rng):
        checked = 0
        for _ in range(100):
            n = int(rng.integers(2, 21))
            c = int(rng.integers(2, 9))
            scores, truth = random_instance(rng, n, c)
            want_h = oracles.brute_hamming(scores, truth)
            want_r = oracles.brute_ranking(scores, truth)
            want_a = oracles.brute_average_precision(scores, truth)
            want_u = oracles.brute_auc(scores, truth)
            assert hamming_loss(scores, truth) == want_h
            if want_r is None:
                with pytest.raises(UndefinedMetric):
                    ranking_loss(scores, truth)
            else:
                assert ranking_loss(scores, truth) == want_r
            if want_a is None:
                with pytest.raises(UndefinedMetric):
                    average_precision(scores, truth)
            else:
                assert average_precision(scores, truth) == want_a
            if want_u is None:
                with pytest.raises(UndefinedMetric):
                    adapted_auc(scores, truth)
            else:
                # rank-sum and pair-count numerators are both half-integers,
                # so the two routes agree bit for bit
                assert adapted_auc(scores, truth) == want_u
                checked += 1
        assert checked >= 90  # random +/-1 truth rarely degenerates

    def test_ranking_and_precision_match_oracles_on_a_tied_2000x30(self):
        # rows hold up to 30 positives, past the 8 values at which np.mean starts to sum
        # pairwise; the mean over 2000 rows can hide a last-bit error in one row, so each
        # row with both tag kinds is also compared on its own
        rng = np.random.default_rng(20261018)
        scores = np.round(rng.uniform(-1.0, 1.0, (2000, 30)), 1)
        scores[rng.random(scores.shape) < 0.1] = -0.0
        truth = np.where(rng.random(scores.shape) < rng.random((2000, 1)), 1.0, -1.0)
        truth[:50] = 1.0
        truth[50:100] = -1.0
        assert ranking_loss(scores, truth) == oracles.brute_ranking(scores, truth)
        assert average_precision(scores, truth) == oracles.brute_average_precision(scores, truth)
        n_pos = np.count_nonzero(truth == 1.0, axis=1)
        for i in np.flatnonzero((n_pos > 0) & (n_pos < 30)):
            row = scores[i:i + 1], truth[i:i + 1]
            assert ranking_loss(*row) == oracles.brute_ranking(*row)
            assert average_precision(*row) == oracles.brute_average_precision(*row)

    def test_monotone_transform_invariance(self, rng):
        scores, truth = random_instance(rng, 15, 5)
        truth[:, 0] = 1.0
        truth[:, 1] = -1.0
        warped = np.expm1(scores) + 0.5 * scores  # strictly increasing, sign-preserving
        assert hamming_loss(warped, truth) == hamming_loss(scores, truth)
        assert ranking_loss(warped, truth) == ranking_loss(scores, truth)
        assert average_precision(warped, truth) == average_precision(scores, truth)
        assert adapted_auc(warped, truth) == pytest.approx(
            adapted_auc(scores, truth), abs=1e-15)

    def test_ranking_loss_complements_correct_fraction(self, rng):
        scores, truth = random_instance(rng, 10, 6)
        truth[:, 0] = 1.0
        truth[:, 1] = -1.0
        per_sample_correct = []
        for j in range(10):
            rel = np.flatnonzero(truth[j] == 1.0)
            irr = np.flatnonzero(truth[j] == -1.0)
            good = sum(1 for r in rel for s in irr if scores[j, r] > scores[j, s])
            per_sample_correct.append(good / (len(rel) * len(irr)))
        assert ranking_loss(scores, truth) == pytest.approx(
            1.0 - np.mean(per_sample_correct), abs=1e-15)


class TestEvaluatePredictions:
    def test_report_bundles_the_four_metrics(self, rng):
        scores, truth = random_instance(rng, 18, 5)
        truth[:, 0] = 1.0
        truth[:, 1] = -1.0
        report = evaluate_predictions(scores, truth)
        assert report.one_minus_hamming == 1.0 - hamming_loss(scores, truth)
        assert report.one_minus_ranking == 1.0 - ranking_loss(scores, truth)
        assert report.average_precision == average_precision(scores, truth)
        assert report.auc == adapted_auc(scores, truth)
        assert (report.n_test, report.n_labels) == (18, 5)

    def test_inputs_are_checked_once(self, rng, monkeypatch):
        scores, truth = random_instance(rng, 40, 6)
        calls = []
        check = metrics_mod._check_scores_truth

        def counting_check(*args):
            calls.append(args)
            return check(*args)

        monkeypatch.setattr(metrics_mod, "_check_scores_truth", counting_check)
        evaluate_predictions(scores, truth)
        assert len(calls) == 1

    def test_report_rejects_bad_truth_with_the_metrics_message(self, rng):
        scores, truth = random_instance(rng, 5, 3)
        truth[2, 1] = 0.0
        with pytest.raises(InvalidInput, match="truth row 2, column 1 is 0.0"):
            evaluate_predictions(scores, truth)
        with pytest.raises(InvalidInput, match="truth row 2, column 1 is 0.0"):
            hamming_loss(scores, truth)

    def test_report_rejects_out_of_range_values(self):
        with pytest.raises(InvalidInput):
            MetricsReport(one_minus_hamming=1.2, one_minus_ranking=0.5,
                          average_precision=0.5, auc=0.5, n_test=1, n_labels=1)


def tied_instance(rng, n, c, edges):
    """Scores in steps of 0.1 with -0.0 ties, and a +/-1 truth whose rows ``edges[0]``,
    ``edges[1]`` and ``edges[2]`` are all positive, all negative and one positive."""
    scores = np.round(rng.uniform(-1.0, 1.0, (n, c)), 1)
    scores[rng.random(scores.shape) < 0.1] = -0.0
    truth = np.where(rng.random((n, c)) < rng.random((n, 1)), 1.0, -1.0)
    positive, negative, single = edges
    truth[positive] = 1.0
    truth[negative] = -1.0
    truth[single] = -1.0
    truth[single, rng.integers(c, size=len(single))] = 1.0
    return scores, truth


class TestRowBlocks:
    """Scoring in blocks of a few rows, with the degenerate rows at block edges."""

    @pytest.mark.parametrize("block", [1, 2, 3, 5])
    def test_blocked_metrics_match_the_oracles(self, block, monkeypatch):
        monkeypatch.setattr(metrics_mod, "_ROW_BLOCK", block)
        rng = np.random.default_rng(block)
        n = 4 * block + 3  # a last block shorter than the rest
        ends = list(range(block - 1, n, block))
        starts = list(range(block, n, block))
        edges = (ends[0::2], starts[0::2], [*ends[1::2], n - 1])
        for c in (1, 2, 7, 12):
            scores, truth = tied_instance(rng, n, c, edges)
            want = {
                "hamming": oracles.brute_hamming(scores, truth),
                "ranking": oracles.brute_ranking(scores, truth),
                "precision": oracles.brute_average_precision(scores, truth),
            }
            assert hamming_loss(scores, truth) == want["hamming"]
            if want["ranking"] is None:  # one label: no row holds both tag kinds
                with pytest.raises(UndefinedMetric):
                    ranking_loss(scores, truth)
                continue
            assert ranking_loss(scores, truth) == want["ranking"]
            assert average_precision(scores, truth) == want["precision"]
            report = evaluate_predictions(scores, truth)
            assert report.one_minus_hamming == 1.0 - want["hamming"]
            assert report.one_minus_ranking == 1.0 - want["ranking"]
            assert report.average_precision == want["precision"]

    @pytest.mark.parametrize("block", [1, 2])
    def test_undefined_metrics_raise_the_same_texts(self, block, monkeypatch):
        monkeypatch.setattr(metrics_mod, "_ROW_BLOCK", block)
        scores = np.round(np.random.default_rng(0).uniform(-1.0, 1.0, (5, 4)), 1)
        single_class = np.array([[1.0] * 4, [-1.0] * 4] * 2 + [[1.0] * 4])
        negative = -np.ones((5, 4))
        both = "no sample has both positive and negative tags"
        for call in (ranking_loss, evaluate_predictions):
            for truth in (single_class, negative):
                with pytest.raises(UndefinedMetric, match=f"^{both}$"):
                    call(scores, truth)
        with pytest.raises(UndefinedMetric, match="^no sample has a positive tag$"):
            average_precision(scores, negative)
        assert average_precision(scores, single_class) == 1.0

    def test_every_value_is_a_python_float(self, rng, monkeypatch):
        monkeypatch.setattr(metrics_mod, "_ROW_BLOCK", 4)
        scores, truth = tied_instance(rng, 11, 6, ([3], [4], [7]))
        report = evaluate_predictions(scores, truth)
        for name in METRIC_NAMES:
            assert type(getattr(report, name)) is float, name
        for metric in (hamming_loss, ranking_loss, average_precision, adapted_auc):
            assert type(metric(scores, truth)) is float, metric.__name__
        assert "np." not in repr(report)


class TestRankDiagnostics:
    def test_corel_shaped_full_rank_matrix(self, rng):
        signs = np.where(rng.random((4999, 260)) < 0.5, 1.0, -1.0)
        diag = rank_diagnostics(signs, [])
        assert diag.entire_rank == 260
        assert diag.sub_ranks == ()
        assert diag.sub_nuclear_mean == diag.sub_nuclear_median == 0.0

    def test_rank_one_sub_matrix(self, rng):
        u = rng.standard_normal((30, 1))
        v = rng.standard_normal((1, 6))
        pred = np.vstack([u @ v, rng.standard_normal((10, 6))])
        diag = rank_diagnostics(pred, [np.arange(30)])
        assert diag.sub_ranks == (1,)
        # zero singular values carry sqrt(eps)-level noise through the
        # Gram route, so the nuclear norm is looser here than for
        # full-rank blocks
        assert diag.sub_nuclear_mean == pytest.approx(
            oracles.svd_nuclear(u @ v), rel=1e-6)

    def test_empty_selection_reports_zero(self, rng):
        pred = rng.standard_normal((8, 3))
        diag = rank_diagnostics(pred, [np.array([], dtype=int)])
        assert diag.sub_ranks == (0,)

    def test_out_of_range_selection_rejected(self, rng):
        pred = rng.standard_normal((8, 3))
        with pytest.raises(InvalidInput):
            rank_diagnostics(pred, [np.array([9])])

    def test_nuclear_norms_match_oracle(self, rng):
        pred = rng.standard_normal((40, 5))
        rows = [np.arange(0, 20), np.arange(15, 40)]
        diag = rank_diagnostics(pred, rows)
        subs = [oracles.svd_nuclear(pred[r]) for r in rows]
        assert diag.entire_nuclear == pytest.approx(oracles.svd_nuclear(pred), rel=1e-9)
        assert diag.sub_nuclear_mean == pytest.approx(np.mean(subs), rel=1e-9)
        assert diag.sub_nuclear_median == pytest.approx(np.median(subs), rel=1e-9)

    def test_each_matrix_is_decomposed_once(self, rng, monkeypatch):
        """One ``eigvalsh`` per nonempty block and one for the whole stack give both the
        ranks and the nuclear norms, and each norm is ``nuclear_norm``'s bit for bit."""
        pred = rng.standard_normal((40, 5))
        pred[20:30] = np.outer(rng.standard_normal(10), rng.standard_normal(5))
        rows = [np.arange(0, 20), np.arange(20, 30), np.array([], dtype=int), np.arange(15, 40)]
        norms = [nuclear_norm(pred[r]) for r in rows]
        whole = nuclear_norm(pred)
        eigvalsh, calls = np.linalg.eigvalsh, []

        def counting(a):
            calls.append(np.shape(a))
            return eigvalsh(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        diag = rank_diagnostics(pred, rows)
        assert len(calls) == 3 + 1
        assert diag.sub_ranks == (5, 1, 0, 5)
        assert diag.entire_nuclear == whole
        assert diag.sub_nuclear_mean == float(np.mean(norms))
        assert diag.sub_nuclear_median == float(np.median(norms))


class TestNemenyiCd:
    def test_six_methods_twenty_results(self):
        assert nemenyi_cd(6, 20, 2.850) == pytest.approx(4.130, abs=1e-3)

    def test_three_methods_twenty_results(self):
        assert nemenyi_cd(3, 20, 2.344) == pytest.approx(1.816, abs=1e-3)

    def test_rejects_invalid_counts(self):
        with pytest.raises(InvalidInput):
            nemenyi_cd(1, 20, 2.850)
        with pytest.raises(InvalidInput):
            nemenyi_cd(6, 0, 2.850)
        with pytest.raises(InvalidInput):
            nemenyi_cd(6, 20, 0.0)

    def test_rejects_boolean_counts(self):
        with pytest.raises(InvalidInput):
            nemenyi_cd(True, 20, 2.850)
        with pytest.raises(InvalidInput):
            nemenyi_cd(6, True, 2.850)
