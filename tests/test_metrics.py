import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgdg.core import BoundingBox, Detection, DetectionTable, LesionType
from kgdg.errors import EmptyEvaluation, NoQualifyingClass
from kgdg.metrics import (
    DomainStats,
    accuracy,
    auc_ovr_macro,
    binary_auc,
    confusion_matrix,
    domain_kl,
    evaluate_predictions,
    macro_f1,
    match_detections,
    seeded_summary,
)


def match_lists(pred, truth, iou_threshold=0.5):
    """match_detections of two Detection lists of one image."""
    return match_detections(DetectionTable.from_detections({"": pred}), DetectionTable.from_detections({"": truth}),
                            iou_threshold)


def pair_iou(a, b):
    """The IoU of two boxes: at threshold 0 the one prediction always matches the one truth."""
    return match_lists([Detection(LesionType.MICROANEURYSM, a, 1.0)],
                       [Detection(LesionType.MICROANEURYSM, b, 1.0)], 0.0).mean_matched_iou


# --- independent brute-force oracles (kept deliberately naive) -----------------


def oracle_accuracy(y_true, y_pred):
    return sum(1 for t, p in zip(y_true, y_pred) if t == p) / len(y_true)


def oracle_macro_f1(y_true, y_pred):
    f1s = []
    for g in sorted(set(y_true)):
        tp = sum(1 for t, p in zip(y_true, y_pred) if t == g and p == g)
        fp = sum(1 for t, p in zip(y_true, y_pred) if t != g and p == g)
        fn = sum(1 for t, p in zip(y_true, y_pred) if t == g and p != g)
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        f1s.append(2 * prec * rec / (prec + rec) if prec + rec else 0.0)
    return sum(f1s) / len(f1s)


def oracle_binary_auc(labels, scores):
    pos = [s for l, s in zip(labels, scores) if l == 1]
    neg = [s for l, s in zip(labels, scores) if l == 0]
    wins = sum(1.0 if p > n else 0.5 if p == n else 0.0 for p in pos for n in neg)
    return wins / (len(pos) * len(neg))


def oracle_auc_ovr(y_true, rows):
    aucs = []
    for g in range(5):
        labels = [1 if t == g else 0 for t in y_true]
        if 0 < sum(labels) < len(labels):
            aucs.append(oracle_binary_auc(labels, [r[g] for r in rows]))
    return sum(aucs) / len(aucs)


def prob_rows_from_column(column, grade=0):
    """Build 5-column rows whose ``grade`` column carries the scores."""
    return [[s if g == grade else (1 - s) / 4 for g in range(5)] for s in column]


# --- fixed examples -------------------------------------------------------------


class TestFixedExamples:
    def test_accuracy_fixture(self):
        assert accuracy([0, 0, 1, 2], [0, 1, 1, 2]) == 0.75

    def test_accuracy_perfect(self):
        assert accuracy([3, 1, 4], [3, 1, 4]) == 1.0

    def test_accuracy_empty(self):
        with pytest.raises(EmptyEvaluation):
            accuracy([], [])

    def test_macro_f1_fixture(self):
        assert macro_f1([0, 0, 1, 2], [0, 1, 1, 2]) == pytest.approx(7 / 9, abs=1e-12)

    def test_macro_f1_perfect(self):
        assert macro_f1([0, 1, 2, 3, 4], [0, 1, 2, 3, 4]) == 1.0

    def test_constant_prediction_f1_below_majority_accuracy(self):
        y_true = [0, 0, 0, 1, 1]
        y_pred = [0, 0, 0, 0, 0]
        assert macro_f1(y_true, y_pred) < accuracy(y_true, y_pred)
        assert macro_f1(y_true, y_pred) == pytest.approx(oracle_macro_f1(y_true, y_pred))

    def test_binary_auc_fixture(self):
        assert binary_auc([0, 0, 1, 1], [0.1, 0.4, 0.35, 0.8]) == pytest.approx(0.75)

    def test_auc_perfect_separation(self):
        rows = prob_rows_from_column([0.1, 0.2, 0.8, 0.9], grade=1)
        assert auc_ovr_macro([0, 0, 1, 1], rows) == 1.0

    def test_auc_all_ties_is_half(self):
        rows = prob_rows_from_column([0.5, 0.5, 0.5, 0.5], grade=1)
        assert auc_ovr_macro([0, 0, 1, 1], rows) == 0.5

    def test_auc_no_qualifying_class(self):
        with pytest.raises(NoQualifyingClass):
            auc_ovr_macro([2, 2, 2], prob_rows_from_column([0.1, 0.5, 0.9], grade=2))

    def test_iou_identical(self):
        b = BoundingBox(0.1, 0.1, 0.3, 0.3)
        assert pair_iou(b, b) == 1.0

    def test_iou_disjoint(self):
        assert pair_iou(BoundingBox(0.0, 0.0, 0.2, 0.2), BoundingBox(0.5, 0.5, 0.2, 0.2)) == 0.0

    def test_iou_fixture_one_seventh(self):
        a = BoundingBox(0.0, 0.0, 0.2, 0.2)
        b = BoundingBox(0.1, 0.1, 0.2, 0.2)
        assert pair_iou(a, b) == pytest.approx(1 / 7, abs=1e-12)

    def test_iou_symmetric(self):
        a = BoundingBox(0.0, 0.0, 0.4, 0.2)
        b = BoundingBox(0.1, 0.05, 0.2, 0.3)
        assert pair_iou(a, b) == pytest.approx(pair_iou(b, a), abs=1e-15)


class TestConfusionAndReport:
    def test_confusion_sums(self):
        y_true = [0, 0, 1, 2, 4, 4]
        y_pred = [0, 1, 1, 2, 4, 3]
        cm = confusion_matrix(y_true, y_pred)
        assert cm.sum() == 6
        assert cm[0, 0] == 1 and cm[0, 1] == 1 and cm[4, 3] == 1

    def test_evaluate_predictions_bundle(self):
        y_true = [0, 0, 1, 2]
        y_pred = [0, 1, 1, 2]
        rows = [
            [0.7, 0.1, 0.1, 0.05, 0.05],
            [0.1, 0.6, 0.1, 0.1, 0.1],
            [0.1, 0.6, 0.1, 0.1, 0.1],
            [0.1, 0.1, 0.6, 0.1, 0.1],
        ]
        rep = evaluate_predictions(y_true, y_pred, rows)
        assert rep.accuracy == 0.75
        assert rep.macro_f1 == pytest.approx(7 / 9)
        assert rep.auc_ovr_macro == pytest.approx(oracle_auc_ovr(y_true, rows))
        assert sum(rep.support) == 4


class TestDetectionMatching:
    def box(self, x, y, s=0.1):
        return BoundingBox(x, y, s, s)

    def test_exact_match(self):
        dets = [
            Detection(LesionType.HARD_EXUDATE, self.box(0.1, 0.1), 0.9),
            Detection(LesionType.HARD_HEMORRHAGE, self.box(0.5, 0.5), 0.8),
        ]
        rep = match_lists(dets, dets, iou_threshold=0.5)
        assert rep.precision == 1.0 and rep.recall == 1.0
        assert rep.mean_matched_iou == pytest.approx(1.0)
        assert rep.matched_per_lesion["hard_exudate"] == 1

    def test_one_pred_two_truths_single_match(self):
        pred = [Detection(LesionType.HARD_EXUDATE, self.box(0.10, 0.10), 0.9)]
        truth = [
            Detection(LesionType.HARD_EXUDATE, self.box(0.12, 0.12), 1.0),  # higher IoU
            Detection(LesionType.HARD_EXUDATE, self.box(0.16, 0.16), 1.0),
        ]
        rep = match_lists(pred, truth, iou_threshold=0.1)
        assert rep.matched_total == 1
        assert rep.recall == 0.5
        # greedy picks the closer truth
        assert rep.mean_matched_iou == pytest.approx(pair_iou(pred[0].box, truth[0].box))

    def test_threshold_one_rejects_jitter(self):
        pred = [Detection(LesionType.MICROANEURYSM, self.box(0.1, 0.1), 0.9)]
        truth = [Detection(LesionType.MICROANEURYSM, self.box(0.101, 0.1), 0.9)]
        rep = match_lists(pred, truth, iou_threshold=1.0)
        assert rep.matched_total == 0

    def test_lesion_types_never_cross_match(self):
        pred = [Detection(LesionType.MICROANEURYSM, self.box(0.1, 0.1), 0.9)]
        truth = [Detection(LesionType.HARD_EXUDATE, self.box(0.1, 0.1), 0.9)]
        assert match_lists(pred, truth, 0.5).matched_total == 0


class TestDomainKl:
    def test_identity_is_zero(self):
        p = DomainStats((0.5, 2.0), (1.0, 4.0), 10)
        assert domain_kl(p, p) == 0.0

    def test_mean_shift_half(self):
        p = DomainStats((0.0,), (1.0,), 10)
        q = DomainStats((1.0,), (1.0,), 10)
        assert domain_kl(p, q) == pytest.approx(0.5, abs=1e-12)

    @given(
        st.lists(st.floats(-5, 5), min_size=1, max_size=4),
        st.lists(st.floats(-5, 5), min_size=1, max_size=4),
        st.lists(st.floats(0.01, 5), min_size=1, max_size=4),
        st.lists(st.floats(0.01, 5), min_size=1, max_size=4),
    )
    def test_nonnegative(self, mp, mq, vp, vq):
        d = min(len(mp), len(mq), len(vp), len(vq))
        p = DomainStats(tuple(mp[:d]), tuple(vp[:d]), 5)
        q = DomainStats(tuple(mq[:d]), tuple(vq[:d]), 5)
        assert domain_kl(p, q) >= -1e-12

    def test_zero_iff_equal(self):
        p = DomainStats((1.0, 2.0), (0.5, 0.5), 5)
        q = DomainStats((1.0, 2.0000001), (0.5, 0.5), 5)
        assert domain_kl(p, q) > 0

    def test_from_matrix_floors_variance(self):
        stats = DomainStats.from_matrix(np.ones((10, 3)))
        assert all(v == 1e-6 for v in stats.variance)

    def test_monte_carlo_agrees_with_closed_form(self):
        # sampled KL estimate between two 1-D gaussians
        rng = np.random.default_rng(0)
        mu_p, sd_p, mu_q, sd_q = 0.3, 1.2, -0.5, 0.8
        xs = rng.normal(mu_p, sd_p, size=200_000)
        log_p = -0.5 * ((xs - mu_p) / sd_p) ** 2 - math.log(sd_p)
        log_q = -0.5 * ((xs - mu_q) / sd_q) ** 2 - math.log(sd_q)
        estimate = float(np.mean(log_p - log_q))
        closed = domain_kl(
            DomainStats((mu_p,), (sd_p**2,), 1), DomainStats((mu_q,), (sd_q**2,), 1)
        )
        assert closed == pytest.approx(estimate, abs=0.02)


class TestSeededSummary:
    def test_mean_and_population_std(self):
        mean, std = seeded_summary([0.5, 0.7])
        assert mean == pytest.approx(0.6)
        assert std == pytest.approx(0.1)

    def test_single_value(self):
        assert seeded_summary([0.4]) == (0.4, 0.0)


# --- oracle sweeps ---------------------------------------------------------------


class TestOracleSweeps:
    def test_accuracy_and_f1_exhaustive_small(self):
        # every (y_true, y_pred) pair over 3 grades, up to 4 samples
        for n in range(1, 5):
            for y_true in itertools.product(range(3), repeat=n):
                for y_pred in itertools.product(range(3), repeat=n):
                    assert accuracy(y_true, y_pred) == pytest.approx(
                        oracle_accuracy(y_true, y_pred), abs=1e-12
                    )
                    assert macro_f1(y_true, y_pred) == pytest.approx(
                        oracle_macro_f1(y_true, y_pred), abs=1e-12
                    )

    def test_binary_auc_tie_grid(self):
        for n in range(2, 6):
            for labels in itertools.product((0, 1), repeat=n):
                if not 0 < sum(labels) < n:
                    continue
                for scores in itertools.product((0.25, 0.5, 0.75), repeat=n):
                    assert binary_auc(labels, scores) == pytest.approx(
                        oracle_binary_auc(labels, scores), abs=1e-12
                    )

    @settings(max_examples=200)
    @given(st.data())
    def test_auc_ovr_random_agrees_with_oracle(self, data):
        n = data.draw(st.integers(2, 12))
        y_true = data.draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
        if len(set(y_true)) < 2:
            y_true[0] = (y_true[1] + 1) % 5
        rng = np.random.default_rng(data.draw(st.integers(0, 10_000)))
        rows = rng.dirichlet(np.ones(5), size=n).tolist()
        assert auc_ovr_macro(y_true, rows) == pytest.approx(oracle_auc_ovr(y_true, rows), abs=1e-12)

    @settings(max_examples=100)
    @given(st.data())
    def test_auc_invariant_under_monotone_transform(self, data):
        n = data.draw(st.integers(3, 10))
        labels = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
        if not 0 < sum(labels) < n:
            labels[0] = 1 - labels[0]
        scores = [
            round(s, 6)
            for s in data.draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
        ]
        base = binary_auc(labels, scores)
        transformed = [math.exp(2.5 * s) + 1 for s in scores]
        assert binary_auc(labels, transformed) == pytest.approx(base, abs=1e-12)
