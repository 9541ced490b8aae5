"""Evaluation metrics: accuracy, macro F1, one-vs-rest AUC, box IoU,
greedy detection matching, and the Gaussian-summary KL shift diagnostic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .core import GRADE_COUNT, LESION_TYPES, DetectionTable, ProbabilityVector
from .errors import EmptyEvaluation, NoQualifyingClass, SchemaMismatch

VARIANCE_FLOOR = 1e-6


def _as_grade_array(values: Sequence[int] | np.ndarray, name: str) -> np.ndarray:
    if isinstance(values, np.ndarray) and values.dtype.kind in "iu":
        arr = values.astype(np.int64)
    else:
        arr = np.asarray([int(v) for v in values], dtype=np.int64)
    if arr.size == 0:
        raise EmptyEvaluation(f"{name} is empty")
    if arr.min() < 0 or arr.max() >= GRADE_COUNT:
        raise ValueError(f"{name} contains grades outside 0..{GRADE_COUNT - 1}")
    return arr


def accuracy(y_true: Sequence[int], y_pred: Sequence[int]) -> float:
    """Fraction of exact grade matches."""
    t = _as_grade_array(y_true, "y_true")
    p = _as_grade_array(y_pred, "y_pred")
    if t.shape != p.shape:
        raise ValueError("y_true and y_pred lengths differ")
    return float(np.mean(t == p))


def confusion_matrix(y_true: Sequence[int], y_pred: Sequence[int]) -> np.ndarray:
    """5x5 count matrix, rows = true grade, columns = predicted grade."""
    t = _as_grade_array(y_true, "y_true")
    p = _as_grade_array(y_pred, "y_pred")
    if t.shape != p.shape:
        raise ValueError("y_true and y_pred lengths differ")
    cm = np.zeros((GRADE_COUNT, GRADE_COUNT), dtype=np.int64)
    np.add.at(cm, (t, p), 1)
    return cm


def macro_f1(y_true: Sequence[int], y_pred: Sequence[int]) -> float:
    """Mean per-grade F1 over the grades present in y_true.

    Undefined precision or recall counts as 0 for that grade.
    """
    cm = confusion_matrix(y_true, y_pred)
    support = cm.sum(axis=1)
    f1s = []
    for g in range(GRADE_COUNT):
        if support[g] == 0:
            continue
        tp = cm[g, g]
        fp = cm[:, g].sum() - tp
        fn = support[g] - tp
        denom = 2 * tp + fp + fn
        f1s.append(0.0 if denom == 0 else 2.0 * tp / denom)
    return float(np.mean(f1s))


def _tie_averaged_ranks(scores: np.ndarray) -> np.ndarray:
    """1-based ranks with tied scores assigned the mean of their ranks."""
    order = np.argsort(scores, kind="stable")
    sorted_scores = scores[order]
    starts = np.flatnonzero(np.r_[True, sorted_scores[1:] != sorted_scores[:-1]])
    ends = np.r_[starts[1:], scores.size] - 1
    ranks = np.empty(scores.size, dtype=np.float64)
    ranks[order] = np.repeat((starts + ends) / 2.0 + 1.0, ends - starts + 1)
    return ranks


def binary_auc(labels: Sequence[int], scores: Sequence[float]) -> float:
    """Rank-statistic AUC: P(score_pos > score_neg) + 0.5 P(tie)."""
    y = np.asarray(labels, dtype=np.int64)
    s = np.asarray(scores, dtype=np.float64)
    n_pos = int(y.sum())
    n_neg = int(y.size - n_pos)
    if n_pos == 0 or n_neg == 0:
        raise NoQualifyingClass("binary AUC needs both positives and negatives")
    ranks = _tie_averaged_ranks(s)
    pos_rank_sum = float(ranks[y == 1].sum())
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def auc_ovr_macro(
    y_true: Sequence[int] | np.ndarray,
    prob_rows: np.ndarray | Sequence[ProbabilityVector | Sequence[float]],
) -> float:
    """One-vs-rest AUC averaged over grades that have both positives and
    negatives in y_true; ``prob_rows`` is an (n, 5) array or n rows."""
    t = _as_grade_array(y_true, "y_true")
    if isinstance(prob_rows, np.ndarray):
        mat = prob_rows.astype(np.float64, copy=False)
    else:
        mat = np.asarray([tuple(row) for row in prob_rows], dtype=np.float64)
    if mat.shape != (t.size, GRADE_COUNT):
        raise ValueError(f"prob_rows shape {mat.shape} does not match {t.size} labels")
    aucs = []
    for g in range(GRADE_COUNT):
        mask = (t == g).astype(np.int64)
        n_pos = int(mask.sum())
        if n_pos == 0 or n_pos == t.size:
            continue
        aucs.append(binary_auc(mask, mat[:, g]))
    if not aucs:
        raise NoQualifyingClass("no grade has both positives and negatives")
    return float(np.mean(aucs))


def _box_iou(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Intersection-over-union of box pairs, the rows of two ``(k, 4)``
    x, y, w, h arrays. Areas use the same edge arithmetic as the
    intersection, so identical boxes give exactly 1.0."""
    a2, b2 = a[:, :2] + a[:, 2:], b[:, :2] + b[:, 2:]
    side = np.maximum(np.minimum(a2, b2) - np.maximum(a[:, :2], b[:, :2]), 0.0)
    inter = side[:, 0] * side[:, 1]
    union = (a2 - a[:, :2]).prod(axis=1) + (b2 - b[:, :2]).prod(axis=1) - inter
    return np.divide(inter, union, out=np.zeros_like(inter), where=union > 0)


def _grouped_order(group: np.ndarray, key: np.ndarray) -> np.ndarray:
    """The indices that sort by ``group``, then ``key``, then position."""
    order = np.argsort(key, kind="stable")
    return order[np.argsort(group[order], kind="stable")]


@dataclass(frozen=True)
class DetectionMatchReport:
    """Outcome of greedy box matching between predictions and ground truth."""

    matched_per_lesion: dict[str, int]
    matched_total: int
    mean_matched_iou: float
    precision: float
    recall: float


# each lesion code's place when the kinds are sorted by name
_NAME_RANK = np.argsort(np.argsort([kind.value for kind in LESION_TYPES]))


def match_detections(pred: DetectionTable, truth: DetectionTable, iou_threshold: float = 0.5) -> DetectionMatchReport:
    """Greedy matching per image and lesion kind.

    The (image, kind) groups are visited with images in order of first
    appearance, in ``pred`` then ``truth``, and kinds by name; a group's
    predictions by descending score, in file order on ties. Each prediction
    takes the unmatched true box of its group with the highest IoU (the
    earliest on exact ties) if that IoU is at least ``iou_threshold``.
    Counts, precision and recall are summed over all images;
    mean_matched_iou is over all matched pairs.
    """
    if not (0.0 <= iou_threshold <= 1.0):
        raise ValueError(f"iou_threshold={iou_threshold!r} outside [0,1]")
    images = {image_id: n for n, image_id in enumerate(dict.fromkeys(pred.ids + truth.ids))}
    p_key, t_key = (np.array([images[i] for i in t.ids], dtype=np.int64)[t.image] * len(LESION_TYPES)
                    + _NAME_RANK[t.lesion] for t in (pred, truth))
    p_order, t_order = _grouped_order(p_key, -pred.score), np.argsort(t_key, kind="stable")
    p_key, t_key = p_key[p_order], t_key[t_order]
    # every (prediction, true box) pair of a group, predictions in visiting order
    first = np.searchsorted(t_key, p_key)
    count = np.searchsorted(t_key, p_key, side="right") - first
    start = np.cumsum(count) - count
    pair_p = np.repeat(np.arange(p_key.size), count)
    pair_t = np.arange(pair_p.size) - np.repeat(start - first, count)
    overlap = _box_iou(pred.box[p_order][pair_p], truth.box[t_order][pair_t])
    # each prediction's candidates, best first
    ranked = _grouped_order(pair_p, -overlap)
    candidates, ious = pair_t[ranked].tolist(), overlap[ranked].tolist()
    taken = [False] * t_key.size
    matched, matched_ious = [], []
    for p, lo, hi in zip(range(p_key.size), start.tolist(), (start + count).tolist()):
        j = next((k for k in range(lo, hi) if not taken[candidates[k]]), None)  # the best untaken
        if j is not None and ious[j] >= iou_threshold:
            taken[candidates[j]] = True
            matched.append(p)
            matched_ious.append(ious[j])
    hits = np.bincount(pred.lesion[p_order][matched], minlength=len(LESION_TYPES)).tolist()
    kinds = sorted(np.union1d(pred.lesion, truth.lesion).tolist(), key=_NAME_RANK.__getitem__)
    total, n_pred, n_truth = len(matched), len(pred.score), len(truth.score)
    return DetectionMatchReport({LESION_TYPES[code].value: hits[code] for code in kinds}, total,
                                float(np.mean(matched_ious)) if matched_ious else 0.0,
                                total / n_pred if n_pred else 1.0, total / n_truth if n_truth else 1.0)


@dataclass(frozen=True)
class DomainStats:
    """Per-feature Gaussian summary (mean, floored variance) of a domain."""

    mean: tuple[float, ...]
    variance: tuple[float, ...]
    n: int

    def __post_init__(self) -> None:
        if len(self.mean) != len(self.variance):
            raise ValueError("mean and variance arity differ")
        if any(v < VARIANCE_FLOOR for v in self.variance):
            raise ValueError(f"variance below floor {VARIANCE_FLOOR}")

    @classmethod
    def from_matrix(cls, x: np.ndarray) -> "DomainStats":
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[0] == 0:
            raise ValueError("need a nonempty 2-D feature matrix")
        mean = x.mean(axis=0)
        var = np.maximum(x.var(axis=0), VARIANCE_FLOOR)
        return cls(tuple(mean.tolist()), tuple(var.tolist()), x.shape[0])


def domain_kl(p: DomainStats, q: DomainStats) -> float:
    """Closed-form KL(p || q) between independent-coordinate Gaussian
    summaries: sum over features of
    (var_p/var_q + (mu_q-mu_p)^2/var_q - 1 + ln(var_q/var_p)) / 2.
    """
    if len(p.mean) != len(q.mean):
        raise SchemaMismatch("domain stats have different feature arity")
    mp = np.asarray(p.mean)
    mq = np.asarray(q.mean)
    vp = np.asarray(p.variance)
    vq = np.asarray(q.variance)
    terms = 0.5 * (vp / vq + (mq - mp) ** 2 / vq - 1.0 + np.log(vq / vp))
    return float(terms.sum())


def seeded_summary(per_seed_values: Sequence[float]) -> tuple[float, float]:
    """(mean, population std) across repeated seeded runs."""
    vals = np.asarray(per_seed_values, dtype=np.float64)
    if vals.size == 0:
        raise EmptyEvaluation("no per-seed values")
    return float(vals.mean()), float(vals.std())


@dataclass(frozen=True)
class MetricReport:
    """Bundle of classification metrics over one evaluation set."""

    accuracy: float
    macro_f1: float
    auc_ovr_macro: float | None
    confusion: tuple[tuple[int, ...], ...]
    support: tuple[int, ...] = field(default=())

    def __post_init__(self) -> None:
        cm = np.asarray(self.confusion)
        if cm.shape != (GRADE_COUNT, GRADE_COUNT):
            raise ValueError("confusion matrix must be 5x5")
        if tuple(int(v) for v in cm.sum(axis=1)) != tuple(self.support):
            raise ValueError("confusion row sums must equal support")
        total = cm.sum()
        if total and abs(self.accuracy - np.trace(cm) / total) > 1e-12:
            raise ValueError("accuracy must equal confusion trace / total")


def evaluate_predictions(
    y_true: Sequence[int],
    y_pred: Sequence[int],
    prob_rows: Sequence[ProbabilityVector | Sequence[float]] | None = None,
) -> MetricReport:
    """Compute the full metric bundle; AUC only when prob rows are given
    and at least one grade qualifies."""
    cm = confusion_matrix(y_true, y_pred)
    auc: float | None = None
    if prob_rows is not None:
        try:
            auc = auc_ovr_macro(y_true, prob_rows)
        except NoQualifyingClass:
            auc = None
    return MetricReport(
        accuracy=accuracy(y_true, y_pred),
        macro_f1=macro_f1(y_true, y_pred),
        auc_ovr_macro=auc,
        confusion=tuple(tuple(int(v) for v in row) for row in cm),
        support=tuple(int(v) for v in cm.sum(axis=1)),
    )
