"""Evaluation metrics: accuracy, macro F1, one-vs-rest AUC, box IoU,
greedy detection matching, and the Gaussian-summary KL shift diagnostic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .core import GRADE_COUNT, LESION_TYPES, DetectionTable, checked_unit
from .errors import EmptyEvaluation, NoQualifyingClass, SchemaMismatch

VARIANCE_FLOOR = 1e-6


def _as_grade_array(values: Sequence[int] | np.ndarray, name: str) -> np.ndarray:
    if isinstance(values, np.ndarray) and values.dtype.kind in "iu":
        arr = values.astype(np.int64, copy=False)
    else:
        arr = np.asarray([int(v) for v in values], dtype=np.int64)
    if arr.size == 0:
        raise EmptyEvaluation(f"{name} is empty")
    if arr.min() < 0 or arr.max() >= GRADE_COUNT:
        raise ValueError(f"{name} contains grades outside 0..{GRADE_COUNT - 1}")
    return arr


def _prob_matrix(prob_rows: np.ndarray, n: int) -> np.ndarray:
    mat = np.asarray(prob_rows, dtype=np.float64)
    if mat.shape != (n, GRADE_COUNT):
        raise ValueError(f"prob_rows shape {mat.shape} does not match {n} labels")
    return mat


def _rank_auc(ascending: np.ndarray, scores: np.ndarray, positive: np.ndarray, n_pos: int) -> float:
    """AUC of one score column from the tie-averaged ranks of its positives.

    ``ascending`` is ``np.sort(scores)``. A number's tied block spans the
    sorted positions ``left .. right - 1``, so twice its mean 1-based rank
    is ``left + right + 1``: a whole number, and the rank sum is exact in
    any order, so the positives are searched sorted, which is faster. Each
    NaN ranks alone, after every number, in row order.
    """
    v = np.sort(scores[positive])
    twice = np.searchsorted(ascending, v, "left") + np.searchsorted(ascending, v, "right") + 1
    if np.isnan(ascending[-1]):
        nan = np.isnan(scores)
        nan_ranks = scores.size - int(nan.sum()) + np.cumsum(nan)[positive & nan]
        twice[twice.size - nan_ranks.size :] = 2 * nan_ranks  # sorting put the NaN positives last
    n_neg = scores.size - n_pos
    return (int(twice.sum()) / 2 - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def _auc_ovr(t: np.ndarray, mat: np.ndarray, support: np.ndarray) -> float | None:
    """Mean one-vs-rest AUC over the grades with both positives and
    negatives in ``t``, from one sort per column; None when there are none."""
    ascending = mat.T.copy()
    ascending.sort(axis=1)
    aucs = [
        _rank_auc(ascending[g], mat[:, g], t == g, int(support[g]))
        for g in np.flatnonzero((support > 0) & (support < t.size)).tolist()
    ]
    return float(np.mean(aucs)) if aucs else None


class Scores(NamedTuple):
    """Classification metrics of one evaluation set."""

    confusion: np.ndarray  # (5, 5) counts, rows = true grade, columns = predicted grade
    accuracy: float
    macro_f1: float
    auc_ovr_macro: float | None  # None without prob rows, or when no grade qualifies


def score(
    y_true: Sequence[int] | np.ndarray,
    y_pred: Sequence[int] | np.ndarray,
    prob_rows: np.ndarray | None = None,
) -> Scores:
    """The scoring kernel behind every classification metric: the grades
    are checked once, the confusion matrix is one ``bincount``, accuracy
    is its trace over n, and macro F1 is the mean per-grade F1 over the
    grades present in ``y_true`` (undefined precision or recall counts as
    0). AUC, when ``(n, 5)`` prob rows are given, sorts each grade's column
    once and ranks its positives by binary search."""
    t = _as_grade_array(y_true, "y_true")
    p = _as_grade_array(y_pred, "y_pred")
    if t.shape != p.shape:
        raise ValueError("y_true and y_pred lengths differ")
    cm = np.bincount((GRADE_COUNT * t + p).ravel(), minlength=GRADE_COUNT**2).reshape(GRADE_COUNT, GRADE_COUNT)
    support = cm.sum(axis=1)
    present = support > 0
    tp = cm.diagonal()[present]
    f1 = 2.0 * tp / (2 * tp + (cm.sum(axis=0)[present] - tp) + (support[present] - tp))
    auc = None if prob_rows is None else _auc_ovr(t, _prob_matrix(prob_rows, t.size), support)
    return Scores(cm, int(tp.sum()) / t.size, float(np.mean(f1)), auc)


def accuracy(y_true: Sequence[int], y_pred: Sequence[int]) -> float:
    """Fraction of exact grade matches."""
    return score(y_true, y_pred).accuracy


def confusion_matrix(y_true: Sequence[int], y_pred: Sequence[int]) -> np.ndarray:
    """5x5 count matrix, rows = true grade, columns = predicted grade."""
    return score(y_true, y_pred).confusion


def macro_f1(y_true: Sequence[int], y_pred: Sequence[int]) -> float:
    """Mean per-grade F1 over the grades present in y_true.

    Undefined precision or recall counts as 0 for that grade.
    """
    return score(y_true, y_pred).macro_f1


def binary_auc(labels: Sequence[int], scores: Sequence[float]) -> float:
    """Rank-statistic AUC: P(score_pos > score_neg) + 0.5 P(tie).

    ``labels`` must be 1-D 0/1 values, one per score; anything else
    raises ValueError.
    """
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    if y.ndim != 1 or s.shape != y.shape:
        raise ValueError(f"binary AUC needs 1-D labels, one per score; got shapes {y.shape} and {s.shape}")
    positive = y == 1
    if not (positive | (y == 0)).all():
        raise ValueError("labels must be 0 or 1")
    n_pos = int(positive.sum())
    if n_pos == 0 or n_pos == y.size:
        raise NoQualifyingClass("binary AUC needs both positives and negatives")
    return _rank_auc(np.sort(s), s, positive, n_pos)


def auc_ovr_macro(y_true: Sequence[int] | np.ndarray, prob_rows: np.ndarray) -> float:
    """One-vs-rest AUC averaged over grades that have both positives and
    negatives in y_true; ``prob_rows`` is an (n, 5) array."""
    t = _as_grade_array(y_true, "y_true")
    auc = _auc_ovr(t, _prob_matrix(prob_rows, t.size), np.bincount(t, minlength=GRADE_COUNT))
    if auc is None:
        raise NoQualifyingClass("no grade has both positives and negatives")
    return auc


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
    checked_unit("iou_threshold", iou_threshold)
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
    prob_rows: np.ndarray | None = None,
) -> MetricReport:
    """Compute the full metric bundle; AUC only when ``(n, 5)`` prob rows
    are given and at least one grade qualifies."""
    scores = score(y_true, y_pred, prob_rows)
    cm = scores.confusion
    return MetricReport(
        accuracy=scores.accuracy,
        macro_f1=scores.macro_f1,
        auc_ovr_macro=scores.auc_ovr_macro,
        confusion=tuple(tuple(row) for row in cm.tolist()),
        support=tuple(cm.sum(axis=1).tolist()),
    )
