"""The non-boosting symbolic learners: multinomial logistic regression,
bagged randomized trees, and k-nearest neighbors, plus stratified
cross-validation over any learner kind.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Any

import numpy as np

from ..core import GRADE_COUNT, DomainTable
from ..errors import InvalidConfig, TooFewPerClass
from ..metrics import accuracy as accuracy_metric
from ..metrics import macro_f1 as macro_f1_metric
from ..metrics import seeded_summary
from .config import (
    FittedModel,
    TrainConfig,
    feature_matrix,
    float64s,
    int64s,
    resolve_schema,
    sample_weights,
    softmax,
    standardization,
    train_fingerprint,
)
from .tree import FlatTrees, fit_classification_tree, flatten_trees, predict_tree


# --- multinomial logistic regression ------------------------------------------


def logistic_loss_and_grad(
    w: np.ndarray,
    b: np.ndarray,
    x: np.ndarray,
    y: np.ndarray,
    weights: np.ndarray,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Weighted-mean cross-entropy of softmax(x w^T + b) and its gradients."""
    probs = softmax(x @ w.T + b)
    picked = np.clip(probs[np.arange(y.size), y], 1e-300, None)
    total = weights.sum()
    loss = float(-(weights * np.log(picked)).sum() / total)
    delta = probs.copy()
    delta[np.arange(y.size), y] -= 1.0
    delta *= (weights / total)[:, None]
    return loss, delta.T @ x, delta.sum(axis=0)


@dataclass
class LogisticModel(FittedModel):
    PARAMS = {"weights": float64s, "bias": float64s, "mean": float64s, "std": float64s}

    feature_schema: tuple[str, ...]
    weights: np.ndarray
    bias: np.ndarray
    mean: np.ndarray
    std: np.ndarray
    train_fingerprint: str

    def predict_proba_matrix(self, x: np.ndarray) -> np.ndarray:
        self.check_width(x)
        xs = (x - self.mean) / self.std
        return softmax(xs @ self.weights.T + self.bias)


def fit_logistic_arrays(
    x: np.ndarray, y: np.ndarray, schema: tuple[str, ...], cfg: TrainConfig
) -> LogisticModel:
    """Full-batch gradient descent from a zero init on standardized inputs.

    A single-grade training set is allowed: the fit degenerates to always
    predicting that grade.
    """
    mu, sd = standardization(x)
    xs = (x - mu) / sd
    weights = sample_weights(y, cfg.class_weighting)
    # The gradient of logistic_loss_and_grad without the loss, bit for bit,
    # in preallocated buffers. Logits and probabilities are grade-major
    # (5, n): softmax's max and sum reduce over axis 0, adding each sample's
    # grades left to right as row_sum does. Two ops depend on layout or
    # order: BLAS rounds delta.T @ xs differently unless delta is
    # sample-major, and the bias sum must add the samples in order, as
    # sum(axis=0) and einsum do (a sum along a contiguous axis is pairwise).
    n = y.size
    onehot = np.zeros((GRADE_COUNT, n), dtype=np.float64)
    onehot[y, np.arange(n)] = 1.0
    scale = weights / weights.sum()
    w = np.zeros((GRADE_COUNT, x.shape[1]), dtype=np.float64)
    b = np.zeros(GRADE_COUNT, dtype=np.float64)
    z = np.empty((GRADE_COUNT, n), dtype=np.float64)
    delta = np.empty((n, GRADE_COUNT), dtype=np.float64)
    xt = np.ascontiguousarray(xs.T)
    for _ in range(cfg.logistic_steps):
        np.matmul(w, xt, out=z)
        z += b[:, None]
        z -= np.maximum.reduce(z, axis=0)
        np.exp(z, out=z)
        z /= np.add.reduce(z, axis=0)
        z -= onehot
        np.multiply(z, scale, out=delta.T)
        w -= cfg.logistic_lr * (delta.T @ xs)
        b -= cfg.logistic_lr * np.einsum("ij->j", delta)
    return LogisticModel(
        feature_schema=schema,
        weights=w,
        bias=b,
        mean=mu,
        std=sd,
        train_fingerprint=train_fingerprint(cfg, schema, x, y),
    )


# --- bagged randomized trees ---------------------------------------------------


@dataclass
class ForestModel(FittedModel):
    PARAMS = {"trees": list}

    feature_schema: tuple[str, ...]
    trees: list[dict[str, Any]]
    train_fingerprint: str

    def flatten(self) -> list[FlatTrees]:
        """All the trees as one set of flat node arrays."""
        return [flatten_trees(self.trees)]

    @cached_property
    def flat(self) -> FlatTrees:
        """``flatten()``'s one set, built on first use."""
        return self.flatten()[0]

    def predict_proba_matrix(self, x: np.ndarray) -> np.ndarray:
        self.check_width(x)
        acc = np.zeros((x.shape[0], GRADE_COUNT), dtype=np.float64)
        for leaves in predict_tree(self.flat, x).transpose(1, 0, 2):  # one descent, summed tree by tree
            acc += leaves
        return acc / len(self.trees)


def fit_forest_arrays(
    x: np.ndarray, y: np.ndarray, schema: tuple[str, ...], cfg: TrainConfig
) -> ForestModel:
    """Per-tree bootstrap plus random feature subsets at every split;
    probabilities are averaged leaf grade frequencies."""
    if cfg.n_trees < 1:
        raise InvalidConfig("forest needs n_trees >= 1")
    max_features = cfg.max_features or max(1, math.isqrt(x.shape[1]))
    root = np.random.SeedSequence(cfg.seed)
    trees = []
    for child in root.spawn(cfg.n_trees):
        rng = np.random.Generator(np.random.PCG64(child))
        rows = rng.integers(0, x.shape[0], size=x.shape[0]) if cfg.bootstrap else np.arange(x.shape[0])
        trees.append(
            fit_classification_tree(x[rows], y[rows], rng, cfg.max_depth, cfg.min_leaf, max_features)
        )
    return ForestModel(
        feature_schema=schema,
        trees=trees,
        train_fingerprint=train_fingerprint(cfg, schema, x, y),
    )


# --- k-nearest neighbors ------------------------------------------------------


@dataclass
class KnnModel(FittedModel):
    PARAMS = {"points": float64s, "grades": int64s, "mean": float64s, "std": float64s, "k": int}

    feature_schema: tuple[str, ...]
    points: np.ndarray
    grades: np.ndarray
    mean: np.ndarray
    std: np.ndarray
    k: int
    train_fingerprint: str

    def predict_proba_matrix(self, x: np.ndarray) -> np.ndarray:
        self.check_width(x)
        xs = (x - self.mean) / self.std
        k, n = self.k, self.points.shape[0]
        out = np.zeros((x.shape[0], GRADE_COUNT), dtype=np.float64)
        for i in range(xs.shape[0]):
            dists = np.sqrt(((self.points - xs[i]) ** 2).sum(axis=1))
            # the first k of a stable sort: the rows no farther than the k-th
            # distance (every row when that is NaN), sorted stably
            near = np.flatnonzero(~(dists > np.partition(dists, k - 1)[k - 1])) if k < n else np.arange(n)
            nearest = near[np.argsort(dists[near], kind="stable")[:k]]
            counts = np.bincount(self.grades[nearest], minlength=GRADE_COUNT)
            out[i] = counts / k
        return out


def fit_knn_arrays(
    x: np.ndarray, y: np.ndarray, schema: tuple[str, ...], cfg: TrainConfig
) -> KnnModel:
    """Store standardized training points; neighbors vote by grade frequency.

    Distance ties resolve by training-row order, so predictions are
    deterministic.
    """
    if cfg.k_neighbors > x.shape[0]:
        raise InvalidConfig(
            f"k_neighbors={cfg.k_neighbors} exceeds the {x.shape[0]} training points"
        )
    mu, sd = standardization(x)
    return KnnModel(
        feature_schema=schema,
        points=(x - mu) / sd,
        grades=y,
        mean=mu,
        std=sd,
        k=cfg.k_neighbors,
        train_fingerprint=train_fingerprint(cfg, schema, x, y),
    )


# --- cross-validation -------------------------------------------------------------


@dataclass(frozen=True)
class CrossValidationSummary:
    per_fold_accuracy: tuple[float, ...]
    per_fold_macro_f1: tuple[float, ...]
    accuracy_mean: float
    accuracy_std: float
    macro_f1_mean: float
    macro_f1_std: float


def cross_validate(table: DomainTable, cfg: TrainConfig, folds: int) -> CrossValidationSummary:
    """Stratified k-fold evaluation of the configured learner on a table's
    rows. Each fold fits on its training rows less a stratified inner
    validation split, which GBM early-stops on."""
    from ..harness import SplitFractions, split_indices  # local imports to avoid a cycle
    from . import fit_model

    if folds < 2:
        raise InvalidConfig("folds must be >= 2")
    y = table.y
    counts = np.bincount(y, minlength=GRADE_COUNT)
    thin = [g for g in range(GRADE_COUNT) if 0 < counts[g] < folds]
    if thin:
        raise TooFewPerClass(f"grades {thin} have fewer than {folds} examples")
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    fold_of = np.empty(len(table), dtype=np.int64)
    for g in range(GRADE_COUNT):
        idx = np.nonzero(y == g)[0]
        rng.shuffle(idx)
        fold_of[idx] = np.arange(idx.size) % folds
    schema = resolve_schema(cfg, table)
    x = feature_matrix(table, schema)
    accs, f1s = [], []
    for k in range(folds):
        train, test = np.flatnonzero(fold_of != k), fold_of == k
        inner, valid, _ = split_indices(train.size, y[train], SplitFractions(0.8, 0.2, 0.0), cfg.seed)
        fit, valid = train[inner], train[valid]
        model = fit_model(x[fit], y[fit], x[valid], y[valid], schema, cfg)
        preds = model.predict_proba_matrix(x[test]).argmax(axis=1)
        accs.append(accuracy_metric(y[test], preds))
        f1s.append(macro_f1_metric(y[test], preds))
    acc_mean, acc_std = seeded_summary(accs)
    f1_mean, f1_std = seeded_summary(f1s)
    return CrossValidationSummary(
        per_fold_accuracy=tuple(accs),
        per_fold_macro_f1=tuple(f1s),
        accuracy_mean=acc_mean,
        accuracy_std=acc_std,
        macro_f1_mean=f1_mean,
        macro_f1_std=f1_std,
    )
