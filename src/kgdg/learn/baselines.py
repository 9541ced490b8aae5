"""The non-boosting symbolic learners: multinomial logistic regression,
bagged randomized trees, and k-nearest neighbors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Any

import numpy as np

from ..core import GRADE_COUNT, row_sum
from ..errors import CorruptArtifact, InvalidConfig
from .config import (
    FittedModel,
    TrainConfig,
    feature_matrix,  # noqa: F401  unused here; the benchmark's tracer patches it by this module's name
    float64s,
    int64s,
    sample_weights,
    softmax,
    standardization,
    train_fingerprint,
)
from .tree import FlatTrees, fit_classification_tree, flatten_trees, predict_tree


# --- multinomial logistic regression ------------------------------------------


def check_std(std: np.ndarray, path: str) -> None:
    """A standardizing scale must divide: every entry positive and finite."""
    if not (np.isfinite(std) & (std > 0)).all():
        raise CorruptArtifact(f"{path}: param 'std' holds a value that is not positive and finite")


@dataclass
class LogisticModel(FittedModel):
    PARAMS = {"weights": float64s, "bias": float64s, "mean": float64s, "std": float64s}
    SHAPES = {"weights": (GRADE_COUNT, "f"), "bias": (GRADE_COUNT,), "mean": ("f",), "std": ("f",)}

    feature_schema: tuple[str, ...]
    weights: np.ndarray
    bias: np.ndarray
    mean: np.ndarray
    std: np.ndarray
    train_fingerprint: str

    def check_params(self, path: str) -> None:
        super().check_params(path)
        check_std(self.std, path)

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
    # The gradient of the reference loss in tests/ref_logistic.py, bit for
    # bit, without the loss and in preallocated buffers. Logits and probabilities
    # are grade-major (5, n): softmax's max and sum reduce over axis 0, adding
    # each sample's grades left to right as row_sum does. Two ops depend on
    # layout or order: BLAS rounds delta.T @ xs differently unless delta is
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
    SHAPES = {"trees": ("trees", GRADE_COUNT)}  # every leaf a grade distribution

    feature_schema: tuple[str, ...]
    trees: list[dict[str, Any]]
    train_fingerprint: str

    @cached_property
    def flats(self) -> list[FlatTrees]:
        """All the trees as one set of flat node arrays, built once."""
        return [flatten_trees(self.trees)]

    def check_leaves(self, leaves: np.ndarray, path: str) -> None:
        sums_to_one = np.allclose(row_sum(leaves), 1.0, rtol=0, atol=1e-9)
        if not (np.isfinite(leaves).all() and (leaves >= 0).all() and sums_to_one):
            raise CorruptArtifact(f"{path}: param 'trees' holds a leaf that is not a grade distribution")

    def predict_proba_matrix(self, x: np.ndarray) -> np.ndarray:
        self.check_width(x)
        acc = np.zeros((x.shape[0], GRADE_COUNT), dtype=np.float64)
        for leaves in predict_tree(self.flats[0], x).transpose(1, 0, 2):  # one descent, summed tree by tree
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
    SHAPES = {"points": ("rows", "f"), "grades": ("rows",), "mean": ("f",), "std": ("f",)}

    feature_schema: tuple[str, ...]
    points: np.ndarray
    grades: np.ndarray
    mean: np.ndarray
    std: np.ndarray
    k: int
    train_fingerprint: str

    def check_params(self, path: str) -> None:
        super().check_params(path)
        check_std(self.std, path)
        if ((self.grades < 0) | (self.grades >= GRADE_COUNT)).any():
            raise CorruptArtifact(f"{path}: param 'grades' holds a grade outside 0..{GRADE_COUNT - 1}")
        if not 1 <= self.k <= len(self.grades):
            raise CorruptArtifact(f"{path}: param 'k' is {self.k}, outside 1..{len(self.grades)}, the stored rows")

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
