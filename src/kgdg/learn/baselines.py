"""The non-boosting symbolic learners: multinomial logistic regression,
bagged randomized trees, and k-nearest neighbors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations_with_replacement
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


NEWTON_TOL = 1e-8  # the fit stops once no entry of the penalized gradient reaches this,
NEWTON_CAP = 50  # or after this many Newton steps


def fit_logistic_arrays(
    x: np.ndarray, y: np.ndarray, schema: tuple[str, ...], cfg: TrainConfig
) -> LogisticModel:
    """Newton's method from zero on the mean cross-entropy of
    ``softmax(xs w^T + b)``, xs the standardized inputs, plus ``lam/2`` times
    the squared norm of every weight and bias entry, ``lam = 1/n_train``. The
    penalty keeps the optimum finite and unique on separable grades, along
    the softmax shift and for a grade absent from training; a single-grade set
    fits a model that always predicts its grade. A step is halved, at most 29
    times, until the objective falls by an Armijo fraction of its slope: a full
    step can overshoot when an outlying row squeezes the other rows' values.
    """
    mu, sd = standardization(x)
    n, width = x.shape[0], x.shape[1] + 1
    xa = np.hstack(((x - mu) / sd, np.ones((n, 1))))  # the bias is the weight of a column of ones
    scale = np.full(n, 1.0 / n)  # each row's weight in the mean cross-entropy
    onehot, lam = np.eye(GRADE_COUNT)[y], 1.0 / n

    def evaluate(theta: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:  # objective, probs, gradient
        z = xa @ theta.T
        z -= z.max(axis=1, keepdims=True)
        e = np.exp(z)
        total = e.sum(axis=1)
        loss = scale @ (np.log(total) - (z * onehot).sum(axis=1)) + lam / 2 * (theta * theta).sum()
        probs = e / total[:, None]
        return float(loss), probs, ((probs - onehot) * scale[:, None]).T @ xa + lam * theta

    theta, hess = np.zeros((GRADE_COUNT, width)), np.empty((GRADE_COUNT, width) * 2)
    loss, probs, grad = evaluate(theta)
    for _ in range(NEWTON_CAP):
        if np.abs(grad).max() < NEWTON_TOL:
            break
        sp = probs * scale[:, None]
        for c, d in combinations_with_replacement(range(GRADE_COUNT), 2):  # block (d, c) equals block (c, d)
            hess[c, :, d] = hess[d, :, c] = (xa * (sp[:, c] * ((c == d) - probs[:, d]))[:, None]).T @ xa
        step = np.linalg.solve(hess.reshape(grad.size, -1) + lam * np.eye(grad.size), grad.ravel()).reshape(grad.shape)
        for t in 0.5 ** np.arange(30):
            new = evaluate(theta - t * step)
            if new[0] <= loss - 1e-4 * t * (grad * step).sum():
                break
        theta, (loss, probs, grad) = theta - t * step, new
    return LogisticModel(feature_schema=schema, weights=theta[:, :-1].copy(), bias=theta[:, -1].copy(), mean=mu,
                         std=sd, train_fingerprint=train_fingerprint(cfg, schema, x, y))


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
    max_features = max(1, math.isqrt(x.shape[1]))
    root = np.random.SeedSequence(cfg.seed)
    trees = []
    for child in root.spawn(cfg.n_trees):
        rng = np.random.Generator(np.random.PCG64(child))
        rows = rng.integers(0, x.shape[0], size=x.shape[0])
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
