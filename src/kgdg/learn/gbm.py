"""Multiclass gradient boosting with per-grade Newton regression trees.

Scores start at (optionally class-weighted) log priors; each round fits
one tree per grade to the gradient/hessian of the multinomial log-loss
and the final distribution is the exponential normalization of the
accumulated scores. Validation accuracy drives early stopping.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from ..core import GRADE_COUNT
from ..errors import SchemaMismatch, SingleClassTrain
from ..io import ModelArtifact
from .config import (
    FittedModel,
    TrainConfig,
    feature_matrix,  # noqa: F401  unused here; the benchmark's tracer patches it by this module's name
    sample_weights,
    softmax,
    train_fingerprint,
)
from .tree import fit_regression_tree, predict_tree

PRIOR_EPS = 1e-12


@dataclass
class GbmModel(FittedModel):
    """Fitted boosting ensemble: rounds x grades regression trees."""

    feature_schema: tuple[str, ...]
    base_scores: np.ndarray
    trees: list[list[dict[str, Any]]]
    learning_rate: float
    train_fingerprint: str
    train_loss_curve: tuple[float, ...] = ()
    best_round: int = 0

    @property
    def n_rounds(self) -> int:
        return len(self.trees)

    def decision_scores(self, x: np.ndarray) -> np.ndarray:
        scores = np.tile(self.base_scores, (x.shape[0], 1))
        for round_trees in self.trees:
            for c in range(GRADE_COUNT):
                scores[:, c] += self.learning_rate * predict_tree(round_trees[c], x)
        return scores

    def predict_proba_matrix(self, x: np.ndarray) -> np.ndarray:
        self.check_width(x)
        return softmax(self.decision_scores(x))

    def to_artifact(self) -> ModelArtifact:
        return ModelArtifact(
            model_kind="gbm",
            feature_schema=self.feature_schema,
            params={
                "n_features": len(self.feature_schema),
                "base_scores": self.base_scores.tolist(),
                "trees": self.trees,
                "learning_rate": self.learning_rate,
                "best_round": self.best_round,
            },
            train_fingerprint=self.train_fingerprint,
        )

    @classmethod
    def from_artifact(cls, artifact: ModelArtifact) -> "GbmModel":
        p = artifact.params
        return cls(
            feature_schema=tuple(artifact.feature_schema),
            base_scores=np.asarray(p["base_scores"], dtype=np.float64),
            trees=p["trees"],
            learning_rate=float(p["learning_rate"]),
            train_fingerprint=artifact.train_fingerprint,
            best_round=int(p.get("best_round", len(p["trees"]))),
        )


def weighted_log_priors(y: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Log of the (weight-adjusted) empirical grade frequencies."""
    mass = np.zeros(GRADE_COUNT, dtype=np.float64)
    np.add.at(mass, y, weights)
    priors = mass / mass.sum()
    return np.log(np.maximum(priors, PRIOR_EPS))


def multinomial_log_loss(probs: np.ndarray, y: np.ndarray, weights: np.ndarray) -> float:
    """Weighted mean negative log-likelihood."""
    picked = np.clip(probs[np.arange(y.size), y], PRIOR_EPS, None)
    return float(-(weights * np.log(picked)).sum() / weights.sum())


def fit_gbm_arrays(
    x: np.ndarray,
    y: np.ndarray,
    xv: np.ndarray,
    yv: np.ndarray,
    schema: tuple[str, ...],
    cfg: TrainConfig,
) -> GbmModel:
    """Boost until ``n_trees`` rounds or validation accuracy stalls for
    ``early_stop_patience`` rounds; the returned model keeps the trees up
    to the best validation round. Deterministic given the seed."""
    if yv.size == 0:
        raise SchemaMismatch("validation set must be nonempty")
    if np.unique(y).size < 2:
        raise SingleClassTrain("training set contains a single grade")

    weights = sample_weights(y, cfg.class_weighting)
    base = weighted_log_priors(y, weights)
    fingerprint = train_fingerprint(cfg, schema, x, y)

    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    n = x.shape[0]
    onehot = np.zeros((n, GRADE_COUNT), dtype=np.float64)
    onehot[np.arange(n), y] = 1.0

    scores = np.tile(base, (n, 1))
    scores_v = np.tile(base, (xv.shape[0], 1))
    trees: list[list[dict[str, Any]]] = []
    loss_curve: list[float] = []

    # each feature is sorted once per fit; a subsample keeps the stable
    # order of its own rows by restricting the full order to them
    order = np.argsort(x, axis=0, kind="stable").T
    best_acc = float(np.mean(softmax(scores_v).argmax(axis=1) == yv))
    best_round = 0
    for round_idx in range(cfg.n_trees):
        probs = softmax(scores)
        if cfg.subsample < 1.0:
            m = max(1, int(round(cfg.subsample * n)))
            rows = np.sort(rng.choice(n, size=m, replace=False))
            local = np.full(n, -1)
            local[rows] = np.arange(m)
            sub = local[order]
            rows_order = sub[sub >= 0].reshape(order.shape[0], m)
        else:
            rows = np.arange(n)
            rows_order = order
        x_rows = x[rows]
        round_trees: list[dict[str, Any]] = []
        for c in range(GRADE_COUNT):
            grad = weights * (probs[:, c] - onehot[:, c])
            hess = weights * probs[:, c] * (1.0 - probs[:, c])
            tree = fit_regression_tree(
                x_rows, grad[rows], hess[rows], cfg.max_depth, cfg.min_leaf, cfg.l2_leaf,
                rows_order,
            )
            round_trees.append(tree)
            scores[:, c] += cfg.learning_rate * predict_tree(tree, x)
            scores_v[:, c] += cfg.learning_rate * predict_tree(tree, xv)
        trees.append(round_trees)
        loss_curve.append(multinomial_log_loss(softmax(scores), y, weights))
        acc = float(np.mean(softmax(scores_v).argmax(axis=1) == yv))
        if acc > best_acc:
            best_acc = acc
            best_round = round_idx + 1
        elif (round_idx + 1) - best_round >= cfg.early_stop_patience:
            break

    return GbmModel(
        feature_schema=schema,
        base_scores=base,
        trees=trees[:best_round] if best_round < len(trees) else trees,
        learning_rate=cfg.learning_rate,
        train_fingerprint=fingerprint,
        train_loss_curve=tuple(loss_curve),
        best_round=best_round,
    )
