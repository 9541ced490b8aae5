"""Multiclass gradient boosting with per-grade Newton regression trees.

Scores start at (optionally class-weighted) log priors; each round fits
one tree per grade to the gradient/hessian of the multinomial log-loss
and the final distribution is the exponential normalization of the
accumulated scores. Validation accuracy drives early stopping.

A fit shares one node cache (``tree.NodeCache``) across its grade trees and
rounds, or across one round's grade trees when it subsamples rows. A tree
returns each of its rows' leaf values, so the fit predicts only validation
rows, and rows outside a subsample.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Any

import numpy as np

from ..core import GRADE_COUNT
from ..errors import SchemaMismatch, SingleClassTrain
from ..io import ModelArtifact
from .config import (
    FittedModel,
    TrainConfig,
    feature_matrix,  # noqa: F401  unused here; the benchmark's tracer patches it by this module's name
    float64s,
    sample_weights,
    softmax,
    train_fingerprint,
)
from .tree import FlatTrees, NodeCache, fit_regression_tree, flatten_trees, predict_tree

PRIOR_EPS = 1e-12


@dataclass
class GbmModel(FittedModel):
    """Fitted boosting ensemble: rounds x grades regression trees."""

    PARAMS = {"base_scores": float64s, "trees": list, "learning_rate": float, "best_round": int}

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

    def flatten(self) -> list[FlatTrees]:
        """Each round's grade trees as flat node arrays."""
        return [flatten_trees(round_trees) for round_trees in self.trees]

    @cached_property
    def flat_rounds(self) -> list[FlatTrees]:
        """``flatten()``, built on first use."""
        return self.flatten()

    def decision_scores(self, x: np.ndarray) -> np.ndarray:
        scores = np.tile(self.base_scores, (x.shape[0], 1))
        for flat in self.flat_rounds:
            scores += self.learning_rate * predict_tree(flat, x)
        return scores

    def predict_proba_matrix(self, x: np.ndarray) -> np.ndarray:
        self.check_width(x)
        return softmax(self.decision_scores(x))

    @classmethod
    def from_artifact(cls, artifact: ModelArtifact) -> "GbmModel":
        p = artifact.params  # an artifact written before best_round was stored keeps every round
        if "best_round" not in p and isinstance(p.get("trees"), list):
            artifact = replace(artifact, params={**p, "best_round": len(p["trees"])})
        return super().from_artifact(artifact)


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


def fit_gbm_arrays(x: np.ndarray, y: np.ndarray, xv: np.ndarray, yv: np.ndarray, schema: tuple[str, ...],
                   cfg: TrainConfig) -> GbmModel:
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
    onehot = np.eye(GRADE_COUNT)[y]

    scores = np.tile(base, (n, 1))
    scores_v = np.tile(base, (xv.shape[0], 1))
    trees: list[list[dict[str, Any]]] = []
    loss_curve: list[float] = []

    # one node cache per row set: the whole fit, or one round's grade trees
    # when the rows are subsampled
    nodes: NodeCache | None = None
    best_acc = float(np.mean(softmax(scores_v).argmax(axis=1) == yv))
    best_round = 0
    for round_idx in range(cfg.n_trees):
        probs = softmax(scores)
        if nodes is None or cfg.subsample < 1.0:
            rows = np.arange(n)
            if cfg.subsample < 1.0:
                rows = np.sort(rng.choice(n, size=max(1, int(round(cfg.subsample * n))), replace=False))
            nodes = NodeCache(x, cfg.max_depth, cfg.min_leaf, rows)
        fitted = np.empty((n, GRADE_COUNT))
        round_trees: list[dict[str, Any]] = []
        for c in range(GRADE_COUNT):
            grad = weights * (probs[:, c] - onehot[:, c])
            hess = weights * probs[:, c] * (1.0 - probs[:, c])
            tree, fitted[:, c] = fit_regression_tree(x, grad, hess, cfg.max_depth, cfg.min_leaf, cfg.l2_leaf, nodes)
            round_trees.append(tree)
        # the fit left each of its rows in a leaf; only rows outside a subsample need a predict
        flat = flatten_trees(round_trees)
        scores += cfg.learning_rate * (fitted if rows.size == n else predict_tree(flat, x))
        scores_v += cfg.learning_rate * predict_tree(flat, xv)
        nodes.prune()
        trees.append(round_trees)
        loss_curve.append(multinomial_log_loss(softmax(scores), y, weights))
        acc = float(np.mean(softmax(scores_v).argmax(axis=1) == yv))
        if acc > best_acc:
            best_acc, best_round = acc, round_idx + 1
        elif (round_idx + 1) - best_round >= cfg.early_stop_patience:
            break

    kept = trees[:best_round] if best_round < len(trees) else trees
    return GbmModel(schema, base, kept, cfg.learning_rate, fingerprint, tuple(loss_curve), best_round)
