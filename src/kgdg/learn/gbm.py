"""Multiclass gradient boosting with per-grade Newton regression trees.

Scores start at the log grade priors; each round fits
one tree per grade to the gradient/hessian of the multinomial log-loss
and the final distribution is the exponential normalization of the
accumulated scores. Validation accuracy drives early stopping: the fit
keeps the trees up to the round of best validation accuracy, and stops once
that accuracy is 1.0, since no later round can then be kept.
``train_loss_curve`` holds one loss per round trained.

A fit shares one node cache (``tree.NodeCache``) across its grade trees and
rounds. A tree returns each of its rows' leaf values, so the fit predicts
only validation rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any

import numpy as np

from ..core import GRADE_COUNT
from ..errors import SchemaMismatch, SingleClassTrain
from .config import (
    FittedModel,
    TrainConfig,
    feature_matrix,  # noqa: F401  unused here; the benchmark's tracer patches it by this module's name
    float64s,
    softmax,
    train_fingerprint,
)
from .tree import FlatTrees, NodeCache, fit_regression_tree, flatten_trees, predict_tree

PRIOR_EPS = 1e-12


@dataclass
class GbmModel(FittedModel):
    """Fitted boosting ensemble: rounds x grades regression trees."""

    PARAMS = {"base_scores": float64s, "trees": list, "learning_rate": float, "best_round": int}
    SHAPES = {"base_scores": (GRADE_COUNT,), "trees": (GRADE_COUNT,)}  # a round: one scalar-leaf tree per grade

    feature_schema: tuple[str, ...]
    base_scores: np.ndarray
    trees: list[list[dict[str, Any]]]
    learning_rate: float
    train_fingerprint: str
    train_loss_curve: tuple[float, ...] = ()
    best_round: int = 0

    @cached_property
    def flats(self) -> list[FlatTrees]:
        """Each round's grade trees as flat node arrays, built once."""
        return [flatten_trees(round_trees) for round_trees in self.trees]

    def decision_scores(self, x: np.ndarray) -> np.ndarray:
        scores = np.tile(self.base_scores, (x.shape[0], 1))
        for flat in self.flats:
            scores += self.learning_rate * predict_tree(flat, x)
        return scores

    def predict_proba_matrix(self, x: np.ndarray) -> np.ndarray:
        self.check_width(x)
        return softmax(self.decision_scores(x))


def log_priors(y: np.ndarray) -> np.ndarray:
    """Log of the empirical grade frequencies."""
    priors = np.bincount(y, minlength=GRADE_COUNT) / y.size
    return np.log(np.maximum(priors, PRIOR_EPS))


def multinomial_log_loss(probs: np.ndarray, y: np.ndarray) -> float:
    """Mean negative log-likelihood."""
    picked = np.clip(probs[np.arange(y.size), y], PRIOR_EPS, None)
    return float(-np.log(picked).sum() / y.size)


def fit_gbm_arrays(x: np.ndarray, y: np.ndarray, xv: np.ndarray, yv: np.ndarray, schema: tuple[str, ...],
                   cfg: TrainConfig) -> GbmModel:
    """Boost until ``n_trees`` rounds, validation accuracy stalls for
    ``early_stop_patience`` rounds, or validation accuracy is 1.0; the
    returned model keeps the trees up to the best validation round.

    A round is kept only when it raises validation accuracy, and accuracy
    cannot exceed 1.0, so once it is 1.0 (before the first round too, when
    the priors classify every validation row) the kept trees are final and
    no further round is trained. ``train_loss_curve`` holds the rounds that
    were trained."""
    if yv.size == 0:
        raise SchemaMismatch("validation set must be nonempty")
    if np.unique(y).size < 2:
        raise SingleClassTrain("training set contains a single grade")

    base = log_priors(y)
    fingerprint = train_fingerprint(cfg, schema, x, y, xv, yv)

    n = x.shape[0]
    onehot = np.eye(GRADE_COUNT)[y]

    scores = np.tile(base, (n, 1))
    scores_v = np.tile(base, (xv.shape[0], 1))
    trees: list[list[dict[str, Any]]] = []
    loss_curve: list[float] = []

    nodes = NodeCache(x, cfg.max_depth, cfg.min_leaf)  # every grade tree and round grows on it
    best_acc = float(np.mean(softmax(scores_v).argmax(axis=1) == yv))
    best_round = 0
    probs = softmax(scores)
    for round_idx in range(cfg.n_trees):
        if best_acc == 1.0:
            break
        fitted = np.empty((n, GRADE_COUNT))
        round_trees: list[dict[str, Any]] = []
        for c in range(GRADE_COUNT):
            grad = probs[:, c] - onehot[:, c]
            hess = probs[:, c] * (1.0 - probs[:, c])
            tree, fitted[:, c] = fit_regression_tree(nodes, grad, hess, cfg.l2_leaf)
            round_trees.append(tree)
        scores += cfg.learning_rate * fitted  # the fit left each row in a leaf
        scores_v += cfg.learning_rate * predict_tree(flatten_trees(round_trees), xv)
        nodes.prune()
        trees.append(round_trees)
        probs = softmax(scores)  # this round's loss, and the next round's gradients
        loss_curve.append(multinomial_log_loss(probs, y))
        acc = float(np.mean(softmax(scores_v).argmax(axis=1) == yv))
        if acc > best_acc:
            best_acc, best_round = acc, round_idx + 1
        elif (round_idx + 1) - best_round >= cfg.early_stop_patience:
            break

    kept = trees[:best_round] if best_round < len(trees) else trees
    return GbmModel(schema, base, kept, cfg.learning_rate, fingerprint, tuple(loss_curve), best_round)
