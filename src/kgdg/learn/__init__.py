"""Symbolic learners over structured lesion features."""

from __future__ import annotations

from typing import Union

import numpy as np

from ..errors import DataError, InvalidConfig
from ..io import ModelArtifact
from .baselines import (
    CrossValidationSummary,
    ForestModel,
    KnnModel,
    LogisticModel,
    cross_validate,
    fit_forest_arrays,
    fit_knn_arrays,
    fit_logistic_arrays,
    logistic_loss_and_grad,
)
from .config import (
    TrainConfig,
    feature_matrix,
    resolve_schema,
    sample_weights,
    softmax,
    standardization,
)
from .gbm import GbmModel, fit_gbm_arrays, multinomial_log_loss, weighted_log_priors

Model = Union[GbmModel, LogisticModel, ForestModel, KnnModel]

_MODEL_TYPES = {
    "gbm": GbmModel,
    "logistic": LogisticModel,
    "forest": ForestModel,
    "knn": KnnModel,
}


def fit_model(
    x: np.ndarray,
    y: np.ndarray,
    x_valid: np.ndarray,
    y_valid: np.ndarray,
    schema: tuple[str, ...],
    cfg: TrainConfig,
) -> Model:
    """Train whichever learner the config names on a feature matrix whose
    columns follow ``schema``; only boosting reads the validation rows,
    for early stopping."""
    if len(x) == 0:
        raise DataError("cannot train on an empty training set")
    if cfg.model_kind == "gbm":
        return fit_gbm_arrays(x, y, x_valid, y_valid, schema, cfg)
    if cfg.model_kind == "logistic":
        return fit_logistic_arrays(x, y, schema, cfg)
    if cfg.model_kind == "forest":
        return fit_forest_arrays(x, y, schema, cfg)
    if cfg.model_kind == "knn":
        return fit_knn_arrays(x, y, schema, cfg)
    raise InvalidConfig(f"unknown model_kind {cfg.model_kind!r}")


def model_from_artifact(artifact: ModelArtifact) -> Model:
    """Rebuild a live model from its persisted form."""
    return _MODEL_TYPES[artifact.model_kind].from_artifact(artifact)


__all__ = [
    "CrossValidationSummary",
    "ForestModel",
    "GbmModel",
    "KnnModel",
    "LogisticModel",
    "Model",
    "TrainConfig",
    "cross_validate",
    "feature_matrix",
    "fit_forest_arrays",
    "fit_gbm_arrays",
    "fit_knn_arrays",
    "fit_logistic_arrays",
    "fit_model",
    "logistic_loss_and_grad",
    "model_from_artifact",
    "multinomial_log_loss",
    "resolve_schema",
    "sample_weights",
    "softmax",
    "standardization",
    "weighted_log_priors",
]
