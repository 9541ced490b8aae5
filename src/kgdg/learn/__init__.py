"""Symbolic learners over structured lesion features."""

from __future__ import annotations

from typing import Union, get_args

import numpy as np

from ..errors import DataError
from ..io import ModelArtifact
from .baselines import (
    ForestModel,
    KnnModel,
    LogisticModel,
    fit_forest_arrays,
    fit_knn_arrays,
    fit_logistic_arrays,
)
from .config import (
    TrainConfig,
    feature_matrix,
    resolve_schema,
    softmax,
    standardization,
)
from .gbm import GbmModel, fit_gbm_arrays

Model = Union[GbmModel, LogisticModel, ForestModel, KnnModel]

_MODEL_TYPES = {cls.kind: cls for cls in get_args(Model)}


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
    fit = {"logistic": fit_logistic_arrays, "forest": fit_forest_arrays, "knn": fit_knn_arrays}[cfg.model_kind]
    return fit(x, y, schema, cfg)


def model_from_artifact(artifact: ModelArtifact) -> Model:
    """Rebuild a live model from its persisted form."""
    return _MODEL_TYPES[artifact.model_kind].from_artifact(artifact)


__all__ = [
    "ForestModel",
    "GbmModel",
    "KnnModel",
    "LogisticModel",
    "Model",
    "TrainConfig",
    "feature_matrix",
    "fit_forest_arrays",
    "fit_gbm_arrays",
    "fit_knn_arrays",
    "fit_logistic_arrays",
    "fit_model",
    "model_from_artifact",
    "resolve_schema",
    "softmax",
    "standardization",
]
