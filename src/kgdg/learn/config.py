"""Training configuration and featurization shared by all symbolic learners."""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from ..core import (
    GRADE_COUNT,
    LESIONS_ONLY_SCHEMA,
    LESIONS_VEIN_SCHEMA,
    DomainTable,
    LabeledExample,
)
from ..errors import InvalidConfig, SchemaMismatch
from ..io import canonical_json, content_digest

FEATURE_SETS = ("auto", "lesions_only", "lesions_vein")

STD_FLOOR = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for every learner kind; unused fields are ignored.

    ``n_trees=0`` is allowed so a boosting model can be reduced to its
    class-prior base scores.
    """

    model_kind: str = "gbm"
    n_trees: int = 200
    max_depth: int = 3
    learning_rate: float = 0.1
    min_leaf: int = 5
    subsample: float = 1.0
    l2_leaf: float = 1.0
    logistic_steps: int = 2000
    logistic_lr: float = 0.1
    k_neighbors: int = 5
    class_weighting: bool = False
    seed: int = 0
    early_stop_patience: int = 10
    bootstrap: bool = True
    max_features: int | None = None
    feature_set: str = "auto"

    def __post_init__(self) -> None:
        if self.model_kind not in ("gbm", "logistic", "forest", "knn"):
            raise InvalidConfig(f"unknown model_kind {self.model_kind!r}")
        if self.n_trees < 0:
            raise InvalidConfig("n_trees must be >= 0")
        for name in ("max_depth", "min_leaf", "logistic_steps", "k_neighbors", "early_stop_patience"):
            if getattr(self, name) < 1:
                raise InvalidConfig(f"{name} must be >= 1")
        if not (0.0 < self.learning_rate <= 1.0):
            raise InvalidConfig("learning_rate must be in (0,1]")
        if not (0.0 < self.subsample <= 1.0):
            raise InvalidConfig("subsample must be in (0,1]")
        if self.l2_leaf < 0:
            raise InvalidConfig("l2_leaf must be >= 0")
        if self.logistic_lr <= 0:
            raise InvalidConfig("logistic_lr must be > 0")
        if self.max_features is not None and self.max_features < 1:
            raise InvalidConfig("max_features must be >= 1 when set")
        if self.feature_set not in FEATURE_SETS:
            raise InvalidConfig(f"feature_set must be one of {FEATURE_SETS}")
        if isinstance(self.seed, bool) or not isinstance(self.seed, int) or self.seed < 0:
            raise InvalidConfig(f"seed must be a nonnegative integer, got {self.seed!r}")

    def as_dict(self) -> dict:
        return asdict(self)


def resolve_schema(cfg: TrainConfig, table: DomainTable) -> tuple[str, ...]:
    """Pick the feature schema: explicit config wins, otherwise follow the table."""
    if cfg.feature_set == "lesions_only":
        return LESIONS_ONLY_SCHEMA
    if cfg.feature_set == "lesions_vein":
        return LESIONS_VEIN_SCHEMA
    if not len(table):
        raise SchemaMismatch("cannot infer a schema from an empty training set")
    return table.schema


def feature_matrix(examples: Sequence[LabeledExample], schema: Sequence[str]) -> np.ndarray:
    """Stack feature vectors into a float matrix following ``schema``."""
    try:
        rows = [ex.features.as_row(schema) for ex in examples]
    except ValueError as exc:
        raise SchemaMismatch(str(exc)) from exc
    return np.asarray(rows, dtype=np.float64)


class FittedModel:
    """What every fitted learner shares: the input width check."""

    feature_schema: tuple[str, ...]

    def check_width(self, x: np.ndarray) -> None:
        if x.shape[1] != len(self.feature_schema):
            raise SchemaMismatch(
                f"model expects {len(self.feature_schema)} features, got {x.shape[1]}"
            )


def class_counts(y: np.ndarray) -> np.ndarray:
    return np.bincount(y, minlength=GRADE_COUNT).astype(np.float64)


def sample_weights(y: np.ndarray, class_weighting: bool) -> np.ndarray:
    """Per-sample weights N/(5*N_c) when class weighting is on, else ones."""
    if not class_weighting:
        return np.ones(y.size, dtype=np.float64)
    counts = class_counts(y)
    weights = np.zeros(GRADE_COUNT, dtype=np.float64)
    present = counts > 0
    weights[present] = y.size / (GRADE_COUNT * counts[present])
    return weights[y]


def standardization(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(mean, floored std) per feature column."""
    mu = x.mean(axis=0)
    sd = np.maximum(x.std(axis=0), STD_FLOOR)
    return mu, sd


def train_fingerprint(cfg: TrainConfig, schema: Sequence[str], x: np.ndarray, y: np.ndarray) -> str:
    """Hash of the training configuration plus the data it saw."""
    data_digest = content_digest(x.tobytes() + y.tobytes())
    return content_digest(
        canonical_json({"config": cfg.as_dict(), "schema": list(schema), "data": data_digest})
    )


def row_sum(a: np.ndarray) -> np.ndarray:
    """Row sums of a few-column array, adding the columns left to right.

    That is the order numpy's ``sum(axis=1)`` and ``sum()`` of five values
    use, so the result is the same bit for bit; a numpy row reduction over
    five columns is several times slower than these column adds.
    """
    cols = a.T
    total = cols[0]
    for c in cols[1:]:
        total = total + c
    return total


def softmax(scores: np.ndarray) -> np.ndarray:
    """Row softmax, bit-identical to ``exp(s - s.max(1)) / exp(...).sum(1)``;
    the row max is a chain of ``np.maximum`` over the columns."""
    cols = scores.T
    top = cols[0]
    for c in cols[1:]:
        top = np.maximum(top, c)
    e = np.exp(scores - top[:, None])
    return e / row_sum(e)[:, None]
