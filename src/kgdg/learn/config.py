"""Training configuration and featurization shared by all symbolic learners."""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import partial
from typing import Any, Callable, ClassVar, Sequence

import numpy as np

from ..core import (
    GRADE_COUNT,
    LESIONS_ONLY_SCHEMA,
    LESIONS_VEIN_SCHEMA,
    DomainTable,
    check_field_types,
)
from ..errors import CorruptArtifact, InvalidConfig, SchemaMismatch
from ..io import MODEL_KINDS, ModelArtifact, canonical_json, content_digest

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
        check_field_types(self)
        if self.model_kind not in MODEL_KINDS:
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
        if self.seed < 0:
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


def feature_matrix(table: DomainTable, schema: Sequence[str]) -> np.ndarray:
    """The table's float feature matrix over ``schema``, columns in its order."""
    own = table.schema
    for name in schema:
        if name not in own:
            raise SchemaMismatch(f"feature {name!r} absent from this vector")
    full = table.counts.astype(np.float64)
    if table.vein is not None:
        full = np.hstack((full, table.vein))
    return np.ascontiguousarray(full[:, [own.index(name) for name in schema]])


# loaders of array params; list, int and float load the other artifact params
float64s = partial(np.asarray, dtype=np.float64)
int64s = partial(np.asarray, dtype=np.int64)


class FittedModel:
    """What every fitted learner shares: the input width check and the
    artifact codec. A learner's ``kind`` is its class name less ``Model``,
    lower-cased; its artifact ``params`` are ``n_features``, then each field
    that ``PARAMS`` maps to its loader, arrays as lists."""

    kind: ClassVar[str]
    PARAMS: ClassVar[dict[str, Callable[[Any], Any]]]
    feature_schema: tuple[str, ...]
    train_fingerprint: str

    def __init_subclass__(cls) -> None:
        cls.kind = cls.__name__.removesuffix("Model").lower()

    def check_width(self, x: np.ndarray) -> None:
        if x.shape[1] != len(self.feature_schema):
            raise SchemaMismatch(
                f"model expects {len(self.feature_schema)} features, got {x.shape[1]}"
            )

    def to_artifact(self) -> ModelArtifact:
        params: dict[str, Any] = {"n_features": len(self.feature_schema)}
        for name in self.PARAMS:
            value = getattr(self, name)
            params[name] = value.tolist() if isinstance(value, np.ndarray) else value
        return ModelArtifact(self.kind, self.feature_schema, params, self.train_fingerprint)

    @classmethod
    def from_artifact(cls, artifact: ModelArtifact) -> "FittedModel":
        """Rebuild the model; a missing or ill-typed param, or trees that do
        not flatten, raise CorruptArtifact."""
        fields = {}
        for name, load in cls.PARAMS.items():
            if name not in artifact.params:
                raise CorruptArtifact(f"{artifact.path}: {cls.kind} artifact has no param {name!r}")
            try:
                fields[name] = load(artifact.params[name])
            except (TypeError, ValueError, OverflowError) as exc:
                raise CorruptArtifact(f"{artifact.path}: param {name!r} is ill-typed: {exc}") from exc
        model = cls(feature_schema=tuple(artifact.feature_schema),
                    train_fingerprint=artifact.train_fingerprint, **fields)
        if "trees" in cls.PARAMS:
            model.check_trees(artifact.path)
        return model

    def check_trees(self, path: str) -> None:
        """Flatten the trees of a loaded tree learner, so that malformed
        trees raise CorruptArtifact here and not at the first predict; every
        split must name one of the schema's features."""
        try:
            flats = self.flatten()  # type: ignore[attr-defined]
        except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
            raise CorruptArtifact(f"{path}: param 'trees' is malformed: {exc!r}") from exc
        width = len(self.feature_schema)
        for flat in flats:
            if flat.feature.dtype.kind not in "iu" or not ((flat.feature >= 0) & (flat.feature < width)).all():
                raise CorruptArtifact(f"{path}: param 'trees' splits on a feature outside the {width} of its schema")


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
