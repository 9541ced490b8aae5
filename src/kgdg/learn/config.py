"""Training configuration and featurization shared by all symbolic learners."""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, ClassVar, Sequence

import numpy as np

from ..core import (
    LESIONS_ONLY_SCHEMA,
    LESIONS_VEIN_SCHEMA,
    DomainTable,
    check_field_types,
    row_sum,
)
from ..errors import CorruptArtifact, DataError, InvalidConfig, SchemaMismatch
from ..io import MODEL_KINDS, ModelArtifact, canonical_json, content_digest

FEATURE_SETS = ("auto", "lesions_only", "lesions_vein")

# The TrainConfig fields each fit_<kind>_arrays reads; a fingerprint hashes these and model_kind, no other
LEARNER_FIELDS = {"gbm": ("n_trees", "max_depth", "learning_rate", "min_leaf", "l2_leaf", "early_stop_patience"),
                  "logistic": (), "forest": ("n_trees", "max_depth", "min_leaf", "seed"), "knn": ("k_neighbors",)}

STD_FLOOR = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters shared by every learner kind. Every field is checked;
    one that ``LEARNER_FIELDS`` does not list for the chosen learner is then
    ignored and hashed nowhere. ``feature_set`` is hashed as its schema.

    ``n_trees=0`` is allowed so a boosting model can be reduced to its
    class-prior base scores.
    """

    model_kind: str = "gbm"
    n_trees: int = 200
    max_depth: int = 3
    learning_rate: float = 0.1
    min_leaf: int = 5
    l2_leaf: float = 1.0
    k_neighbors: int = 5
    seed: int = 0
    early_stop_patience: int = 10
    feature_set: str = "auto"

    def __post_init__(self) -> None:
        check_field_types(self)
        if self.model_kind not in MODEL_KINDS:
            raise InvalidConfig(f"unknown model_kind {self.model_kind!r}")
        if self.n_trees < 0:
            raise InvalidConfig("n_trees must be >= 0")
        for name in ("max_depth", "min_leaf", "k_neighbors", "early_stop_patience"):
            if getattr(self, name) < 1:
                raise InvalidConfig(f"{name} must be >= 1")
        if not (0.0 < self.learning_rate <= 1.0):
            raise InvalidConfig("learning_rate must be in (0,1]")
        if self.l2_leaf < 0:
            raise InvalidConfig("l2_leaf must be >= 0")
        if self.feature_set not in FEATURE_SETS:
            raise InvalidConfig(f"feature_set must be one of {FEATURE_SETS}")
        if self.seed < 0:
            raise InvalidConfig(f"seed must be a nonnegative integer, got {self.seed!r}")

    def as_dict(self) -> dict:
        """``model_kind`` and the fields its learner reads: what a fingerprint hashes."""
        return {name: getattr(self, name) for name in ("model_kind", *LEARNER_FIELDS[self.model_kind])}


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
    try:
        full = table.counts.astype(np.float64)
    except OverflowError:  # an exact count no float holds: float() refuses 2**1024 - 2**970 and up
        image_id = next(i for i, row in zip(table.ids, table.counts.tolist()) if max(row) >= 2**1024 - 2**970)
        raise DataError(f"image {image_id!r}: a lesion count is past the float range (about 1.8e308)") from None
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
    that ``PARAMS`` maps to its loader, arrays as lists.

    ``SHAPES`` gives the shape each loaded param must have, a dimension
    being a number or a name: ``"f"``, the schema's width, or a count that
    every dimension of that name shares. ``"trees"`` is checked per set of
    trees that predict together (a GBM round, a whole forest): their count,
    then the shape of a leaf value."""

    kind: ClassVar[str]
    PARAMS: ClassVar[dict[str, Callable[[Any], Any]]]
    SHAPES: ClassVar[dict[str, tuple[int | str, ...]]]
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
        """Rebuild the model; a missing, ill-typed or ill-shaped param, or
        trees that do not flatten, raise CorruptArtifact."""
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
        model.check_params(artifact.path)
        return model

    def check_params(self, path: str) -> None:
        """Check every param against ``SHAPES``, so that a param a predict
        cannot use raises CorruptArtifact here and not at the first predict.
        A tree learner's trees are flattened once, into the cached ``flats``
        its predicts reuse; every split must name one of the schema's
        features, and each set's leaf values then go through ``check_leaves``."""
        width = len(self.feature_schema)
        dims = {"f": width}
        shapes = [(name, np.shape(getattr(self, name))) for name in self.SHAPES if name != "trees"]
        flats: list = []
        if "trees" in self.SHAPES:
            try:
                flats = self.flats  # type: ignore[attr-defined]
            except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
                raise CorruptArtifact(f"{path}: param 'trees' is malformed: {exc!r}") from exc
            for flat in flats:
                if flat.feature.dtype.kind not in "iu" or not ((flat.feature >= 0) & (flat.feature < width)).all():
                    raise CorruptArtifact(f"{path}: param 'trees' splits on a feature outside the {width} of its schema")
                shapes.append(("trees", (flat.roots.size, *flat.value.shape[1:])))
        for name, shape in shapes:
            dims_of = self.SHAPES[name]
            want = tuple(dims.setdefault(d, n) if isinstance(d, str) else d for d, n in zip(dims_of, shape))
            if len(shape) != len(dims_of) or shape != want:
                expected = tuple(dims.get(d, d) for d in dims_of)
                raise CorruptArtifact(f"{path}: param {name!r} has shape {shape}, expected {expected}")
        for flat in flats:
            self.check_leaves(flat.value[flat.left == np.arange(flat.left.size)], path)  # a leaf is its own child

    def check_leaves(self, leaves: np.ndarray, path: str) -> None:
        """Check the leaf values of one set of trees, one leaf per row;
        any value passes unless a learner says otherwise."""


def standardization(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(mean, floored std) per feature column."""
    mu = x.mean(axis=0)
    sd = np.maximum(x.std(axis=0), STD_FLOOR)
    return mu, sd


def train_fingerprint(cfg: TrainConfig, schema: Sequence[str], *rows: np.ndarray) -> str:
    """Hash of the settings the learner reads, the schema and the arrays of
    the rows it reads: the training x and y, then, for a learner that
    early-stops, the validation x and y."""
    data = [content_digest(a.tobytes()) for a in rows]
    return content_digest(canonical_json({"config": cfg.as_dict(), "schema": list(schema), "data": data}))


def softmax(scores: np.ndarray) -> np.ndarray:
    """Row softmax, bit-identical to ``exp(s - s.max(1)) / exp(...).sum(1)``;
    the row max is a chain of ``np.maximum`` over the columns."""
    cols = scores.T
    top = cols[0]
    for c in cols[1:]:
        top = np.maximum(top, c)
    e = np.exp(scores - top[:, None])
    return e / row_sum(e)[:, None]
