"""Shared domain types: grades, lesions, features, probabilities, boxes.

All types are immutable after construction and safe to share between
threads. The grade count is fixed at five (the ICDR staging ladder);
nothing in the package is generic over it.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass
from enum import Enum, IntEnum
from typing import Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import (
    BoxOutOfBounds,
    NegativeProbability,
    SchemaMismatch,
    SumOutOfTolerance,
)

GRADE_COUNT = 5

# Sum deviation up to this is inside the ProbabilityVector invariant.
PROB_SUM_EPS = 1e-6
# Sum deviation up to this gets renormalized (with a warning); beyond it
# the vector is rejected. Absorbs text-format rounding without masking
# real errors.
PROB_RENORM_TOL = 1e-4

BOX_EDGE_EPS = 1e-9


class RenormalizationWarning(UserWarning):
    """A probability vector was silently off-simplex and got rescaled."""


class DRGrade(IntEnum):
    """Diabetic retinopathy severity grade, 0 (none) through 4 (proliferative)."""

    NO_DR = 0
    MILD = 1
    MODERATE = 2
    SEVERE = 3
    PDR = 4

    @property
    def label(self) -> str:
        return _GRADE_LABELS[self.value]


_GRADE_LABELS = ("No DR", "Mild NPDR", "Moderate NPDR", "Severe NPDR", "PDR")


class LesionType(str, Enum):
    """Closed enumeration of detectable lesion kinds."""

    MICROANEURYSM = "microaneurysm"
    HARD_EXUDATE = "hard_exudate"
    HARD_HEMORRHAGE = "hard_hemorrhage"
    SOFT_HEMORRHAGE = "soft_hemorrhage"
    COTTON_WOOL_SPOT = "cotton_wool_spot"
    SUBHYALOID_HEMORRHAGE = "subhyaloid_hemorrhage"
    NEOVASCULARIZATION = "neovascularization"


LESION_TYPES = tuple(LesionType)


class DomainId(str):
    """Case-normalized, nonempty domain name token."""

    def __new__(cls, name: str) -> "DomainId":
        token = str(name).strip().lower()
        if not token:
            raise ValueError("domain name must be nonempty")
        return super().__new__(cls, token)


@dataclass(frozen=True)
class ProbabilityVector:
    """Length-5 confidence vector over DR grades; sums to 1 within 1e-6.

    Construct through :func:`validate_probability` unless the values are
    already known to satisfy the invariant (e.g. a softmax output).
    """

    probs: tuple[float, float, float, float, float]

    def __iter__(self) -> Iterator[float]:
        return iter(self.probs)

    def __getitem__(self, idx: int) -> float:
        return self.probs[idx]

    def argmax(self) -> int:
        """Index of the largest entry; ties break to the lower grade."""
        return self.probs.index(max(self.probs))


def validate_probability(values: Sequence[float]) -> ProbabilityVector:
    """Validate five reals as a grade distribution.

    Accepts exact simplex points unchanged; renormalizes (and warns)
    when the sum is off by at most ``PROB_RENORM_TOL``; rejects anything
    worse. Raises :class:`NegativeProbability` or
    :class:`SumOutOfTolerance`.
    """
    vals = [float(v) for v in values]
    if len(vals) != GRADE_COUNT:
        raise ValueError(f"expected {GRADE_COUNT} probabilities, got {len(vals)}")
    return ProbabilityVector(tuple(validate_probability_rows(np.array([vals])).tolist()[0]))


def validate_probability_rows(p: np.ndarray) -> np.ndarray:
    """validate_probability over ``(n, 5)`` rows, checked as array masks and
    taken in order: each renormalized row warns, the first bad row raises."""
    total = sum(p[:, g] for g in range(GRADE_COUNT))  # left to right, as sum() of one row
    deviation = np.abs(total - 1.0)
    valid = np.isfinite(p).all(axis=1) & (p >= 0.0).all(axis=1) & (deviation <= PROB_RENORM_TOL)
    exact = (deviation <= PROB_SUM_EPS) & (p <= 1.0).all(axis=1)
    bad = len(p) if valid.all() else int(np.argmin(valid))
    for t in total[:bad][~exact[:bad] & (deviation[:bad] > PROB_SUM_EPS)].tolist():
        warnings.warn(f"probability vector summed to {t!r}; renormalized", RenormalizationWarning, stacklevel=2)
    if bad < len(p):
        for v in p[bad].tolist():
            if not math.isfinite(v):
                raise SumOutOfTolerance(f"non-finite probability {v!r}")
            if v < 0.0:
                raise NegativeProbability(f"negative probability {v!r}")
        raise SumOutOfTolerance(
            f"probabilities sum to {total[bad].item()!r}, deviation {deviation[bad]:.3g} exceeds {PROB_RENORM_TOL}"
        )
    return np.where(exact[:, None], p, p / total[:, None])


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned box in normalized image coordinates (top-left origin)."""

    x: float
    y: float
    w: float
    h: float

    def __post_init__(self) -> None:
        for name in ("x", "y"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise BoxOutOfBounds(f"{name}={v!r} outside [0,1]")
        for name in ("w", "h"):
            v = getattr(self, name)
            if not (0.0 < v <= 1.0):
                raise BoxOutOfBounds(f"{name}={v!r} outside (0,1]")
        if self.x + self.w > 1.0 + BOX_EDGE_EPS:
            raise BoxOutOfBounds(f"x+w={self.x + self.w!r} exceeds 1")
        if self.y + self.h > 1.0 + BOX_EDGE_EPS:
            raise BoxOutOfBounds(f"y+h={self.y + self.h!r} exceeds 1")


@dataclass(frozen=True)
class Detection:
    """One localized lesion with its detector confidence."""

    lesion: LesionType
    box: BoundingBox
    score: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.score <= 1.0):
            raise ValueError(f"detection score {self.score!r} outside [0,1]")


# Ordered feature schemas. Booleans are encoded as 0/1 in rows.
LESIONS_ONLY_SCHEMA: tuple[str, ...] = (
    "microaneurysm_count",
    "exudate_count",
    "hard_hemorrhage_count",
    "soft_hemorrhage_count",
    "cotton_wool_count",
    "subhyaloid_present",
    "neovascularization_present",
    "hemorrhage_quadrants",
)

VEIN_FEATURE_NAMES: tuple[str, ...] = (
    "vein_tortuosity",
    "vein_caliber_mean",
    "vein_branch_angle_mean",
)

LESIONS_VEIN_SCHEMA: tuple[str, ...] = LESIONS_ONLY_SCHEMA + VEIN_FEATURE_NAMES


@dataclass(frozen=True)
class FeatureVector:
    """Structured per-image symbolic features: lesion counts, flags, and
    optional vein morphology.

    The three vein fields are jointly present or jointly absent; mixing
    is rejected at construction.
    """

    microaneurysm_count: int = 0
    exudate_count: int = 0
    hard_hemorrhage_count: int = 0
    soft_hemorrhage_count: int = 0
    cotton_wool_count: int = 0
    subhyaloid_present: bool = False
    neovascularization_present: bool = False
    hemorrhage_quadrants: int = 0
    vein_tortuosity: float | None = None
    vein_caliber_mean: float | None = None
    vein_branch_angle_mean: float | None = None

    def __post_init__(self) -> None:
        for name in LESIONS_ONLY_SCHEMA[:5]:
            v = getattr(self, name)
            if not math.isfinite(v) or int(v) != v or v < 0:
                raise ValueError(f"{name}={v!r} must be a finite nonnegative integer")
        if self.hemorrhage_quadrants not in (0, 1, 2, 3, 4):
            raise ValueError(f"hemorrhage_quadrants={self.hemorrhage_quadrants!r} outside 0..4")
        vein = [getattr(self, name) for name in VEIN_FEATURE_NAMES]
        present = [v is not None for v in vein]
        if any(present) and not all(present):
            raise ValueError("vein fields must be jointly present or jointly absent")
        if all(present):
            for name, v in zip(VEIN_FEATURE_NAMES, vein):
                if not math.isfinite(v):
                    raise ValueError(f"{name}={v!r} must be finite")
            for name, v in zip(VEIN_FEATURE_NAMES[:2], vein):
                if v < 0:
                    raise ValueError(f"{name}={v!r} must be >= 0")
            if not (0.0 <= vein[2] <= 180.0):
                raise ValueError(f"vein_branch_angle_mean={vein[2]!r} outside [0,180]")

    @property
    def has_vein(self) -> bool:
        return self.vein_tortuosity is not None

    @classmethod
    def from_counts(cls, counts: Sequence, vein: Sequence = ()) -> "FeatureVector":
        """From a row of LESIONS_ONLY_SCHEMA values (flags as 0/1) and the
        vein fields, if any."""
        return cls(*counts[:5], counts[5] == 1, counts[6] == 1, counts[7], *vein)

    def as_row(self, schema: Sequence[str]) -> tuple[float, ...]:
        """Project onto an ordered schema of feature names."""
        row = []
        for name in schema:
            v = getattr(self, name)
            if v is None:
                raise ValueError(f"feature {name!r} absent from this vector")
            row.append(float(v))
        return tuple(row)

    def schema(self) -> tuple[str, ...]:
        return LESIONS_VEIN_SCHEMA if self.has_vein else LESIONS_ONLY_SCHEMA


@dataclass(frozen=True)
class LabeledExample:
    """One graded image: id, domain and symbolic features."""

    image_id: str
    domain: DomainId
    grade: DRGrade
    features: FeatureVector


@dataclass(frozen=True, eq=False)
class DomainTable:
    """A features table as columns, rows in file order. ``counts`` holds the
    LESIONS_ONLY_SCHEMA columns (flags as 0/1) as int64, or as exact Python
    ints if one overflows int64; ``vein`` the vein columns, or None. Loaded
    from a manifest entry, it has its ``domain`` and deep-branch ``probs``."""

    ids: tuple[str, ...]
    domains: tuple[DomainId, ...]
    y: np.ndarray
    counts: np.ndarray
    vein: np.ndarray | None = None
    domain: DomainId | None = None
    probs: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def schema(self) -> tuple[str, ...]:
        return LESIONS_ONLY_SCHEMA if self.vein is None else LESIONS_VEIN_SCHEMA

    def matrix(self, schema: Sequence[str]) -> np.ndarray:
        """The float feature matrix over ``schema``, as ``feature_matrix``
        builds it from the rows' feature vectors."""
        own = self.schema
        for name in schema:
            if name not in own:
                raise SchemaMismatch(f"feature {name!r} absent from this vector")
        full = self.counts.astype(np.float64)
        if self.vein is not None:
            full = np.hstack((full, self.vein))
        return np.ascontiguousarray(full[:, [own.index(name) for name in schema]])

    def examples(self) -> list[LabeledExample]:
        """The per-row view: one LabeledExample per row."""
        vein = self.vein.tolist() if self.vein is not None else [()] * len(self)
        return [
            LabeledExample(i, d, DRGrade(g), FeatureVector.from_counts(c, v))
            for i, d, g, c, v in zip(self.ids, self.domains, self.y.tolist(), self.counts.tolist(), vein)
        ]


class DetectionTable(NamedTuple):
    """Detection records as parallel arrays, in file order."""

    ids: tuple[str, ...]  # distinct image ids, in order of first appearance
    image: np.ndarray  # (m,) index into ids
    lesion: np.ndarray  # (m,) index into LESION_TYPES
    box: np.ndarray  # (m, 4) x, y, w, h
    score: np.ndarray  # (m,)

    @classmethod
    def from_detections(cls, dets: Mapping[str, Sequence[Detection]]) -> "DetectionTable":
        """Per-image Detection lists as a table; an image without any keeps its id."""
        rows = [(n, LESION_TYPES.index(d.lesion), d.box.x, d.box.y, d.box.w, d.box.h, d.score)
                for n, image_dets in enumerate(dets.values()) for d in image_dets]
        cols = np.array(rows, dtype=np.float64).reshape(-1, 7).T
        return cls(tuple(dets), cols[0].astype(np.int64), cols[1].astype(np.int64), cols[2:6].T.copy(), cols[6].copy())


@dataclass(frozen=True)
class FusionWeights:
    """Blend weights for the deep and knowledge branches."""

    alpha_dl: float
    alpha_kl: float

    def __post_init__(self) -> None:
        if self.alpha_dl < 0 or self.alpha_kl < 0:
            raise ValueError("fusion weights must be nonnegative")
        if self.alpha_dl + self.alpha_kl <= 0:
            raise ValueError("at least one fusion weight must be positive")
        # a subnormal weight has lost precision, and scaling it can round it to 0
        if any(0 < w < sys.float_info.min for w in (self.alpha_dl, self.alpha_kl)):
            raise ValueError(f"a positive fusion weight must be at least {sys.float_info.min!r}")
