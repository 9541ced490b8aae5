"""Shared domain types: grades, lesions, features, probabilities, boxes.

All types are immutable after construction and safe to share between
threads. The grade count is fixed at five (the ICDR staging ladder);
nothing in the package is generic over it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from enum import Enum, IntEnum
from typing import Iterator, Sequence

import numpy as np

from .errors import (
    BoxOutOfBounds,
    NegativeProbability,
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
        best = 0
        for i in range(1, GRADE_COUNT):
            if self.probs[i] > self.probs[best]:
                best = i
        return best

    def max_score(self) -> float:
        return max(self.probs)


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
    for v in vals:
        if not math.isfinite(v):
            raise SumOutOfTolerance(f"non-finite probability {v!r}")
        if v < 0.0:
            raise NegativeProbability(f"negative probability {v!r}")
    total = sum(vals)
    deviation = abs(total - 1.0)
    if deviation <= PROB_SUM_EPS and all(v <= 1.0 for v in vals):
        return ProbabilityVector(tuple(vals))  # type: ignore[arg-type]
    if deviation > PROB_RENORM_TOL:
        raise SumOutOfTolerance(
            f"probabilities sum to {total!r}, deviation {deviation:.3g} exceeds {PROB_RENORM_TOL}"
        )
    if deviation > PROB_SUM_EPS:
        warnings.warn(
            f"probability vector summed to {total!r}; renormalized",
            RenormalizationWarning,
            stacklevel=2,
        )
    return ProbabilityVector(tuple(v / total for v in vals))  # type: ignore[arg-type]


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

    @property
    def center(self) -> tuple[float, float]:
        return (self.x + self.w / 2.0, self.y + self.h / 2.0)

    @property
    def area(self) -> float:
        return self.w * self.h


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
        for name in (
            "microaneurysm_count",
            "exudate_count",
            "hard_hemorrhage_count",
            "soft_hemorrhage_count",
            "cotton_wool_count",
        ):
            v = getattr(self, name)
            if not math.isfinite(v) or int(v) != v or v < 0:
                raise ValueError(f"{name}={v!r} must be a finite nonnegative integer")
        if self.hemorrhage_quadrants not in (0, 1, 2, 3, 4):
            raise ValueError(
                f"hemorrhage_quadrants={self.hemorrhage_quadrants!r} outside 0..4"
            )
        vein = (self.vein_tortuosity, self.vein_caliber_mean, self.vein_branch_angle_mean)
        present = [v is not None for v in vein]
        if any(present) and not all(present):
            raise ValueError("vein fields must be jointly present or jointly absent")
        if all(present):
            for name, v in zip(VEIN_FEATURE_NAMES, vein):
                if not math.isfinite(v):  # type: ignore[arg-type]
                    raise ValueError(f"{name}={v!r} must be finite")
            if self.vein_tortuosity < 0:  # type: ignore[operator]
                raise ValueError(f"vein_tortuosity={self.vein_tortuosity!r} must be >= 0")
            if self.vein_caliber_mean < 0:  # type: ignore[operator]
                raise ValueError(f"vein_caliber_mean={self.vein_caliber_mean!r} must be >= 0")
            if not (0.0 <= self.vein_branch_angle_mean <= 180.0):  # type: ignore[operator]
                raise ValueError(
                    f"vein_branch_angle_mean={self.vein_branch_angle_mean!r} outside [0,180]"
                )

    @property
    def has_vein(self) -> bool:
        return self.vein_tortuosity is not None

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


@dataclass(frozen=True)
class DomainDataset:
    """Labeled examples from one clinical domain, with the deep branch's
    ``(n, 5)`` probability rows in example order (not compared) if loaded."""

    domain: DomainId
    examples: tuple[LabeledExample, ...] = field(default_factory=tuple)
    probs: np.ndarray | None = field(default=None, compare=False)

    def __len__(self) -> int:
        return len(self.examples)

    def grades(self) -> list[int]:
        return [int(ex.grade) for ex in self.examples]

    def image_ids(self) -> list[str]:
        return [ex.image_id for ex in self.examples]


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
