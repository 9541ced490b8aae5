"""Shared domain types: grades, lesions, features, probabilities, detections.

All types are immutable after construction and safe to share between
threads. The grade count is fixed at five (the ICDR staging ladder);
nothing in the package is generic over it.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass, fields
from enum import Enum, IntEnum
from typing import NamedTuple

import numpy as np

from .errors import (
    InvalidConfig,
    NegativeProbability,
    SumOutOfTolerance,
)

GRADE_COUNT = 5

# A probability row whose sum deviates up to this is on the simplex as it is.
PROB_SUM_EPS = 1e-6
# Sum deviation up to this gets renormalized (with a warning); beyond it
# the vector is rejected. Absorbs text-format rounding without masking
# real errors.
PROB_RENORM_TOL = 1e-4

# A detection box may end past the right or bottom image edge by this much.
BOX_EDGE_EPS = 1e-9


# What a config field's annotation asks of a value read from JSON.
_JSON_TYPES = {
    "int": ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    "bool": ("true or false", lambda v: isinstance(v, bool)),
    "float": ("a finite number",
              lambda v: isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)),
    "str": ("a string", lambda v: isinstance(v, str)),
    "tuple[str, ...]": ("a list of strings", lambda v: isinstance(v, tuple) and all(isinstance(s, str) for s in v)),
}


def check_field_types(config: object) -> None:
    """Raise InvalidConfig on the first field of a config dataclass whose
    value is not of its annotated JSON type: an int is no bool or float, a
    bool is true or false, a float is finite. Fields of other types are
    left to their class."""
    for f in fields(config):  # type: ignore[arg-type]
        kind, _, optional = str(f.type).partition(" | ")
        value = getattr(config, f.name)
        if kind in _JSON_TYPES and not (optional == "None" and value is None):
            expected, holds = _JSON_TYPES[kind]
            if not holds(value):
                raise InvalidConfig(f"{f.name} must be {expected}, got {value!r}")


def checked_unit(name: str, value: float) -> float:
    """``value`` if it lies in [0,1]; anything else, NaN included, raises
    InvalidConfig naming the setting."""
    if not (0.0 <= value <= 1.0):
        raise InvalidConfig(f"{name}={value!r} outside [0,1]")
    return value


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


def validate_probability_rows(p: np.ndarray) -> np.ndarray:
    """Validate ``(n, 5)`` rows as grade distributions, as array masks taken
    in order: a row on the simplex is kept, one whose sum is off by at most
    ``PROB_RENORM_TOL`` is renormalized with a warning, and the first worse
    row raises :class:`NegativeProbability` or :class:`SumOutOfTolerance`."""
    total = row_sum(p)
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


class LabeledExample(NamedTuple):
    """One graded image: id, domain, grade and its LESIONS_ONLY_SCHEMA
    values (flags as 0/1) as a tuple of ints."""

    image_id: str
    domain: DomainId
    grade: int
    features: tuple[int, ...]


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


class DetectionTable(NamedTuple):
    """Detection records as parallel arrays, in file order. A box is
    axis-aligned in normalized image coordinates (top-left origin): as
    read_detections checks, x and y lie in [0,1], w and h in (0,1], x+w and
    y+h are at most 1 + BOX_EDGE_EPS, and a score lies in [0,1]."""

    ids: tuple[str, ...]  # distinct image ids, in order of first appearance
    image: np.ndarray  # (m,) index into ids
    lesion: np.ndarray  # (m,) index into LESION_TYPES
    box: np.ndarray  # (m, 4) x, y, w, h
    score: np.ndarray  # (m,)


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
        # a finite sum bounds every blend cell, as the rows lie in [0, 1]
        if not math.isfinite(self.alpha_dl + self.alpha_kl):
            raise ValueError(f"fusion weights must have a finite sum, got {self.alpha_dl!r} + {self.alpha_kl!r}")
        # a subnormal weight has lost precision, and scaling it can round it to 0
        if any(0 < w < sys.float_info.min for w in (self.alpha_dl, self.alpha_kl)):
            raise ValueError(f"a positive fusion weight must be at least {sys.float_info.min!r}")
