"""Reference per-row code for the tests: the feature vector type with the
checks and messages that ``io.read_feature_table`` and
``learn.feature_matrix`` now apply to whole columns, labeled examples of it,
the DomainTable and float matrix built from a list of them, and the clinical
ladder written out as one scalar test per rule, which ``rules.grade_by_rules``
and ``rules.fire_rules`` state as one table."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from kgdg.core import LESIONS_ONLY_SCHEMA, LESIONS_VEIN_SCHEMA, VEIN_FEATURE_NAMES, DomainId, DomainTable, DRGrade
from kgdg.errors import SchemaMismatch


@dataclass(frozen=True)
class RefFeatureVector:
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
    def from_counts(cls, counts: Sequence, vein: Sequence = ()) -> "RefFeatureVector":
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

    def counts(self) -> tuple[int, ...]:
        """The LESIONS_ONLY_SCHEMA values, flags as 0/1: a features row as
        ``io.load_feature_table`` gives it."""
        return tuple(int(getattr(self, name)) for name in LESIONS_ONLY_SCHEMA)

    def schema(self) -> tuple[str, ...]:
        return LESIONS_VEIN_SCHEMA if self.has_vein else LESIONS_ONLY_SCHEMA


@dataclass(frozen=True)
class RefExample:
    """One graded image: id, domain and symbolic features."""

    image_id: str
    domain: DomainId
    grade: DRGrade
    features: RefFeatureVector


def ref_example(i, grade, domain="d", **features) -> RefExample:
    """Example ``i`` of ``domain``, with the given grade and feature fields."""
    return RefExample(f"{domain}-{i}", DomainId(domain), DRGrade(grade), RefFeatureVector(**features))


def ref_feature_matrix(examples: Sequence[RefExample], schema: Sequence[str]) -> np.ndarray:
    """Stack feature vectors into a float matrix following ``schema``."""
    try:
        rows = [ex.features.as_row(schema) for ex in examples]
    except ValueError as exc:
        raise SchemaMismatch(str(exc)) from exc
    return np.asarray(rows, dtype=np.float64)


def ref_domain_table(examples: Sequence[RefExample], domain: str | None = None) -> DomainTable:
    """The DomainTable whose rows are ``examples``."""
    vein = [ex.features.as_row(VEIN_FEATURE_NAMES) for ex in examples if ex.features.has_vein]
    return DomainTable(
        tuple(ex.image_id for ex in examples),
        tuple(ex.domain for ex in examples),
        np.array([int(ex.grade) for ex in examples], dtype=np.int64),
        np.array([ex.features.counts() for ex in examples], dtype=np.int64).reshape(-1, 8),
        np.array(vein, dtype=np.float64) if vein else None,
        domain=None if domain is None else DomainId(domain),
    )


def ref_grade_by_rules(f: RefFeatureVector) -> tuple[str, DRGrade]:
    """The first rule of the clinical ladder that holds, and its grade, with
    the hemorrhage total summed exactly."""
    if f.neovascularization_present:
        return "R1", DRGrade.PDR
    if f.subhyaloid_present:
        return "R2", DRGrade.PDR
    if f.hard_hemorrhage_count + f.soft_hemorrhage_count > 20 and f.hemorrhage_quadrants == 4:
        return "R3", DRGrade.SEVERE
    if f.cotton_wool_count >= 5:
        return "R4", DRGrade.SEVERE
    if f.cotton_wool_count >= 1:
        return "R5", DRGrade.MODERATE
    if f.exudate_count or f.hard_hemorrhage_count or f.soft_hemorrhage_count:
        return "R6", DRGrade.MODERATE
    if f.microaneurysm_count:
        return "R7", DRGrade.MILD
    return "R8", DRGrade.NO_DR
