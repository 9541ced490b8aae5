"""Deterministic clinical grading rules over symbolic lesion features.

The rule set encodes the standard severity ladder: neovascular findings
dominate (proliferative disease), widespread hemorrhages mark severe
NPDR, cotton-wool spots and exudates mark moderate disease, and isolated
microaneurysms mark mild disease. Rules fire in priority order; the
first match wins, so adding findings can never lower the grade.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from .core import (
    LESIONS_ONLY_SCHEMA,
    Detection,
    DetectionTable,
    DRGrade,
    FeatureVector,
    ProbabilityVector,
)
from .errors import InvalidConfig


@dataclass(frozen=True)
class RuleConfig:
    """Thresholds the clinical ladder leaves open; all overridable."""

    cws_severe_threshold: int = 5
    min_score: float = 0.25
    smoothing: float = 0.1

    def __post_init__(self) -> None:
        if self.cws_severe_threshold < 1:
            raise InvalidConfig("cws_severe_threshold must be >= 1")
        if not (0.0 <= self.min_score <= 1.0):
            raise InvalidConfig("min_score must be in [0,1]")
        if not (0.0 <= self.smoothing < 1.0):
            raise InvalidConfig("smoothing must be in [0,1)")


DEFAULT_RULES = RuleConfig()


@dataclass(frozen=True)
class RuleTrace:
    """Grading outcome plus the rule that produced it."""

    fired_rules: tuple[str, ...]
    grade: DRGrade

    def __post_init__(self) -> None:
        if not self.fired_rules:
            raise ValueError("fired_rules must be nonempty")


def detection_counts(table: DetectionTable, min_score: float = DEFAULT_RULES.min_score) -> np.ndarray:
    """The lesion counts of every image of a DetectionTable at once, from
    its detections at or above ``min_score``: an ``(images, 8)`` matrix in
    LESIONS_ONLY_SCHEMA order, rows in ``table.ids`` order. A lesion's code
    is its count (or flag) column."""
    keep = table.score >= min_score
    image, lesion, box = table.image[keep], table.lesion[keep], table.box[keep]
    counts = np.zeros((len(table.ids), len(LESIONS_ONLY_SCHEMA)), dtype=np.int64)
    np.add.at(counts, (image, lesion), 1)
    counts[:, 5:7] = counts[:, 5:7] > 0
    hem = (lesion == 2) | (lesion == 3)  # hard and soft hemorrhages, by box center: an axis goes top or left
    right = box[hem, 0] + box[hem, 2] / 2.0 > 0.5
    bottom = box[hem, 1] + box[hem, 3] / 2.0 > 0.5
    quadrants = np.zeros(len(table.ids), dtype=np.int64)
    np.bitwise_or.at(quadrants, image[hem], 1 << (right + 2 * bottom))
    counts[:, 7] = sum((quadrants >> q) & 1 for q in range(4))
    return counts


def aggregate_detections(dets: Iterable[Detection], min_score: float = DEFAULT_RULES.min_score) -> FeatureVector:
    """Collapse detections at or above ``min_score`` into a FeatureVector.

    Hemorrhage quadrant spread counts hard and soft hemorrhages together;
    vein fields are never produced here (they come from vessel maps, not
    detections).
    """
    if not (0.0 <= min_score <= 1.0):
        raise InvalidConfig(f"min_score={min_score!r} outside [0,1]")
    table = DetectionTable.from_detections({"": list(dets)})
    return FeatureVector.from_counts(detection_counts(table, min_score)[0].tolist())


# The ladder over the LESIONS_ONLY_SCHEMA columns c, as scalars for one
# vector or arrays for a table. Hemorrhages > 20 is tested as
# hard > 20 - soft, which cannot overflow int64.
RULE_LADDER: tuple[tuple[str, DRGrade, Callable[[Sequence, RuleConfig], Any]], ...] = (
    ("R1", DRGrade.PDR, lambda c, cfg: c[6] != 0),
    ("R2", DRGrade.PDR, lambda c, cfg: c[5] != 0),
    ("R3", DRGrade.SEVERE, lambda c, cfg: (c[2] > 20 - c[3]) & (c[7] == 4)),
    ("R4", DRGrade.SEVERE, lambda c, cfg: c[4] >= cfg.cws_severe_threshold),
    ("R5", DRGrade.MODERATE, lambda c, cfg: c[4] >= 1),
    ("R6", DRGrade.MODERATE, lambda c, cfg: (c[1] >= 1) | (c[2] >= 1) | (c[3] >= 1)),
    ("R7", DRGrade.MILD, lambda c, cfg: c[0] >= 1),
    ("R8", DRGrade.NO_DR, lambda c, cfg: True),
)


def grade_by_rules(f: FeatureVector, cfg: RuleConfig = DEFAULT_RULES) -> RuleTrace:
    """Grade a feature vector; the first matching rule decides.

    R1 neovascularization -> PDR            R5 any cotton-wool spot -> Moderate
    R2 subhyaloid hemorrhage -> PDR         R6 exudate or hemorrhage -> Moderate
    R3 >20 hemorrhages in all 4 quadrants   R7 any microaneurysm -> Mild
       -> Severe                            R8 no findings -> No DR
    R4 cotton-wool count at threshold -> Severe
    """
    c = tuple(getattr(f, name) for name in LESIONS_ONLY_SCHEMA)
    name, grade = next((name, grade) for name, grade, holds in RULE_LADDER if holds(c, cfg))
    return RuleTrace((name,), grade)


def fire_rules(counts: np.ndarray, cfg: RuleConfig = DEFAULT_RULES) -> np.ndarray:
    """grade_by_rules over the rows of an ``(n, 8)`` LESIONS_ONLY_SCHEMA
    matrix: each row's index into RULE_LADDER."""
    c = counts.T
    holds = [np.broadcast_to(test(c, cfg), len(counts)) for _, _, test in RULE_LADDER]
    return np.argmax(holds, axis=0)


def rule_grade_as_probability(trace: RuleTrace, smoothing: float = DEFAULT_RULES.smoothing) -> ProbabilityVector:
    """Turn a deterministic rule grade into a distribution so it can join
    confidence fusion: 1-smoothing on the graded class, smoothing/4 on each
    other class."""
    if not (0.0 <= smoothing < 1.0):
        raise InvalidConfig(f"smoothing={smoothing!r} outside [0,1)")
    off = smoothing / 4.0
    probs = tuple(
        1.0 - smoothing if g == int(trace.grade) else off for g in range(5)
    )
    return ProbabilityVector(probs)  # type: ignore[arg-type]


def grade_detections(
    dets: Sequence[Detection], cfg: RuleConfig = DEFAULT_RULES
) -> tuple[FeatureVector, RuleTrace]:
    """Aggregate then grade in one step (per-image pipeline entry point)."""
    features = aggregate_detections(dets, cfg.min_score)
    return features, grade_by_rules(features, cfg)
