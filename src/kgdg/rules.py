"""Deterministic clinical grading rules over symbolic lesion features.

The rule set encodes the standard severity ladder: neovascular findings
dominate (proliferative disease), widespread hemorrhages mark severe
NPDR, cotton-wool spots and exudates mark moderate disease, and isolated
microaneurysms mark mild disease. Rules fire in priority order; the
first match wins, so adding findings can never lower the grade. Every
threshold of the ladder is fixed; the one setting is ``min_score``, the
detection score below which ``aggregate_detections`` drops a finding.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

import numpy as np

from .core import LESIONS_ONLY_SCHEMA, DetectionTable, DRGrade, checked_unit
from .errors import InvalidConfig

MIN_SCORE = 0.25  # the default detection score cut of `grade --detections`


def aggregate_detections(table: DetectionTable, min_score: float = MIN_SCORE) -> np.ndarray:
    """The lesion counts of every image of a DetectionTable, from its
    detections at or above ``min_score``: an ``(images, 8)`` matrix in
    LESIONS_ONLY_SCHEMA order, rows in ``table.ids`` order. A lesion's code
    is its count (or flag) column; the quadrant spread counts hard and soft
    hemorrhages together. Vein fields come from vessel maps, never from here.
    """
    keep = table.score >= checked_unit("min_score", min_score)
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


# The ladder over the LESIONS_ONLY_SCHEMA columns c, as scalars for one
# row or arrays for a table. Hemorrhages > 20 is tested as
# hard > 20 - soft, which cannot overflow int64.
RULE_LADDER: tuple[tuple[str, DRGrade, Callable[[Sequence], Any]], ...] = (
    ("R1", DRGrade.PDR, lambda c: c[6] != 0),
    ("R2", DRGrade.PDR, lambda c: c[5] != 0),
    ("R3", DRGrade.SEVERE, lambda c: (c[2] > 20 - c[3]) & (c[7] == 4)),
    ("R4", DRGrade.SEVERE, lambda c: c[4] >= 5),
    ("R5", DRGrade.MODERATE, lambda c: c[4] >= 1),
    ("R6", DRGrade.MODERATE, lambda c: (c[1] >= 1) | (c[2] >= 1) | (c[3] >= 1)),
    ("R7", DRGrade.MILD, lambda c: c[0] >= 1),
    ("R8", DRGrade.NO_DR, lambda c: True),
)


def grade_by_rules(row: Sequence) -> DRGrade:
    """Grade one row of LESIONS_ONLY_SCHEMA values; the first matching rule decides.

    R1 neovascularization -> PDR            R5 any cotton-wool spot -> Moderate
    R2 subhyaloid hemorrhage -> PDR         R6 exudate or hemorrhage -> Moderate
    R3 >20 hemorrhages in all 4 quadrants   R7 any microaneurysm -> Mild
       -> Severe                            R8 no findings -> No DR
    R4 five or more cotton-wool spots -> Severe
    """
    return next(grade for _, grade, holds in RULE_LADDER if holds(row))


def fire_rules(counts: np.ndarray) -> np.ndarray:
    """grade_by_rules over the rows of an ``(n, 8)`` LESIONS_ONLY_SCHEMA
    matrix: each row's index into RULE_LADDER."""
    c = counts.T
    holds = [np.broadcast_to(test(c), len(counts)) for _, _, test in RULE_LADDER]
    return np.argmax(holds, axis=0)


def rule_grade_as_probability(grade: int, smoothing: float = 0.1) -> tuple[float, ...]:
    """Turn a deterministic rule grade into a distribution so it can join
    confidence fusion: 1-smoothing on the graded class, smoothing/4 on each
    other class."""
    if not (0.0 <= smoothing < 1.0):
        raise InvalidConfig(f"smoothing={smoothing!r} outside [0,1)")
    off = smoothing / 4.0
    return tuple(1.0 - smoothing if g == grade else off for g in range(5))


def grade_detections(table: DetectionTable, min_score: float = MIN_SCORE) -> np.ndarray:
    """Aggregate then grade every image of a DetectionTable: each image's
    index into RULE_LADDER, rows in ``table.ids`` order."""
    return fire_rules(aggregate_detections(table, min_score))
