"""Reference detection code for the tests: per-record box and detection
types with the checks and messages ``io.read_detections`` applies as record
masks, a DetectionTable built from per-image lists of them, and the
per-image lesion count loop that ``rules.aggregate_detections`` replaced."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from kgdg.core import BOX_EDGE_EPS, LESION_TYPES, LESIONS_ONLY_SCHEMA, DetectionTable, LesionType
from kgdg.errors import BoxOutOfBounds


@dataclass(frozen=True)
class RefBox:
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
class RefDetection:
    """One localized lesion with its detector confidence."""

    lesion: LesionType
    box: RefBox
    score: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.score <= 1.0):
            raise ValueError(f"detection score {self.score!r} outside [0,1]")


def ref_table(dets: Mapping[str, Sequence[RefDetection]]) -> DetectionTable:
    """Per-image detection lists as a DetectionTable; an image without any keeps its id."""
    rows = [(n, LESION_TYPES.index(d.lesion), d.box.x, d.box.y, d.box.w, d.box.h, d.score)
            for n, image_dets in enumerate(dets.values()) for d in image_dets]
    cols = np.array(rows, dtype=np.float64).reshape(-1, 7).T
    return DetectionTable(tuple(dets), cols[0].astype(np.int64), cols[1].astype(np.int64), cols[2:6].T.copy(),
                          cols[6].copy())


def ref_detection_lists(table: DetectionTable) -> dict[str, list[RefDetection]]:
    """Each image's detections of a DetectionTable as RefDetections."""
    out: dict[str, list[RefDetection]] = {image_id: [] for image_id in table.ids}
    for n, code, box, score in zip(table.image.tolist(), table.lesion.tolist(), table.box.tolist(),
                                   table.score.tolist()):
        out[table.ids[n]].append(RefDetection(LESION_TYPES[code], RefBox(*box), score))
    return out


def ref_aggregate(dets: Sequence[RefDetection], min_score: float) -> dict[str, int]:
    """One image's LESIONS_ONLY_SCHEMA values from its detections at or above
    ``min_score``: a count per countable lesion, the two flags, and the
    number of quadrants a hard or soft hemorrhage's center falls in (a
    center on an axis goes top or left)."""
    kept = [d for d in dets if d.score >= min_score]
    counts = [sum(d.lesion is kind for d in kept) for kind in LESION_TYPES]
    quadrants = {(d.box.x + d.box.w / 2.0 > 0.5, d.box.y + d.box.h / 2.0 > 0.5) for d in kept
                 if d.lesion in (LesionType.HARD_HEMORRHAGE, LesionType.SOFT_HEMORRHAGE)}
    values = counts[:5] + [int(counts[5] > 0), int(counts[6] > 0), len(quadrants)]
    return dict(zip(LESIONS_ONLY_SCHEMA, values))
