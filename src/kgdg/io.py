"""File ingestion and persistence.

Tables are comma-separated text with a mandatory header; detections and
manifests are JSON. Model artifacts are a JSON payload behind a magic
header plus content digests, so round trips are byte-stable and
truncation or tampering is detected at load time.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping, Sequence

import numpy as np

from .core import (
    GRADE_COUNT,
    LESIONS_ONLY_SCHEMA,
    LESIONS_VEIN_SCHEMA,
    BoundingBox,
    Detection,
    DomainDataset,
    DomainId,
    DRGrade,
    FeatureVector,
    LabeledExample,
    LesionType,
    ProbabilityVector,
    validate_probability,
)
from .errors import (
    BoxOutOfBounds,
    CorruptArtifact,
    DataError,
    DuplicateImageId,
    InvalidConfig,
    MissingColumn,
    NonNumericCell,
    SchemaMismatch,
    UnknownImageId,
    UnknownLesionKind,
)

ARTIFACT_MAGIC = "KGDG1"

FEATURE_HEADER_COMMON = ("image_id", "domain", "grade")
LESIONS_ONLY_HEADER = FEATURE_HEADER_COMMON + LESIONS_ONLY_SCHEMA
LESIONS_VEIN_HEADER = FEATURE_HEADER_COMMON + LESIONS_VEIN_SCHEMA
PROBS_HEADER = ("image_id", "p0", "p1", "p2", "p3", "p4")


def canonical_json(obj: Any) -> str:
    """Deterministic JSON used for digests and artifacts."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def content_digest(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def file_digest(path: str | Path) -> str:
    return content_digest(Path(path).read_bytes())


# --- feature tables -----------------------------------------------------------


def _parse_count(raw: str, column: str, row: int, upper: int | None = None) -> int:
    try:
        value = int(raw)
    except ValueError as exc:
        raise NonNumericCell(f"row {row}, column {column!r}: {raw!r} is not an integer") from exc
    if value < 0 or (upper is not None and value > upper):
        bound = f"0..{upper}" if upper is not None else ">= 0"
        raise NonNumericCell(f"row {row}, column {column!r}: {value} outside {bound}")
    return value


def _parse_flag(raw: str, column: str, row: int) -> bool:
    if raw not in ("0", "1"):
        raise NonNumericCell(f"row {row}, column {column!r}: {raw!r} is not 0/1")
    return raw == "1"


def _parse_float(raw: str, column: str, row: int, lo: float, hi: float | None) -> float:
    try:
        value = float(raw)
    except ValueError as exc:
        raise NonNumericCell(f"row {row}, column {column!r}: {raw!r} is not numeric") from exc
    if not math.isfinite(value):
        raise NonNumericCell(f"row {row}, column {column!r}: {raw!r} is not a finite number")
    if value < lo or (hi is not None and value > hi):
        bound = f"[{lo},{hi}]" if hi is not None else f">= {lo}"
        raise NonNumericCell(f"row {row}, column {column!r}: {value} outside {bound}")
    return value


def load_feature_table(path: str | Path) -> list[LabeledExample]:
    """Read a features.csv into labeled examples.

    Exactly two headers are accepted: lesions-only and lesions+vein.
    Vein fields are populated only when the vein columns are present.
    """
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = tuple(h.strip() for h in next(reader))
        except StopIteration:
            raise MissingColumn(f"{path}: empty file") from None
        if header == LESIONS_VEIN_HEADER:
            with_vein = True
        elif header == LESIONS_ONLY_HEADER:
            with_vein = False
        else:
            raise MissingColumn(
                f"{path}: header does not match a known feature schema "
                f"(lesions-only or lesions+vein)"
            )
        examples: list[LabeledExample] = []
        seen: set[str] = set()
        for lineno, cells in enumerate(reader, start=2):
            if not cells:
                continue
            if len(cells) != len(header):
                raise MissingColumn(f"{path}: row {lineno} has {len(cells)} cells, expected {len(header)}")
            image_id = cells[0].strip()
            if not image_id:
                raise NonNumericCell(f"{path}: row {lineno} has an empty image_id")
            if image_id in seen:
                raise DuplicateImageId(f"{path}: image_id {image_id!r} appears more than once")
            seen.add(image_id)
            if not cells[1].strip():
                raise NonNumericCell(f"{path}: row {lineno} has an empty domain")
            domain = DomainId(cells[1])
            grade_val = _parse_count(cells[2].strip(), "grade", lineno, upper=4)
            kwargs: dict[str, Any] = {
                "microaneurysm_count": _parse_count(cells[3].strip(), header[3], lineno),
                "exudate_count": _parse_count(cells[4].strip(), header[4], lineno),
                "hard_hemorrhage_count": _parse_count(cells[5].strip(), header[5], lineno),
                "soft_hemorrhage_count": _parse_count(cells[6].strip(), header[6], lineno),
                "cotton_wool_count": _parse_count(cells[7].strip(), header[7], lineno),
                "subhyaloid_present": _parse_flag(cells[8].strip(), header[8], lineno),
                "neovascularization_present": _parse_flag(cells[9].strip(), header[9], lineno),
                "hemorrhage_quadrants": _parse_count(cells[10].strip(), header[10], lineno, upper=4),
            }
            if with_vein:
                kwargs["vein_tortuosity"] = _parse_float(cells[11].strip(), header[11], lineno, 0.0, None)
                kwargs["vein_caliber_mean"] = _parse_float(cells[12].strip(), header[12], lineno, 0.0, None)
                kwargs["vein_branch_angle_mean"] = _parse_float(cells[13].strip(), header[13], lineno, 0.0, 180.0)
            examples.append(
                LabeledExample(
                    image_id=image_id,
                    domain=domain,
                    grade=DRGrade(grade_val),
                    features=FeatureVector(**kwargs),
                )
            )
    return examples


def save_feature_table(path: str | Path, examples: Sequence[LabeledExample]) -> None:
    """Write examples back out in the canonical column order."""
    with_vein = bool(examples) and examples[0].features.has_vein
    header = LESIONS_VEIN_HEADER if with_vein else LESIONS_ONLY_HEADER
    lines = [",".join(header)]
    for ex in examples:
        f = ex.features
        if f.has_vein != with_vein:
            raise SchemaMismatch("mixed vein/non-vein feature vectors in one table")
        cells = [
            ex.image_id,
            str(ex.domain),
            str(int(ex.grade)),
            str(f.microaneurysm_count),
            str(f.exudate_count),
            str(f.hard_hemorrhage_count),
            str(f.soft_hemorrhage_count),
            str(f.cotton_wool_count),
            "1" if f.subhyaloid_present else "0",
            "1" if f.neovascularization_present else "0",
            str(f.hemorrhage_quadrants),
        ]
        if with_vein:
            cells += [
                f"{f.vein_tortuosity:.6f}",
                f"{f.vein_caliber_mean:.6f}",
                f"{f.vein_branch_angle_mean:.6f}",
            ]
        lines.append(",".join(cells))
    Path(path).write_text("\n".join(lines) + "\n")


# --- probability tables ---------------------------------------------------------


def load_probability_table(path: str | Path) -> dict[str, ProbabilityVector]:
    """Read a probs.csv into an image_id -> ProbabilityVector map."""
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = tuple(h.strip() for h in next(reader))
        except StopIteration:
            raise MissingColumn(f"{path}: empty file") from None
        if header != PROBS_HEADER:
            raise MissingColumn(f"{path}: header must be {','.join(PROBS_HEADER)}")
        table: dict[str, ProbabilityVector] = {}
        for lineno, cells in enumerate(reader, start=2):
            if not cells:
                continue
            if len(cells) != 6:
                raise MissingColumn(f"{path}: row {lineno} has {len(cells)} cells, expected 6")
            image_id = cells[0].strip()
            if image_id in table:
                raise DuplicateImageId(f"{path}: image_id {image_id!r} appears more than once")
            try:
                values = [float(c) for c in cells[1:6]]
            except ValueError as exc:
                raise NonNumericCell(f"{path}: row {lineno} has a non-numeric probability") from exc
            table[image_id] = validate_probability(values)
    return table


def load_prediction_table(path: str | Path) -> dict[str, tuple[int, ProbabilityVector | None]]:
    """Read an ``image_id,grade`` table into image_id -> (grade, probs).

    Other columns are ignored, except ``p0..p4``: when all five are present
    they are read by name as the row's grade distribution.
    """
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = [h.strip() for h in next(reader, [])]
        if not header or header[0] != "image_id" or "grade" not in header:
            raise MissingColumn(f"{path}: prediction table needs image_id,grade[,p0..p4]")
        grade_col = header.index("grade")
        prob_cols = [header.index(c) for c in PROBS_HEADER[1:] if c in header]
        if len(prob_cols) not in (0, GRADE_COUNT):
            raise MissingColumn(f"{path}: probability columns need all of p0..p4")
        table: dict[str, tuple[int, ProbabilityVector | None]] = {}
        for lineno, cells in enumerate(reader, start=2):
            if not cells:
                continue
            if len(cells) != len(header):
                raise MissingColumn(f"{path}: row {lineno} has {len(cells)} cells, expected {len(header)}")
            image_id = cells[0].strip()
            if image_id in table:
                raise DuplicateImageId(f"{path}: image_id {image_id!r} appears more than once")
            grade = _parse_count(cells[grade_col], "grade", lineno, upper=GRADE_COUNT - 1)
            probs = None
            if prob_cols:
                probs = validate_probability(
                    [_parse_float(cells[i], header[i], lineno, -math.inf, None) for i in prob_cols]
                )
            table[image_id] = (grade, probs)
    return table


def save_probability_table(path: str | Path, table: Mapping[str, ProbabilityVector]) -> None:
    """Write rows whose text decimals sum to exactly 1 (last cell absorbs
    the rounding residue)."""
    lines = [",".join(PROBS_HEADER)]
    for image_id in table:
        probs = list(table[image_id])
        head = [f"{p:.8f}" for p in probs[:4]]
        residue = 1.0 - sum(float(c) for c in head)
        lines.append(",".join([image_id] + head + [f"{residue:.8f}"]))
    Path(path).write_text("\n".join(lines) + "\n")


# --- detections ------------------------------------------------------------------


def load_detections(path: str | Path) -> dict[str, list[Detection]]:
    """Read detections.json: a list of {image_id, lesion, x, y, w, h, score}."""
    path = Path(path)
    try:
        records = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(records, list):
        raise DataError(f"{path}: expected a JSON list of detection records")
    out: dict[str, list[Detection]] = {}
    for i, rec in enumerate(records):
        try:
            kind = LesionType(rec["lesion"])
        except ValueError:
            raise UnknownLesionKind(f"{path}: record {i} has unknown lesion {rec.get('lesion')!r}") from None
        except (KeyError, TypeError):
            raise DataError(f"{path}: record {i} is malformed") from None
        try:
            box = BoundingBox(float(rec["x"]), float(rec["y"]), float(rec["w"]), float(rec["h"]))
            det = Detection(kind, box, float(rec["score"]))
        except BoxOutOfBounds:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"{path}: record {i} is malformed: {exc}") from exc
        out.setdefault(str(rec["image_id"]), []).append(det)
    return out


def save_detections(path: str | Path, dets: Mapping[str, Sequence[Detection]]) -> None:
    records = []
    for image_id in dets:
        for d in dets[image_id]:
            records.append(
                {
                    "image_id": image_id,
                    "lesion": d.lesion.value,
                    "x": round(d.box.x, 6),
                    "y": round(d.box.y, 6),
                    "w": round(d.box.w, 6),
                    "h": round(d.box.h, 6),
                    "score": round(d.score, 6),
                }
            )
    Path(path).write_text(json.dumps(records, indent=1) + "\n")


# --- manifests ---------------------------------------------------------------------


@dataclass(frozen=True)
class DomainEntry:
    """Paths for one domain's tables, resolved against the manifest dir."""

    name: DomainId
    features: Path
    probs: Path | None = None
    detections: Path | None = None


@dataclass(frozen=True)
class Manifest:
    domains: tuple[DomainEntry, ...]
    seeds: tuple[int, ...]
    source_digest: str = ""

    def __post_init__(self) -> None:
        if not self.domains:
            raise InvalidConfig("manifest needs at least one domain")
        names = [d.name for d in self.domains]
        if len(set(names)) != len(names):
            raise InvalidConfig("manifest domain names must be unique")


def load_manifest(path: str | Path) -> Manifest:
    path = Path(path)
    raw_bytes = path.read_bytes()
    try:
        raw = json.loads(raw_bytes)
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: not valid JSON: {exc}") from exc
    try:
        entries = []
        for d in raw["domains"]:
            entries.append(
                DomainEntry(
                    name=DomainId(d["name"]),
                    features=(path.parent / d["features"]).resolve(),
                    probs=(path.parent / d["probs"]).resolve() if d.get("probs") else None,
                    detections=(path.parent / d["detections"]).resolve() if d.get("detections") else None,
                )
            )
        seeds = tuple(int(s) for s in raw.get("seeds", []))
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: malformed manifest: {exc}") from exc
    return Manifest(tuple(entries), seeds, source_digest=content_digest(raw_bytes))


def save_manifest(path: str | Path, domains: Sequence[Mapping[str, Any]], seeds: Sequence[int]) -> None:
    payload = {"domains": list(domains), "seeds": list(int(s) for s in seeds)}
    Path(path).write_text(json.dumps(payload, indent=1) + "\n")


def load_domain_dataset(entry: DomainEntry) -> DomainDataset:
    """Load one manifest entry. A probability table joins into the
    dataset's read-only ``(n, 5)`` rows; every image must have a row."""
    examples = load_feature_table(entry.features)
    for ex in examples:
        if ex.domain != entry.name:
            raise DataError(
                f"{entry.features}: row {ex.image_id!r} claims domain {ex.domain!r}, "
                f"manifest says {entry.name!r}"
            )
    probs = None
    if entry.probs is not None:
        table = load_probability_table(entry.probs)
        rows = []
        for ex in examples:
            if ex.image_id not in table:
                raise UnknownImageId(f"probability table has no row for image {ex.image_id!r}")
            rows.append(table[ex.image_id].probs)
        probs = np.asarray(rows, dtype=np.float64)
        probs.setflags(write=False)
    return DomainDataset(entry.name, tuple(examples), probs)


# --- model artifacts ------------------------------------------------------------------

MODEL_KINDS = ("gbm", "logistic", "forest", "knn")


@dataclass(frozen=True)
class ModelArtifact:
    """Serialized trained model plus the schema it expects."""

    model_kind: str
    feature_schema: tuple[str, ...]
    params: dict[str, Any]
    train_fingerprint: str

    def __post_init__(self) -> None:
        if self.model_kind not in MODEL_KINDS:
            raise InvalidConfig(f"unknown model kind {self.model_kind!r}")


def _schema_digest(artifact: ModelArtifact) -> str:
    return content_digest(canonical_json(list(artifact.feature_schema)))


def _body_digest(artifact: ModelArtifact) -> str:
    return content_digest(
        canonical_json(
            {
                "model_kind": artifact.model_kind,
                "params": artifact.params,
                "train_fingerprint": artifact.train_fingerprint,
            }
        )
    )


def save_model(artifact: ModelArtifact, path: str | Path) -> None:
    """Write `KGDG1` + digests + canonical JSON. Byte-stable per artifact."""
    payload = canonical_json(
        {
            "model_kind": artifact.model_kind,
            "feature_schema": list(artifact.feature_schema),
            "params": artifact.params,
            "train_fingerprint": artifact.train_fingerprint,
        }
    )
    header = f"{ARTIFACT_MAGIC}\n{_body_digest(artifact)}\n{_schema_digest(artifact)}\n"
    Path(path).write_text(header + payload + "\n")


def load_model(path: str | Path) -> ModelArtifact:
    """Load and verify an artifact.

    Raises CorruptArtifact when the file is unreadable, truncated, or its
    body digest fails; SchemaMismatch when the schema was edited or does
    not fit the stored model.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise CorruptArtifact(f"{path}: unreadable: {exc}") from exc
    parts = text.split("\n", 3)
    if len(parts) != 4 or parts[0] != ARTIFACT_MAGIC:
        raise CorruptArtifact(f"{path}: missing {ARTIFACT_MAGIC} header")
    body_digest, schema_digest, payload = parts[1], parts[2], parts[3]
    try:
        raw = json.loads(payload)
        artifact = ModelArtifact(
            model_kind=raw["model_kind"],
            feature_schema=tuple(raw["feature_schema"]),
            params=raw["params"],
            train_fingerprint=raw["train_fingerprint"],
        )
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise CorruptArtifact(f"{path}: truncated or malformed payload: {exc}") from exc
    if _schema_digest(artifact) != schema_digest:
        raise SchemaMismatch(f"{path}: feature schema does not match its digest")
    if _body_digest(artifact) != body_digest:
        raise CorruptArtifact(f"{path}: body digest mismatch (file edited?)")
    arity = artifact.params.get("n_features")
    if arity is not None and arity != len(artifact.feature_schema):
        raise SchemaMismatch(
            f"{path}: schema arity {len(artifact.feature_schema)} != model arity {arity}"
        )
    return artifact
