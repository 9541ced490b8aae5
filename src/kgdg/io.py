"""File ingestion and persistence.

Tables are comma-separated text with a mandatory header; detections and
manifests are JSON. Each table and detection file is read straight into
arrays (``read_*``); the ``load_*`` readers are per-row views of those.
Model artifacts are a JSON payload behind a magic header plus content
digests, so round trips are byte-stable and truncation or tampering is
detected at load time.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, replace
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping, NoReturn, Sequence

import numpy as np

from .core import (
    GRADE_COUNT,
    LESIONS_ONLY_SCHEMA,
    LESIONS_VEIN_SCHEMA,
    BOX_EDGE_EPS,
    LESION_TYPES,
    BoundingBox,
    Detection,
    DetectionTable,
    DomainId,
    DomainTable,
    LabeledExample,
    LesionType,
    ProbabilityVector,
    validate_probability,
    validate_probability_rows,
)
from .errors import (
    BoxOutOfBounds,
    CorruptArtifact,
    DataError,
    DuplicateImageId,
    InternalError,
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


# --- tables: parsed a column at a time --------------------------------------------
#
# Each reader parses whole columns and checks them as array masks. When a
# check fails, the per-row checks run from the first row and raise the error
# of the first bad row, with the message a row-at-a-time loader gives.


def _column(kind: Callable[[str], Any], cells: Sequence[str]) -> list:
    """int() or float() of each cell, without the digit grouping ('3_0')
    both would accept."""
    if "_" in "".join(cells):
        raise ValueError("digit grouping")
    return list(map(kind, cells))


def _parse_count(raw: str, column: str, row: int, upper: int | None = None) -> int:
    try:
        value = _column(int, (raw,))[0]
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


def _flags(cells: Sequence[str]) -> list[bool]:
    """A 0/1 column, compared as strings: int() would also take '+1' or '01'."""
    cells = [c.strip() for c in cells]
    if not set(cells) <= {"0", "1"}:
        raise ValueError("not a 0/1 flag")
    return [c == "1" for c in cells]


def _parse_float(raw: str, column: str, row: int, lo: float, hi: float | None) -> float:
    try:
        value = _column(float, (raw,))[0]
    except ValueError as exc:
        raise NonNumericCell(f"row {row}, column {column!r}: {raw!r} is not numeric") from exc
    if not math.isfinite(value):
        raise NonNumericCell(f"row {row}, column {column!r}: {raw!r} is not a finite number")
    if value < lo or (hi is not None and value > hi):
        bound = f"[{lo},{hi}]" if hi is not None else f">= {lo}"
        raise NonNumericCell(f"row {row}, column {column!r}: {value} outside {bound}")
    return value


def _csv(path: Path) -> Iterator[Any]:
    """Yield the stripped header (None for an empty file), then every record,
    so a reader checks the header before the rows are parsed. A record's
    line number is its index + 2."""
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        yield None if header is None else tuple(h.strip() for h in header)
        yield list(reader)


def _id_columns(records: list[list[str]], width: int, empty_ids: bool = False) -> tuple[tuple[str, ...], list]:
    """Stripped image ids and the columns of the nonblank records;
    ValueError if a row has the wrong width or an id is empty or repeated."""
    rows = list(filter(None, records))
    if not set(map(len, rows)) <= {width}:
        raise ValueError("row width")
    cols = list(zip(*rows)) or [()] * width
    ids = tuple(map(str.strip, cols[0]))
    if len(set(ids)) < len(ids) or not (empty_ids or all(ids)):
        raise ValueError("image ids")
    return ids, cols


def _raise_first_bad_row(
    path: Path, width: int, records: list[list[str]], check_cells: Callable, empty_ids: bool = False
) -> NoReturn:
    seen: set[str] = set()
    for lineno, cells in enumerate(records, start=2):
        if not cells:
            continue
        if len(cells) != width:
            raise MissingColumn(f"{path}: row {lineno} has {len(cells)} cells, expected {width}")
        image_id = cells[0].strip()
        if not (image_id or empty_ids):
            raise NonNumericCell(f"{path}: row {lineno} has an empty image_id")
        if image_id in seen:
            raise DuplicateImageId(f"{path}: image_id {image_id!r} appears more than once")
        seen.add(image_id)
        check_cells(cells, lineno)
    raise InternalError(f"{path}: the column checks reject a table the row checks accept")


def read_feature_table(path: str | Path) -> DomainTable:
    """Read a features.csv straight into a DomainTable.

    Exactly two headers are accepted: lesions-only and lesions+vein; the
    vein columns are read only when present.
    """
    path = Path(path)
    parts = _csv(path)
    header = next(parts)
    if header is None:
        raise MissingColumn(f"{path}: empty file")
    if header not in (LESIONS_VEIN_HEADER, LESIONS_ONLY_HEADER):
        raise MissingColumn(f"{path}: header does not match a known feature schema (lesions-only or lesions+vein)")
    records = next(parts)

    def check_cells(cells: list[str], lineno: int) -> None:
        if not cells[1].strip():
            raise NonNumericCell(f"{path}: row {lineno} has an empty domain")
        _parse_count(cells[2].strip(), "grade", lineno, upper=4)
        for i in range(3, 11):
            if i in (8, 9):
                _parse_flag(cells[i].strip(), header[i], lineno)
            else:
                _parse_count(cells[i].strip(), header[i], lineno, upper=4 if i == 10 else None)
        for i in range(11, len(header)):
            _parse_float(cells[i].strip(), header[i], lineno, 0.0, 180.0 if i == 13 else None)

    try:
        ids, cols = _id_columns(records, len(header))
        domains = {raw: DomainId(raw) for raw in set(cols[1])}
        y = np.array(_column(int, cols[2]), dtype=np.int64)
        block = [_column(int, c) for c in cols[3:8]] + [_flags(c) for c in cols[8:10]] + [_column(int, cols[10])]
        try:
            counts = np.array(block, dtype=np.int64).T.copy()
        except OverflowError:  # a count beyond int64 stays an exact Python int
            counts = np.array(block, dtype=object).T.copy()
        vein = np.array([_column(float, c) for c in cols[11:]], dtype=np.float64).T.copy() if cols[11:] else None
        if ((y < 0) | (y > 4)).any() or (counts < 0).any() or (counts[:, 7] > 4).any() or (
            vein is not None and not (np.isfinite(vein).all() and (vein >= 0).all() and (vein[:, 2] <= 180).all())
        ):
            raise ValueError("out of range")
    except (ValueError, OverflowError):
        _raise_first_bad_row(path, len(header), records, check_cells)
    return DomainTable(ids, tuple(map(domains.__getitem__, cols[1])), y, counts, vein)


def load_feature_table(path: str | Path) -> list[LabeledExample]:
    """Read a features.csv into labeled examples: read_feature_table's rows."""
    return read_feature_table(path).examples()


def read_probability_table(path: str | Path) -> tuple[tuple[str, ...], np.ndarray]:
    """Read a probs.csv into its image ids and ``(n, 5)`` rows, each checked
    (and renormalized) as validate_probability does."""
    path = Path(path)
    parts = _csv(path)
    header = next(parts)
    if header is None:
        raise MissingColumn(f"{path}: empty file")
    if header != PROBS_HEADER:
        raise MissingColumn(f"{path}: header must be {','.join(PROBS_HEADER)}")
    records = next(parts)

    def check_cells(cells: list[str], lineno: int) -> None:
        try:
            values = _column(float, cells[1:6])
        except ValueError as exc:
            raise NonNumericCell(f"{path}: row {lineno} has a non-numeric probability") from exc
        validate_probability(values)

    try:
        ids, cols = _id_columns(records, len(PROBS_HEADER))
        rows = np.array([_column(float, c) for c in cols[1:]], dtype=np.float64).T.copy()
    except ValueError:
        _raise_first_bad_row(path, len(PROBS_HEADER), records, check_cells)
    return ids, validate_probability_rows(rows)


def load_probability_table(path: str | Path) -> dict[str, ProbabilityVector]:
    """Read a probs.csv into an image_id -> ProbabilityVector map."""
    ids, rows = read_probability_table(path)
    return {image_id: ProbabilityVector(tuple(row)) for image_id, row in zip(ids, rows.tolist())}


def read_prediction_table(path: str | Path) -> tuple[tuple[str, ...], np.ndarray, np.ndarray | None]:
    """Read an ``image_id,grade`` table into ids, grades and, when all of
    ``p0..p4`` are present, ``(n, 5)`` rows; columns are found by header
    name and any others are ignored."""
    path = Path(path)
    parts = _csv(path)
    header = next(parts)
    if not header or header[0] != "image_id" or "grade" not in header:
        raise MissingColumn(f"{path}: prediction table needs image_id,grade[,p0..p4]")
    grade_col = header.index("grade")
    prob_cols = [header.index(c) for c in PROBS_HEADER[1:] if c in header]
    if len(prob_cols) not in (0, GRADE_COUNT):
        raise MissingColumn(f"{path}: probability columns need all of p0..p4")
    records = next(parts)

    def check_cells(cells: list[str], lineno: int) -> None:
        _parse_count(cells[grade_col], "grade", lineno, upper=GRADE_COUNT - 1)
        if prob_cols:
            validate_probability([_parse_float(cells[i], header[i], lineno, -math.inf, None) for i in prob_cols])

    try:
        ids, cols = _id_columns(records, len(header), empty_ids=True)
        grades = np.array(_column(int, cols[grade_col]), dtype=np.int64)
        probs = np.array([_column(float, cols[i]) for i in prob_cols], dtype=np.float64).T.copy()
        if ((grades < 0) | (grades >= GRADE_COUNT)).any() or not np.isfinite(probs).all():
            raise ValueError("out of range")
    except (ValueError, OverflowError):
        _raise_first_bad_row(path, len(header), records, check_cells, empty_ids=True)
    return ids, grades, validate_probability_rows(probs) if prob_cols else None


def join_rows(ids: Sequence[str], table_ids: Sequence[str], missing: Callable[[str], Exception]) -> list[int]:
    """The row of each of ``ids`` in a table with ``table_ids``; the first id
    it lacks raises ``missing(id)``."""
    at = {image_id: n for n, image_id in enumerate(table_ids)}
    try:
        return [at[image_id] for image_id in ids]
    except KeyError as exc:
        raise missing(exc.args[0]) from None


def save_feature_table(path: str | Path, table: DomainTable) -> None:
    """Write a DomainTable in the canonical column order."""
    header = LESIONS_ONLY_HEADER if table.vein is None else LESIONS_VEIN_HEADER
    vein = [()] * len(table) if table.vein is None else table.vein.tolist()
    lines = [",".join(header)] + [
        ",".join([image_id, domain, str(grade), *map(str, counts), *(f"{v:.6f}" for v in veins)])
        for image_id, domain, grade, counts, veins in zip(table.ids, table.domains, table.y.tolist(),
                                                          table.counts.tolist(), vein)
    ]
    Path(path).write_text("\n".join(lines) + "\n")


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

_LESION_CODES = {kind.value: code for code, kind in enumerate(LesionType)}


def _raise_first_bad_record(path: Path, records: list) -> NoReturn:
    for i, rec in enumerate(records):
        try:
            kind = LesionType(rec["lesion"])
        except ValueError:
            raise UnknownLesionKind(f"{path}: record {i} has unknown lesion {rec.get('lesion')!r}") from None
        except (KeyError, TypeError):
            raise DataError(f"{path}: record {i} is malformed") from None
        try:
            Detection(kind, BoundingBox(*(float(rec[k]) for k in "xywh")), float(rec["score"]))
            if "image_id" not in rec:
                raise KeyError("image_id")
        except BoxOutOfBounds:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"{path}: record {i} is malformed: {exc}") from exc
    raise InternalError(f"{path}: the column checks reject records the record checks accept")


def read_detections(path: str | Path) -> DetectionTable:
    """Read detections.json, a list of {image_id, lesion, x, y, w, h, score},
    straight into a DetectionTable; boxes and scores are checked as masks."""
    path = Path(path)
    try:
        records = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(records, list):
        raise DataError(f"{path}: expected a JSON list of detection records")
    try:
        names, lesions, *fields = ([rec[k] for rec in records] for k in ("image_id", "lesion", "x", "y", "w", "h", "score"))
        lesion = np.array(list(map(_LESION_CODES.__getitem__, lesions)), dtype=np.int64)
        x, y, w, h, score = np.array([list(map(float, c)) for c in fields], dtype=np.float64)
        names = list(map(str, names))
        ids = tuple(dict.fromkeys(names))
        image = np.array(join_rows(names, ids, KeyError), dtype=np.int64)
        edge = 1.0 + BOX_EDGE_EPS
        if not ((0 <= x) & (x <= 1) & (0 <= y) & (y <= 1) & (0 < w) & (w <= 1) & (0 < h) & (h <= 1)
                & (x + w <= edge) & (y + h <= edge) & (0 <= score) & (score <= 1)).all():
            raise ValueError("out of range")
    except (KeyError, TypeError, ValueError, OverflowError):
        _raise_first_bad_record(path, records)
    return DetectionTable(ids, image, lesion, np.column_stack((x, y, w, h)), score)


def load_detections(path: str | Path) -> dict[str, list[Detection]]:
    """Read detections.json into each image's Detection list."""
    table = read_detections(path)
    out: dict[str, list[Detection]] = {image_id: [] for image_id in table.ids}
    for n, code, box, score in zip(table.image.tolist(), table.lesion.tolist(), table.box.tolist(),
                                   table.score.tolist()):
        out[table.ids[n]].append(Detection(LESION_TYPES[code], BoundingBox(*box), score))
    return out


# json.dumps's spelling of the floats float.__repr__ spells otherwise
_JSON_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_DETECTION_RECORD = (
    ' {{\n  "image_id": {},\n  "lesion": {},\n  "x": {},\n  "y": {},\n  "w": {},\n  "h": {},\n  "score": {}\n }}'
)


def save_detections(path: str | Path, table: DetectionTable) -> None:
    """Write a DetectionTable as detections.json records; an image without
    detections writes no record.

    The bytes are those of ``json.dumps(records, indent=1)``, written with a
    fixed template per record: json's indenting encoder is pure Python.
    Strings go through json's own ASCII escaper, floats through
    ``float.__repr__`` as json writes them.
    """
    ids = [encode_basestring_ascii(i) for i in table.ids]
    lesions = [encode_basestring_ascii(t.value) for t in LESION_TYPES]
    columns = [
        [_JSON_NON_FINITE.get(s, s) for s in map(float.__repr__, column)]
        for column in (*table.box.T.tolist(), table.score.tolist())
    ]
    records = [
        _DETECTION_RECORD.format(ids[n], lesions[code], *cells)
        for n, code, *cells in zip(table.image.tolist(), table.lesion.tolist(), *columns)
    ]
    Path(path).write_text("[\n" + ",\n".join(records) + "\n]\n" if records else "[]\n")


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


def load_domain_dataset(entry: DomainEntry) -> DomainTable:
    """Load one manifest entry as a DomainTable. A probability table joins
    into its read-only ``(n, 5)`` rows; every image must have a row."""
    table = read_feature_table(entry.features)
    for image_id, domain in zip(table.ids, table.domains):
        if domain != entry.name:
            raise DataError(
                f"{entry.features}: row {image_id!r} claims domain {domain!r}, manifest says {entry.name!r}"
            )
    if entry.probs is None:
        return replace(table, domain=entry.name)
    ids, rows = read_probability_table(entry.probs)
    probs = rows[join_rows(table.ids, ids, lambda i: UnknownImageId(f"probability table has no row for image {i!r}"))]
    probs.setflags(write=False)
    return replace(table, domain=entry.name, probs=probs)


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
