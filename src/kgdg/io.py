"""File ingestion and persistence.

Every file is UTF-8 text. Tables are comma-separated with a mandatory
header; detections and manifests are JSON. Each table and detection file is
read straight into arrays (``read_*``), each check stated once as a row or
record mask; the ``load_*`` per-row views of those arrays remain only because
the benchmark patches them. Model artifacts are a JSON payload behind a magic
header plus content digests, so round trips are byte-stable and truncation
or tampering is detected at load time.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import re
from dataclasses import dataclass, replace
from itertools import chain
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping, Sequence

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
    validate_probability_rows,
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


# --- tables: parsed a column at a time --------------------------------------------
#
# A reader states each check once, as a row mask paired with its error, in
# the order a row is checked: width, empty id, unwritable id, repeated id,
# then each cell in column order. A check looks only at the rows before the
# first row rejected so far, so the error raised is the first bad row's first
# failing check. A mask is built only when the check's aggregate fails.


def _read_text(path: Path, newline: str | None = None, error: type[DataError] = DataError) -> str:
    """The file as UTF-8 text, newlines LF unless ``newline`` is ''; other bytes raise ``error`` naming it."""
    try:
        text = path.read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text: {exc}") from None
    return text if newline == "" or "\r" not in text else text.replace("\r\n", "\n").replace("\r", "\n")


def _csv(path: Path) -> Iterator[Any]:
    """Yield the stripped header (None for an empty file), then every record
    (messages number it index + 2), so a reader checks the header first."""
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            yield None if header is None else tuple(h.strip() for h in header)
            yield list(reader)
        except csv.Error as exc:  # a cell over csv.field_size_limit()
            raise DataError(f"{path}: line {reader.line_num}: {exc}") from None
        except UnicodeDecodeError:  # its offset counts from the stream's last read: name the file's byte
            _read_text(path)
            raise


def _is_number(kind: Callable[[str], Any], cell: str) -> bool:
    """Whether int() or float() takes ``cell``, which may not group digits ('3_0')."""
    try:
        kind(cell)
    except ValueError:
        return False
    return "_" not in cell


_SURROGATE = re.compile("[\ud800-\udfff]")
_UNWRITABLE_ID_MESSAGE = "holds a comma, quote, line break or lone surrogate"


def _unwritable_id(text: str) -> bool:
    """Whether ``text``, one image id or several joined, holds a character
    that no writer can put in a CSV cell unquoted (comma, quote, CR, LF) or
    encode as UTF-8 (a lone surrogate)."""
    if any(c in text for c in ',"\r\n'):
        return True
    return not text.isascii() and _SURROGATE.search(text) is not None


class _FirstBad:
    """``bad``, the first row a check has rejected so far, with its ``error``."""

    def __init__(self, rows: int) -> None:
        self.bad, self.error = rows, None

    def reject(self, mask: Sequence, error: Callable[[int], DataError]) -> None:
        """Make the first row before ``bad`` that ``mask`` flags the bad row."""
        hits = np.flatnonzero(mask[: self.bad])
        if hits.size:
            self.bad = int(hits[0])
            self.error = error(self.bad)

    def kept(self, items: list) -> list:
        """The ``items`` before ``bad``, not copied while none is rejected."""
        return items if len(items) == self.bad else items[: self.bad]


class _Rows(_FirstBad):
    """A table's nonblank records, checked for width and ids on construction;
    ``cols`` are the columns of the rows before ``bad``."""

    def __init__(self, path: Path, header: tuple, records: list, empty_ids: bool = False, strip: bool = False):
        self.header, self.records, self.strip = header, records, strip
        rows = list(filter(None, records))
        super().__init__(len(rows))
        if not set(map(len, rows)) <= {len(header)}:
            self.reject([len(r) != len(header) for r in rows], lambda n: MissingColumn(
                f"{path}: row {self.line(n)} has {len(rows[n])} cells, expected {len(header)}"))
        self.cols = list(zip(*rows[: self.bad])) or [()] * len(header)
        self.ids = ids = tuple(map(str.strip, self.cols[0]))
        if not (empty_ids or all(ids)):
            self.reject([not i for i in ids],
                        lambda n: NonNumericCell(f"{path}: row {self.line(n)} has an empty image_id"))
        if _unwritable_id("".join(ids)):
            self.reject(list(map(_unwritable_id, ids)), lambda n: DataError(
                f"{path}: row {self.line(n)} has image_id {ids[n]!r}, which {_UNWRITABLE_ID_MESSAGE}"))
        if len(set(ids)) < len(ids):
            first: dict[str, int] = {}
            self.reject([first.setdefault(i, n) != n for n, i in enumerate(ids)],
                        lambda n: DuplicateImageId(f"{path}: image_id {ids[n]!r} appears more than once"))

    def line(self, n: int) -> int:
        """The file line of nonblank row n."""
        return [i for i, cells in enumerate(self.records, start=2) if cells][n]

    def _cell(self, i: int, problem: Callable[[str, int], str]) -> Callable[[int], DataError]:
        """The error of column i's cell in row n, ``problem(cell, n)``; the cell is stripped if ``strip``."""
        def error(n: int) -> DataError:
            cell = self.cols[i][n].strip() if self.strip else self.cols[i][n]
            return NonNumericCell(f"row {self.line(n)}, column {self.header[i]!r}: {problem(cell, n)}")
        return error

    def parse(self, i: int, kind: Callable[[str], Any], error: Callable[[int], DataError]) -> tuple:
        """int() or float() (``kind``) of column i; a cell _is_number refuses rejects its row."""
        cells = self.cols[i][: self.bad]
        if "_" not in "".join(cells):
            try:
                return tuple(map(kind, cells))
            except ValueError:
                pass
        self.reject([not _is_number(kind, c) for c in cells], error)
        return tuple(map(kind, cells[: self.bad]))

    def integers(self, i: int, upper: float = math.inf) -> np.ndarray:
        """Column i as integers in 0..``upper``: int64, or exact Python ints past int64."""
        values = self.parse(i, int, self._cell(i, lambda c, n: f"{c!r} is not an integer"))
        try:
            column = np.array(values, dtype=np.int64)
        except OverflowError:
            column = np.array(values, dtype=object)
        if column.size and (column.min() < 0 or column.max() > upper):
            bound = f"0..{upper}" if upper < math.inf else ">= 0"
            self.reject((column < 0) | (column > upper), self._cell(i, lambda c, n: f"{values[n]} outside {bound}"))
        return column

    def flags(self, i: int) -> np.ndarray:
        """Column i as 0/1 flags, compared as strings: int() takes '+1' and '01'."""
        cells = list(map(str.strip, self.cols[i][: self.bad]))
        if not set(cells) <= {"0", "1"}:
            self.reject([c not in ("0", "1") for c in cells], self._cell(i, lambda c, n: f"{c!r} is not 0/1"))
        # the rows before bad hold one character each, '0' or '1': one byte per row
        return np.frombuffer("".join(cells[: self.bad]).encode(), dtype=np.uint8) == ord("1")

    def floats(self, i: int, lo: float = -math.inf, hi: float = math.inf) -> np.ndarray:
        """Column i as finite floats in [``lo``, ``hi``]."""
        values = np.array(self.parse(i, float, self._cell(i, lambda c, n: f"{c!r} is not numeric")), dtype=np.float64)
        if not np.isfinite(values).all():
            self.reject(~np.isfinite(values), self._cell(i, lambda c, n: f"{c!r} is not a finite number"))
        outside = (values < lo) | (values > hi)
        if outside.any():
            bound = f"[{lo},{hi}]" if hi < math.inf else f">= {lo}"
            self.reject(outside, self._cell(i, lambda c, n: f"{values[n].item()} outside {bound}"))
        return values


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
    rows = _Rows(path, header, next(parts), strip=True)
    names = set(rows.cols[1][: rows.bad])
    if not all(map(str.strip, names)):
        rows.reject([not c.strip() for c in rows.cols[1]],
                    lambda n: NonNumericCell(f"{path}: row {rows.line(n)} has an empty domain"))
    y = rows.integers(2, upper=4)
    block = [rows.flags(i) if i in (8, 9) else rows.integers(i, upper=4 if i == 10 else math.inf) for i in range(3, 11)]
    vein = [rows.floats(i, 0.0, 180.0 if i == 13 else math.inf) for i in range(11, len(header))]
    if rows.error:
        raise rows.error
    domains = {raw: DomainId(raw) for raw in names}
    return DomainTable(rows.ids, tuple(map(domains.__getitem__, rows.cols[1])), y, np.column_stack(block),
                       np.column_stack(vein) if vein else None)


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
    rows = _Rows(path, header, next(parts))
    cols = [rows.parse(i, float, lambda n: NonNumericCell(f"{path}: row {rows.line(n)} has a non-numeric probability"))
            for i in range(1, len(header))]
    # the simplex check of the rows before the first bad row, whose warnings fire
    probs = validate_probability_rows(np.array([c[: rows.bad] for c in cols], dtype=np.float64).T.copy())
    if rows.error:
        raise rows.error
    return rows.ids, probs


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
    prob_cols = [header.index(c) for c in PROBS_HEADER[1:] if c in header]
    if len(prob_cols) not in (0, GRADE_COUNT):
        raise MissingColumn(f"{path}: probability columns need all of p0..p4")
    rows = _Rows(path, header, next(parts), empty_ids=True)
    grades = rows.integers(header.index("grade"), upper=GRADE_COUNT - 1)
    cols = [rows.floats(i) for i in prob_cols]
    probs = validate_probability_rows(np.array([c[: rows.bad] for c in cols]).T.copy()) if prob_cols else None
    if rows.error:
        raise rows.error
    return rows.ids, grades, probs


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
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def save_probability_table(path: str | Path, table: Mapping[str, ProbabilityVector]) -> None:
    """Write rows whose text decimals sum to exactly 1 (last cell absorbs
    the rounding residue)."""
    lines = [",".join(PROBS_HEADER)]
    for image_id in table:
        probs = list(table[image_id])
        head = [f"{p:.8f}" for p in probs[:4]]
        residue = 1.0 - sum(float(c) for c in head)
        lines.append(",".join([image_id] + head + [f"{residue:.8f}"]))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# --- detections ------------------------------------------------------------------

_LESION_CODES = {kind.value: code for code, kind in enumerate(LesionType)}
_DETECTION_NUMBERS = ("x", "y", "w", "h", "score")
_JSON_NUMBERS = {int, float}  # what json.loads gives for a number: bool is no number here


def _overflow(cells: Sequence) -> str:
    """float()'s OverflowError message on the first of ``cells`` past the float range, or ''."""
    try:
        list(map(float, cells))
    except OverflowError as exc:
        return str(exc)
    return ""


def read_detections(path: str | Path) -> DetectionTable:
    """Read detections.json, a list of {image_id, lesion, x, y, w, h, score},
    straight into a DetectionTable; records whose ids are equal once stripped
    are one image's. Each check is a record mask, as in the table readers, in
    the order a record is checked: a dict with a known lesion, five JSON
    numbers, the box, the score, the image id."""
    path = Path(path)
    try:
        records = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(records, list):
        raise DataError(f"{path}: expected a JSON list of detection records")
    check = _FirstBad(len(records))

    def malformed(problem: Callable[[int], str]) -> Callable[[int], DataError]:
        return lambda n: DataError(f"{path}: record {n} is malformed: {problem(n)}")

    def column(key: str, error: Callable[[int], DataError]) -> list:
        """``key`` of the records before the first bad one; a record that is no dict with it is bad."""
        try:
            return [rec[key] for rec in check.kept(records)]
        except (KeyError, TypeError):
            check.reject([type(rec) is not dict or key not in rec for rec in check.kept(records)], error)
            return [rec[key] for rec in check.kept(records)]

    lesions = column("lesion", lambda n: DataError(f"{path}: record {n} is malformed"))
    try:
        codes = list(map(_LESION_CODES.__getitem__, lesions))
    except (KeyError, TypeError):
        check.reject([type(v) is not str or v not in _LESION_CODES for v in lesions],
                     lambda n: UnknownLesionKind(f"{path}: record {n} has unknown lesion {lesions[n]!r}"))
        codes = list(map(_LESION_CODES.__getitem__, check.kept(lesions)))
    fields = [column(k, malformed(lambda n: repr(k))) for k in _DETECTION_NUMBERS]
    if not set(map(type, chain(*fields))) <= _JSON_NUMBERS:
        check.reject([not set(map(type, cells)) <= _JSON_NUMBERS for cells in zip(*fields)],
                     malformed(lambda n: f"{', '.join(_DETECTION_NUMBERS)} must be JSON numbers"))

    def floats(columns: list[list]) -> np.ndarray:  # as float rows, up to the first bad record
        try:
            return np.array(list(map(check.kept, columns)), dtype=np.float64)
        except OverflowError:
            check.reject([bool(_overflow(cells)) for cells in zip(*map(check.kept, columns))],
                         malformed(lambda n: _overflow([c[n] for c in columns])))
            return np.array(list(map(check.kept, columns)), dtype=np.float64)

    # a numeric check's mask is its aggregate: rejecting on it costs one array pass
    x, y, w, h = floats(fields[:4])
    edge = 1.0 + BOX_EDGE_EPS
    for name, v, fails, problem in (("x", x, ~((0 <= x) & (x <= 1)), "outside [0,1]"),
                                    ("y", y, ~((0 <= y) & (y <= 1)), "outside [0,1]"),
                                    ("w", w, ~((0 < w) & (w <= 1)), "outside (0,1]"),
                                    ("h", h, ~((0 < h) & (h <= 1)), "outside (0,1]"),
                                    ("x+w", x + w, x + w > edge, "exceeds 1"),
                                    ("y+h", y + h, y + h > edge, "exceeds 1")):
        check.reject(fails, lambda n: BoxOutOfBounds(f"{name}={v[n].item()!r} {problem}"))
    (score,) = floats(fields[4:])
    check.reject(~((0 <= score) & (score <= 1)),
                 malformed(lambda n: f"detection score {score[n].item()!r} outside [0,1]"))
    names = column("image_id", malformed(lambda n: "'image_id'"))
    if not set(map(type, names)) <= {str}:
        check.reject([type(v) is not str for v in names], malformed(lambda n: "image_id must be a JSON string"))
    raw_ids = tuple(dict.fromkeys(check.kept(names)))  # stripped once each, not once per record
    stripped = tuple(map(str.strip, raw_ids))
    if not all(stripped) or _unwritable_id("".join(stripped)):
        check.reject([not v.strip() for v in check.kept(names)],
                     lambda n: DataError(f"{path}: record {n} has an empty image_id"))
        check.reject([_unwritable_id(v.strip()) for v in check.kept(names)], lambda n: DataError(
            f"{path}: record {n} has image_id {names[n].strip()!r}, which {_UNWRITABLE_ID_MESSAGE}"))
    if check.error:
        raise check.error
    ids = tuple(dict.fromkeys(stripped))
    image = np.array(join_rows(stripped, ids, KeyError), dtype=np.int64)[join_rows(names, raw_ids, KeyError)]
    return DetectionTable(ids, image, np.array(codes, dtype=np.int64), np.column_stack((x, y, w, h)), score)


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
    ' {\n  "image_id": %s,\n  "lesion": %s,\n  "x": %s,\n  "y": %s,\n  "w": %s,\n  "h": %s,\n  "score": %s\n }'
)


def save_detections(path: str | Path, table: DetectionTable) -> None:
    """Write a DetectionTable as detections.json records; an image without
    detections writes no record.

    The bytes are those of ``json.dumps(records, indent=1)``, written by one
    ``%`` of the record template repeated per record: json's indenting
    encoder is pure Python. Strings go through json's own ASCII escaper and
    are arguments, never part of the format; ``%s`` of a float is
    ``float.__repr__``, as json writes it.
    """
    m = len(table.score)
    columns = [*table.box.T.tolist(), table.score.tolist()]
    if not (np.isfinite(table.box).all() and np.isfinite(table.score).all()):
        columns = [[_JSON_NON_FINITE.get(repr(v), v) for v in column] for column in columns]
    ids = [encode_basestring_ascii(i) for i in table.ids]
    lesions = [encode_basestring_ascii(t.value) for t in LESION_TYPES]
    flat: list = [None] * (7 * m)  # the record cells, record after record
    flat[0::7] = map(ids.__getitem__, table.image.tolist())
    flat[1::7] = map(lesions.__getitem__, table.lesion.tolist())
    for c, column in enumerate(columns, start=2):
        flat[c::7] = column
    template = "[\n" + ",\n".join([_DETECTION_RECORD] * m) + "\n]\n"
    Path(path).write_text(template % tuple(flat) if m else "[]\n", encoding="utf-8")


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
    text = _read_text(path, newline="")
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: not valid JSON: {exc}") from exc
    try:
        entries = [
            DomainEntry(
                name=DomainId(d["name"]),
                features=(path.parent / d["features"]).resolve(),
                probs=(path.parent / d["probs"]).resolve() if d.get("probs") else None,
                detections=(path.parent / d["detections"]).resolve() if d.get("detections") else None,
            )
            for d in raw["domains"]
        ]
        seeds = tuple(int(s) for s in raw.get("seeds", []))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DataError(f"{path}: malformed manifest: {exc}") from exc
    return Manifest(tuple(entries), seeds, source_digest=content_digest(text))


def save_manifest(path: str | Path, domains: Sequence[Mapping[str, Any]], seeds: Sequence[int]) -> None:
    payload = {"domains": list(domains), "seeds": list(int(s) for s in seeds)}
    Path(path).write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")


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


def _body(artifact: ModelArtifact) -> str:
    """The canonical JSON of the digested fields: ``canonical_json`` of
    {model_kind, params, train_fingerprint}, spelled out so that the params,
    most of an artifact, are encoded once."""
    fields = (artifact.model_kind, artifact.params, artifact.train_fingerprint)
    return '{"model_kind":%s,"params":%s,"train_fingerprint":%s}' % tuple(map(canonical_json, fields))


def save_model(artifact: ModelArtifact, path: str | Path) -> None:
    """Write `KGDG1` + digests + canonical JSON. Byte-stable per artifact.

    The payload is the body with the schema as its first key, which is
    ``canonical_json`` of all four fields."""
    body, schema = _body(artifact), canonical_json(list(artifact.feature_schema))
    header = f"{ARTIFACT_MAGIC}\n{content_digest(body)}\n{content_digest(schema)}\n"
    Path(path).write_text(f'{header}{{"feature_schema":{schema},{body[1:]}\n', encoding="utf-8")


def load_model(path: str | Path) -> ModelArtifact:
    """Load and verify an artifact.

    Raises CorruptArtifact when the file is unreadable, truncated, or its
    body digest fails; SchemaMismatch when the schema was edited or does
    not fit the stored model.
    """
    path = Path(path)
    try:
        text = _read_text(path, error=CorruptArtifact)
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
    if content_digest(canonical_json(list(artifact.feature_schema))) != schema_digest:
        raise SchemaMismatch(f"{path}: feature schema does not match its digest")
    if content_digest(_body(artifact)) != body_digest:
        raise CorruptArtifact(f"{path}: body digest mismatch (file edited?)")
    arity = artifact.params.get("n_features")
    if arity is not None and arity != len(artifact.feature_schema):
        raise SchemaMismatch(
            f"{path}: schema arity {len(artifact.feature_schema)} != model arity {arity}"
        )
    return artifact
