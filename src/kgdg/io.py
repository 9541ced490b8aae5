"""File ingestion and persistence.

Every file is UTF-8 text. Tables are comma-separated with a mandatory
header; detections and manifests are JSON. Each table and detection file is
read straight into arrays (``read_*``), each check stated once as a row or
record mask. Two per-row views remain only because the benchmark calls or
patches them: ``load_feature_table`` and ``load_probability_table``, with
``save_probability_table`` of an id-to-row mapping; a detection file has no
per-row view. Model artifacts are a JSON payload behind a magic
header plus content digests, so round trips are byte-stable and truncation
or tampering is detected at load time.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import json
import math
import re
import warnings
from dataclasses import dataclass, field, replace
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
    DetectionTable,
    DomainId,
    DomainTable,
    LabeledExample,
    LesionType,
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


_DIGEST_BLOCK = 1 << 20  # bytes file_digest reads at a time


def file_digest(path: str | Path) -> str:
    """The sha256 hex digest of the file's bytes, read through one reused
    ``_DIGEST_BLOCK`` buffer, so memory stays flat however large the file."""
    digest = hashlib.sha256()
    buffer = bytearray(_DIGEST_BLOCK)
    view = memoryview(buffer)
    with open(path, "rb", buffering=0) as fh:
        while size := fh.readinto(buffer):
            digest.update(view[:size])
    return digest.hexdigest()


# --- tables: parsed a column at a time --------------------------------------------
#
# A reader states each check once, as a row mask paired with its error, in
# the order a row is checked: width, empty id, unwritable id, repeated id,
# then each cell in column order. A check looks only at the rows before the
# first row rejected so far, so the error raised is the first bad row's first
# failing check. A mask is built only when the check's aggregate fails.


def _read_text(path: Path, error: type[DataError] = DataError) -> str:
    """The file as UTF-8 text, newlines LF; other bytes raise ``error`` naming it."""
    try:
        text = path.read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text: {exc}") from None
    return text if "\r" not in text else text.replace("\r\n", "\n").replace("\r", "\n")


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


class _Refused(Exception):
    """numpy's C reader does not take a table, or a check rejects one of its rows."""


def _text_parts(path: Path) -> Iterator[Any]:
    """_csv's parts for text that numpy's C reader splits as _csv does: the
    stripped header, then _loadtxt of the lines after it, which _Rows calls.
    Raises _Refused for text that is not UTF-8, holds a quote, CR or NUL
    (which Python 3.10's csv rejects), or has an empty first line or a line
    as long as csv.field_size_limit()."""
    try:
        text = path.read_bytes().decode("utf-8")
    except UnicodeDecodeError:
        raise _Refused from None
    lines = text.split("\n")
    if not lines[0] or any(c in text for c in '"\r\0') or max(map(len, lines)) >= csv.field_size_limit():
        raise _Refused
    yield tuple(h.strip() for h in lines[0].split(","))
    yield functools.partial(_loadtxt, lines[1:])


def _loadtxt(lines: list[str], kinds: str) -> list[np.ndarray]:
    """The columns of ``lines``, numpy's C reader's parse by ``kinds``, one
    letter a column: s for str, i for int64, f for float64. A warning (no
    rows; numpy 1.x reading an int from a float) or a ValueError refuses
    the table. The warnings filter it sets is process-wide while it runs."""
    dtype = np.dtype([(f"c{i}", {"s": object, "i": np.int64, "f": np.float64}[k]) for i, k in enumerate(kinds)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            table = np.loadtxt(lines, dtype=dtype, delimiter=",", comments=None, quotechar=None, ndmin=1)
        except (ValueError, Warning):
            raise _Refused from None
    return [table[name] for name in dtype.names]


def _columnar(read: Callable[[Path, Iterator[Any]], Any]) -> Callable[[str | Path], Any]:
    """The table reader ``read(path, parts)``, called with a path only: run
    on _text_parts, then, if numpy's C reader refuses the text or a check
    rejects a row, on _csv's parts. Those name the first bad row's error and
    read the valid text the C reader does not take (quoted cells, CRLF)."""
    @functools.wraps(read)
    def reader(path: str | Path) -> Any:
        path = Path(path)
        try:
            return read(path, _text_parts(path))
        except _Refused:
            return read(path, _csv(path))
    return reader


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
    ``cols`` are the columns of the rows before ``bad``. ``records`` are
    _csv's records, or _text_parts' parse, called with ``kinds``; after that
    parse ``records`` is None and a check that rejects a row refuses the
    table."""

    def __init__(self, path: Path, header: tuple, records: list | Callable[[str], list], kinds: str,
                 empty_ids: bool = False, strip: bool = False):
        self.header, self.records, self.strip = header, records, strip
        if callable(records):
            self.records, self.cols = None, records(kinds)
            super().__init__(len(self.cols[0]))
        else:
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

    def reject(self, mask: Sequence, error: Callable[[int], DataError]) -> None:
        if self.records is None and np.any(mask):
            raise _Refused  # _csv's records name the row
        super().reject(mask, error)

    def line(self, n: int) -> int:
        """The file line of nonblank row n."""
        return [i for i, cells in enumerate(self.records, start=2) if cells][n]

    def _cell(self, i: int, problem: Callable[[str, int], str]) -> Callable[[int], DataError]:
        """The error of column i's cell in row n, ``problem(cell, n)``; the cell is stripped if ``strip``."""
        def error(n: int) -> DataError:
            cell = self.cols[i][n].strip() if self.strip else self.cols[i][n]
            return NonNumericCell(f"row {self.line(n)}, column {self.header[i]!r}: {problem(cell, n)}")
        return error

    def parse(self, i: int, kind: Callable[[str], Any], error: Callable[[int], DataError]) -> Sequence:
        """int() or float() (``kind``) of column i, or its C-parsed array; a
        cell _is_number refuses rejects its row."""
        cells = self.cols[i][: self.bad]
        if self.records is None:
            return cells
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


@_columnar
def read_feature_table(path: Path, parts: Iterator[Any]) -> DomainTable:
    """Read a features.csv straight into a DomainTable.

    Exactly two headers are accepted: lesions-only and lesions+vein; the
    vein columns are read only when present.
    """
    header = next(parts)
    if header is None:
        raise MissingColumn(f"{path}: empty file")
    if header not in (LESIONS_VEIN_HEADER, LESIONS_ONLY_HEADER):
        raise MissingColumn(f"{path}: header does not match a known feature schema (lesions-only or lesions+vein)")
    rows = _Rows(path, header, next(parts), "ssiiiiiissi" + "f" * (len(header) - 11), strip=True)
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
    t = read_feature_table(path)
    return list(map(LabeledExample, t.ids, t.domains, t.y.tolist(), map(tuple, t.counts.tolist())))


@_columnar
def read_probability_table(path: Path, parts: Iterator[Any]) -> tuple[tuple[str, ...], np.ndarray]:
    """Read a probs.csv into its image ids and ``(n, 5)`` rows, each checked
    (and renormalized) by validate_probability_rows."""
    header = next(parts)
    if header is None:
        raise MissingColumn(f"{path}: empty file")
    if header != PROBS_HEADER:
        raise MissingColumn(f"{path}: header must be {','.join(PROBS_HEADER)}")
    rows = _Rows(path, header, next(parts), "sfffff")
    cols = [rows.parse(i, float, lambda n: NonNumericCell(f"{path}: row {rows.line(n)} has a non-numeric probability"))
            for i in range(1, len(header))]
    # the simplex check of the rows before the first bad row, whose warnings fire
    probs = validate_probability_rows(np.array([c[: rows.bad] for c in cols], dtype=np.float64).T.copy())
    if rows.error:
        raise rows.error
    return rows.ids, probs


def load_probability_table(path: str | Path) -> dict[str, np.ndarray]:
    """Read a probs.csv into an image_id -> ``(5,)`` row map."""
    return dict(zip(*read_probability_table(path)))


@_columnar
def read_prediction_table(path: Path, parts: Iterator[Any]) -> tuple[tuple[str, ...], np.ndarray, np.ndarray | None]:
    """Read an ``image_id,grade`` table into ids, grades and, when all of
    ``p0..p4`` are present, ``(n, 5)`` rows; columns are found by header
    name and any others are ignored."""
    header = next(parts)
    if not header or header[0] != "image_id" or "grade" not in header:
        raise MissingColumn(f"{path}: prediction table needs image_id,grade[,p0..p4]")
    prob_cols = [header.index(c) for c in PROBS_HEADER[1:] if c in header]
    if len(prob_cols) not in (0, GRADE_COUNT):
        raise MissingColumn(f"{path}: probability columns need all of p0..p4")
    grade = header.index("grade")
    kinds = "".join("i" if i == grade else "f" if i in prob_cols else "s" for i in range(len(header)))
    rows = _Rows(path, header, next(parts), kinds, empty_ids=True)
    grades = rows.integers(grade, upper=GRADE_COUNT - 1)
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


def save_probability_table(path: str | Path, table: Mapping[str, Sequence[float]]) -> None:
    """Write rows whose text decimals sum to exactly 1: the last cell is the
    residue of the first four, counted in whole 1e-8 units. Where the four
    rounded cells sum past 1, the excess comes off the largest of them, so a
    row of cells >= 0 writes no negative cell."""
    lines = [",".join(PROBS_HEADER)]
    for image_id in table:
        head = [f"{p:.8f}" for p in table[image_id][:4]]
        units = [int(c.replace(".", "")) for c in head]
        residue = 10**8 - sum(units)
        if residue < 0:
            top = units.index(max(units))
            units[top] += residue
            head[top], residue = f"{units[top] / 1e8:.8f}", 0
        lines.append(",".join([image_id] + head + [f"{residue / 1e8:.8f}"]))
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


# json.dumps's spelling of the floats float.__repr__ spells otherwise
_JSON_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
# a record's constant text around its seven fields, led by the ",\n" that
# separates it from the record before it
_DETECTION_PIECES = tuple(np.frombuffer(piece.encode(), dtype=np.uint8) for piece in (
    ',\n {\n  "image_id": ', ',\n  "lesion": ', ',\n  "x": ', ',\n  "y": ', ',\n  "w": ', ',\n  "h": ',
    ',\n  "score": ', '\n }'))
_DETECTION_BLOCK = 2048  # records save_detections formats and writes at a time
# "000".."999", then the same with trailing zeros as NUL bytes: _DIGITS[stripped, k]
_DIGITS = np.array([[list(b"%03d" % k) for k in range(1000)],
                    [list((b"%03d" % k).rstrip(b"0").ljust(3, b"\0")) for k in range(1000)]], dtype=np.uint8)


def _text_rows(texts: Sequence[str]) -> np.ndarray:
    """ASCII ``texts`` as the rows of a ``uint8`` matrix, each padded with NUL bytes."""
    column = np.array([t.encode("ascii") for t in texts], dtype=bytes)
    return column.view(np.uint8).reshape(len(texts), column.itemsize)


def _number_rows(values: np.ndarray) -> np.ndarray:
    """The json.dumps text of each of ``values`` as a NUL-padded ``uint8``
    row, spelled as save_detections says. ``"0."`` and k's six digits,
    trailing zeros dropped, is ``float.__repr__``'s text for such a ``v``:
    two such decimals are at least 1e-6 apart, far wider than the spacing
    of doubles below 1, so it is the shortest text that reads back as
    ``v``, and ``v >= 1e-4`` keeps ``float.__repr__`` positional."""
    with np.errstate(over="ignore", invalid="ignore"):
        k = np.rint(values * 1e6)
        six = (k >= 100) & (k < 1e6) & (k / 1e6 == values)
    hi, lo = np.divmod(np.where(six, k, 0).astype(np.int64), 1000)
    slow = np.flatnonzero(~six)
    spelled = _text_rows([_JSON_NON_FINITE.get(r, r) for r in map(repr, values[slow].tolist())])
    rows = np.zeros((len(values), max(8, spelled.shape[1])), dtype=np.uint8)
    rows[:, :2] = list(b"0.")
    rows[:, 2:5] = _DIGITS[(lo == 0).astype(np.intp), hi]  # trailing zeros stripped when k's last three are 0
    rows[:, 5:8] = _DIGITS[1, lo]
    rows[slow] = 0
    rows[slow, : spelled.shape[1]] = spelled
    return rows


def save_detections(path: str | Path, table: DetectionTable) -> None:
    r"""Write a DetectionTable as detections.json records; an image without
    detections writes no record.

    The bytes are those of ``json.dumps(records, indent=1)``: ``[\n``, the
    records joined by ``,\n``, then ``\n]\n``, or ``[]\n`` for no record.
    json's indenting encoder is pure Python, so the records are built and
    written ``_DETECTION_BLOCK`` at a time, each block as one ``uint8``
    matrix, a record per row: the record's constant pieces between its
    fields, each field NUL-padded to the block's widest. Ids and lesion
    names are gathered from rows that json's own ASCII escaper encodes once
    per table. A number ``v`` with ``k = rint(v * 1e6)`` in 100..999999 and
    ``k / 1e6 == v`` is spelled from k's digits; any other (0, 1.0, values
    below 1e-4, negative, non-finite or not six-decimal ones) by
    ``float.__repr__``, or NaN, Infinity, -Infinity. The block's bytes are
    the matrix's nonzero bytes in row order: no NUL can be one of the
    record's own bytes, because the escaper writes a NUL as ``\u0000``.
    Memory holds one block's matrix, however many records the table has.
    """
    m = len(table.score)
    ids = _text_rows(list(map(encode_basestring_ascii, table.ids)))
    lesions = _text_rows([encode_basestring_ascii(t.value) for t in LESION_TYPES])
    with open(path, "wb") as fh:
        for start in range(0, m, _DETECTION_BLOCK):
            block = slice(start, start + _DETECTION_BLOCK)
            fields = [ids[table.image[block]], lesions[table.lesion[block]],
                      *map(_number_rows, table.box[block].T), _number_rows(table.score[block])]
            pieces = [np.broadcast_to(piece, (len(fields[0]), piece.size)) for piece in _DETECTION_PIECES]
            rows = np.concatenate([*chain(*zip(pieces, fields)), pieces[-1]], axis=1)
            if not start:
                rows[0, :2] = list(b"[\n")
            fh.write(rows[rows != 0].tobytes())
        fh.write(b"\n]\n" if m else b"[]\n")


# --- manifests ---------------------------------------------------------------------


@dataclass(frozen=True)
class DomainEntry:
    """Paths for one domain's tables, resolved against the manifest dir."""

    name: DomainId
    features: Path
    probs: Path | None = None


@dataclass(frozen=True)
class Manifest:
    domains: tuple[DomainEntry, ...]

    def __post_init__(self) -> None:
        if not self.domains:
            raise InvalidConfig("manifest needs at least one domain")
        names = [d.name for d in self.domains]
        if len(set(names)) != len(names):
            raise InvalidConfig("manifest domain names must be unique")


def load_manifest(path: str | Path) -> Manifest:
    path = Path(path)
    try:
        raw = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: not valid JSON: {exc}") from exc
    try:
        entries = [
            DomainEntry(
                name=DomainId(d["name"]),
                features=(path.parent / d["features"]).resolve(),
                probs=(path.parent / d["probs"]).resolve() if d.get("probs") else None,
            )
            for d in raw["domains"]
        ]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DataError(f"{path}: malformed manifest: {exc}") from exc
    return Manifest(tuple(entries))


def save_manifest(path: str | Path, domains: Sequence[Mapping[str, Any]], seeds: Sequence[int]) -> None:
    payload = {"domains": list(domains), "seeds": list(int(s) for s in seeds)}
    Path(path).write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")


def load_domain_dataset(entry: DomainEntry) -> DomainTable:
    """Load one manifest entry as a DomainTable. A probability table joins
    into its read-only ``(n, 5)`` rows; every image must have a row."""
    table = read_feature_table(entry.features)
    if not set(table.domains) <= {entry.name}:
        image_id, domain = next((i, d) for i, d in zip(table.ids, table.domains) if d != entry.name)
        raise DataError(f"{entry.features}: row {image_id!r} claims domain {domain!r}, manifest says {entry.name!r}")
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
    """Serialized trained model plus the schema it expects; ``path``, not saved, names its file in errors."""

    model_kind: str
    feature_schema: tuple[str, ...]
    params: dict[str, Any]
    train_fingerprint: str
    path: str = field(default="<unsaved artifact>", compare=False)


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

    Raises CorruptArtifact when the file is unreadable or truncated, its
    body digest fails, its ``model_kind`` is unknown or its ``params`` is
    not an object; SchemaMismatch when the schema was edited or does not
    fit the stored model.
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
            path=str(path),
        )
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise CorruptArtifact(f"{path}: truncated or malformed payload: {exc}") from exc
    if content_digest(canonical_json(list(artifact.feature_schema))) != schema_digest:
        raise SchemaMismatch(f"{path}: feature schema does not match its digest")
    if content_digest(_body(artifact)) != body_digest:
        raise CorruptArtifact(f"{path}: body digest mismatch (file edited?)")
    if artifact.model_kind not in MODEL_KINDS:
        raise CorruptArtifact(f"{path}: unknown model_kind {artifact.model_kind!r}")
    if not isinstance(artifact.params, dict):
        raise CorruptArtifact(f"{path}: params is not an object")
    arity = artifact.params.get("n_features")
    if arity is not None and arity != len(artifact.feature_schema):
        raise SchemaMismatch(
            f"{path}: schema arity {len(artifact.feature_schema)} != model arity {arity}"
        )
    return artifact
