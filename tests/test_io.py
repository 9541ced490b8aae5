import hashlib
import json
import re
import tracemalloc
from dataclasses import astuple, is_dataclass, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from ref_rows import RefExample, RefFeatureVector, ref_example, ref_feature_matrix

from kgdg import io as kgdg_io
from kgdg.cli import main
from kgdg.core import (
    LESION_TYPES,
    LESIONS_VEIN_SCHEMA,
    DetectionTable,
    DomainId,
    DRGrade,
    LabeledExample,
)
from kgdg.errors import (
    BoxOutOfBounds,
    CorruptArtifact,
    DataError,
    DuplicateImageId,
    MissingColumn,
    NonNumericCell,
    SchemaMismatch,
    SumOutOfTolerance,
    UnknownImageId,
    UnknownLesionKind,
)
from kgdg.io import (
    _DETECTION_BLOCK,
    _DIGEST_BLOCK,
    LESIONS_ONLY_HEADER,
    LESIONS_VEIN_HEADER,
    MODEL_KINDS,
    DomainEntry,
    canonical_json,
    content_digest,
    file_digest,
    load_domain_dataset,
    load_feature_table,
    load_manifest,
    load_model,
    load_probability_table,
    read_detections,
    read_feature_table,
    read_prediction_table,
    read_probability_table,
    save_detections,
    save_feature_table,
    save_model,
    save_probability_table,
)
from kgdg.learn import TrainConfig, feature_matrix, model_from_artifact
from kgdg.synth import gen_dataset, shift_profile, write_dataset

from test_learn import domain_table, fit_examples

LESIONS_HEADER_LINE = ",".join(LESIONS_ONLY_HEADER)
VEIN_HEADER_LINE = ",".join(LESIONS_VEIN_HEADER)


def loaded(examples):
    """The rows load_feature_table gives for a table of reference examples."""
    return [LabeledExample(ex.image_id, ex.domain, int(ex.grade), ex.features.counts()) for ex in examples]


class TestFeatureTable:
    def test_direct_field_mapping(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text(LESIONS_HEADER_LINE + "\nimg1,aptos,2,3,5,1,0,2,0,0,3\n")
        rows = load_feature_table(path)
        assert len(rows) == 1
        ex = rows[0]
        assert ex.image_id == "img1"
        assert ex.domain == DomainId("aptos")
        assert ex.grade == DRGrade.MODERATE
        assert ex.features == (3, 5, 1, 0, 2, 0, 0, 3)  # LESIONS_ONLY_SCHEMA order

    def test_duplicate_image_id(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text(
            LESIONS_HEADER_LINE + "\nimg1,aptos,2,3,5,1,0,2,0,0,3\nimg1,aptos,1,1,0,0,0,0,0,0,0\n"
        )
        with pytest.raises(DuplicateImageId):
            load_feature_table(path)

    def test_vein_range_violation(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text(VEIN_HEADER_LINE + "\nimg1,aptos,2,3,5,1,0,2,0,0,3,1.5,9.0,190\n")
        with pytest.raises(NonNumericCell):
            load_feature_table(path)

    def test_unknown_header_rejected(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("image_id,domain,grade,foo\nimg1,aptos,2,1\n")
        with pytest.raises(MissingColumn):
            load_feature_table(path)

    def test_non_numeric_cell(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text(LESIONS_HEADER_LINE + "\nimg1,aptos,2,three,5,1,0,2,0,0,3\n")
        with pytest.raises(NonNumericCell):
            load_feature_table(path)

    def test_row_order_insensitive(self, tmp_path):
        rows = [
            "img1,aptos,2,3,5,1,0,2,0,0,3",
            "img2,aptos,0,0,0,0,0,0,0,0,0",
            "img3,aptos,4,9,2,8,3,1,1,1,4",
        ]
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        a.write_text(LESIONS_HEADER_LINE + "\n" + "\n".join(rows) + "\n")
        b.write_text(LESIONS_HEADER_LINE + "\n" + "\n".join(reversed(rows)) + "\n")
        assert set(load_feature_table(a)) == set(load_feature_table(b))

    def test_round_trip_without_vein(self, tmp_path):
        examples = [ref_example(i, i % 5, "synth", microaneurysm_count=i, hemorrhage_quadrants=i % 5)
                    for i in range(6)]
        path = tmp_path / "f.csv"
        save_feature_table(path, domain_table(examples))
        assert load_feature_table(path) == loaded(examples)

    def test_round_trip_with_vein(self, tmp_path):
        examples = [ref_example("v1", DRGrade.MILD, "synth", microaneurysm_count=2, vein_tortuosity=1.25,
                                vein_caliber_mean=8.5, vein_branch_angle_mean=77.125)]
        path = tmp_path / "f.csv"
        save_feature_table(path, domain_table(examples))
        assert load_feature_table(path) == loaded(examples)
        assert np.array_equal(feature_matrix(read_feature_table(path), LESIONS_VEIN_SCHEMA),
                              ref_feature_matrix(examples, LESIONS_VEIN_SCHEMA))


class TestProbabilityTable:
    def test_load_and_validate(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("image_id,p0,p1,p2,p3,p4\nimg1,0.1,0.2,0.3,0.2,0.2\n")
        table = load_probability_table(path)
        assert table["img1"].tolist() == [0.1, 0.2, 0.3, 0.2, 0.2]

    def test_sum_out_of_tolerance(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("image_id,p0,p1,p2,p3,p4\nimg1,0.5,0.5,0.5,0,0\n")
        with pytest.raises(SumOutOfTolerance):
            load_probability_table(path)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(0, 1), min_size=5, max_size=5).filter(lambda row: sum(row) > 0))
    @example([0.249999996] * 3 + [0.250000012, 0.0])  # the first four round to a sum of 1.00000001
    def test_rows_sum_to_one_in_cells_at_least_zero(self, tmp_path_factory, row):
        path = tmp_path_factory.mktemp("probs") / "p.csv"
        save_probability_table(path, {"a": [p / sum(row) for p in row]})
        cells = path.read_text().splitlines()[1].split(",")[1:]
        assert sum(int(c.replace(".", "")) for c in cells) == 10**8
        assert not any(c.startswith("-") for c in cells)
        load_probability_table(path)

    @staticmethod
    def _entry(tmp_path, image_id, table):
        features, probs = tmp_path / "f.csv", tmp_path / "p.csv"
        save_feature_table(features, domain_table([RefExample(image_id, DomainId("d"), DRGrade.NO_DR, RefFeatureVector())]))
        save_probability_table(probs, table)
        return DomainEntry(DomainId("d"), features, probs)

    def test_join_missing_image(self, tmp_path):
        entry = self._entry(tmp_path, "img7", {"img1": [1.0, 0.0, 0.0, 0.0, 0.0]})
        with pytest.raises(UnknownImageId):
            load_domain_dataset(entry)

    def test_join_attaches_probs(self, tmp_path):
        entry = self._entry(tmp_path, "a", {"a": [0.0, 0.0, 1.0, 0.0, 0.0]})
        assert load_domain_dataset(entry).probs[0].argmax() == 2

    def test_first_row_of_another_domain_is_named(self, tmp_path):
        features = tmp_path / "f.csv"
        rows = [f"img{i},{d},0,0,0,0,0,0,0,0,0" for i, d in enumerate(["D", "d", "e", "f"])]
        features.write_text("\n".join([LESIONS_HEADER_LINE, *rows]) + "\n")
        with pytest.raises(DataError) as exc:
            load_domain_dataset(DomainEntry(DomainId("d"), features))
        assert str(exc.value) == f"{features}: row 'img2' claims domain 'e', manifest says 'd'"


class TestNumpyReader:
    """Plain tables are parsed by numpy's C reader; the csv module reads only
    the ones it refuses."""

    def test_plain_tables_skip_csv_and_quoted_ones_use_it(self, tmp_path, monkeypatch):
        write_dataset(shift_profile("mild", seed=0, n_samples=50), tmp_path)
        features, probs = tmp_path / "clinic_a_features.csv", tmp_path / "clinic_a_probs.csv"
        grades, fused = tmp_path / "grades.csv", tmp_path / "fused.csv"
        assert main(["grade", "--features", str(features), "--out", str(grades), "--quiet"]) == 0
        assert main(["fuse", "--strategy", "max", "--dl", str(probs), "--kd", str(probs), "--out", str(fused),
                     "--quiet"]) == 0
        quoted = tmp_path / "quoted.csv"
        lines = probs.read_text().splitlines()
        quoted.write_text("\n".join([lines[0], '"q"' + lines[1][lines[1].index(","):], *lines[2:]]) + "\n")
        read_through_csv = []
        csv_parts = kgdg_io._csv
        monkeypatch.setattr(kgdg_io, "_csv", lambda path: read_through_csv.append(path) or csv_parts(path))
        assert len(read_feature_table(features)) == 50
        assert len(read_probability_table(probs)[0]) == 50
        assert len(read_prediction_table(grades)[0]) == len(read_prediction_table(fused)[0]) == 50
        assert read_through_csv == []
        assert read_probability_table(quoted)[0][0] == "q"
        assert read_through_csv == [quoted]

    def test_cr_and_crlf_tables_read_as_lf_without_csv(self, tmp_path, monkeypatch):
        write_dataset(shift_profile("vein_hostile", seed=7, n_samples=50), tmp_path)
        features, probs = tmp_path / "clinic_a_features.csv", tmp_path / "clinic_a_probs.csv"
        fused = tmp_path / "fused.csv"
        assert main(["fuse", "--strategy", "max", "--dl", str(probs), "--kd", str(probs), "--out", str(fused),
                     "--quiet"]) == 0
        read_through_csv = []
        csv_parts = kgdg_io._csv
        monkeypatch.setattr(kgdg_io, "_csv", lambda path: read_through_csv.append(path) or csv_parts(path))

        def fields(read, path):  # a reader's result as a tuple
            result = read(path)
            return astuple(result) if is_dataclass(result) else result

        for read, path in ((read_feature_table, features), (read_probability_table, probs),
                           (read_prediction_table, fused)):
            lf = fields(read, path)
            for end in (b"\r\n", b"\r"):
                copy = tmp_path / "copy.csv"
                copy.write_bytes(path.read_bytes().replace(b"\n", end))
                got = fields(read, copy)
                assert len(got) == len(lf) and all(map(np.array_equal, got, lf))
        assert read_through_csv == []


class TestDetections:
    def test_load_valid(self, tmp_path):
        path = tmp_path / "d.json"
        path.write_text(
            json.dumps(
                [
                    {"image_id": "i1", "lesion": "microaneurysm", "x": 0.1, "y": 0.1, "w": 0.05, "h": 0.05, "score": 0.8},
                    {"image_id": "i1", "lesion": "hard_exudate", "x": 0.4, "y": 0.4, "w": 0.1, "h": 0.1, "score": 0.6},
                ]
            )
        )
        table = read_detections(path)
        assert table.ids == ("i1",) and table.image.tolist() == [0, 0]

    def test_unknown_lesion(self, tmp_path):
        path = tmp_path / "d.json"
        path.write_text(json.dumps([{"image_id": "i1", "lesion": "drusen", "x": 0.1, "y": 0.1, "w": 0.1, "h": 0.1, "score": 0.5}]))
        with pytest.raises(UnknownLesionKind):
            read_detections(path)

    def test_box_out_of_bounds(self, tmp_path):
        path = tmp_path / "d.json"
        path.write_text(json.dumps([{"image_id": "i1", "lesion": "microaneurysm", "x": 0.95, "y": 0.1, "w": 0.2, "h": 0.1, "score": 0.5}]))
        with pytest.raises(BoxOutOfBounds):
            read_detections(path)


# One bad value per key and check of read_detections, in record 1 after a good
# record 0: (key, value, error class, message after the path; a BoxOutOfBounds
# message names no path). The value MISSING drops the key, a key "x+w" sets both
# fields to a pair, and the key "record" replaces the whole record. A value
# that passes has no error.
MISSING = object()
GOOD_DETECTION = {"image_id": "i0", "lesion": "microaneurysm", "x": 0.1, "y": 0.2, "w": 0.05, "h": 0.05, "score": 0.5}
DETECTION_CHECKS = [
    *(("record", value, DataError, "record 1 is malformed") for value in ([], "x", 3, None)),
    ("lesion", "drusen", UnknownLesionKind, "record 1 has unknown lesion 'drusen'"),
    ("lesion", 3, UnknownLesionKind, "record 1 has unknown lesion 3"),
    ("lesion", MISSING, DataError, "record 1 is malformed"),
    *((key, MISSING, DataError, f"record 1 is malformed: {key!r}") for key in ("x", "y", "w", "h", "score")),
    ("image_id", MISSING, DataError, "record 1 is malformed: 'image_id'"),
    *((key, value, DataError, "record 1 is malformed: x, y, w, h, score must be JSON numbers")
      for key in ("x", "y", "w", "h", "score") for value in ("0.5", None, True, False)),
    # x and y in [0,1]; w and h in (0,1]
    ("x", 0.0, None, None), ("y", 0.0, None, None), ("x", -1e-9, BoxOutOfBounds, "x=-1e-09 outside [0,1]"),
    ("y", -1e-9, BoxOutOfBounds, "y=-1e-09 outside [0,1]"),
    ("x", 1.0000000001, BoxOutOfBounds, "x=1.0000000001 outside [0,1]"),
    ("y", 1.0000000001, BoxOutOfBounds, "y=1.0000000001 outside [0,1]"),
    ("w", 0.0, BoxOutOfBounds, "w=0.0 outside (0,1]"), ("h", 0.0, BoxOutOfBounds, "h=0.0 outside (0,1]"),
    ("w", 1.0000000001, BoxOutOfBounds, "w=1.0000000001 outside (0,1]"),
    ("h", 1.0000000001, BoxOutOfBounds, "h=1.0000000001 outside (0,1]"),
    ("x", float("nan"), BoxOutOfBounds, "x=nan outside [0,1]"),
    ("x", float("inf"), BoxOutOfBounds, "x=inf outside [0,1]"),  # what JSON's 1e400 reads as
    ("h", 10**400, DataError, "record 1 is malformed: int too large to convert to float"),
    # a box ending on the right or bottom edge: at 1 + BOX_EDGE_EPS, and past it
    ("x+w", (0.5, 0.5 + 1e-9), None, None), ("y+h", (0.25, 0.75 + 1e-9), None, None), ("x+w", (1.0, 1e-9), None, None),
    ("x+w", (0.5, 0.5 + 2e-9), BoxOutOfBounds, "x+w=1.0000000020000002 exceeds 1"),
    ("y+h", (0.5, 0.5 + 2e-9), BoxOutOfBounds, "y+h=1.0000000020000002 exceeds 1"),
    # the score in [0,1]
    ("score", 0.0, None, None), ("score", 1.0, None, None),
    ("score", -0.1, DataError, "record 1 is malformed: detection score -0.1 outside [0,1]"),
    ("score", 1.5, DataError, "record 1 is malformed: detection score 1.5 outside [0,1]"),
    ("score", float("nan"), DataError, "record 1 is malformed: detection score nan outside [0,1]"),
    # the image id: a nonempty string once stripped, that a writer can write
    ("image_id", " i1 ", None, None),
    ("image_id", 7, DataError, "record 1 is malformed: image_id must be a JSON string"),
    ("image_id", "", DataError, "record 1 has an empty image_id"),
    ("image_id", " \t", DataError, "record 1 has an empty image_id"),
    *(("image_id", v, DataError, f"record 1 has image_id {v!r}, which holds a comma, quote, line break or lone "
       "surrogate") for v in ("a,b", 'a"b', "a\nb", "a\ud800")),
]


@pytest.mark.parametrize("key,value,error,message", DETECTION_CHECKS)
def test_detection_check_table(tmp_path, key, value, error, message):
    record = dict(GOOD_DETECTION)
    if key == "record":
        record = value
    elif value is MISSING:
        del record[key]
    else:
        record.update(zip(key.split("+"), value) if "+" in key else [(key, value)])
    path = tmp_path / "d.json"
    path.write_text(json.dumps([GOOD_DETECTION, record]))
    if error is None:
        assert len(read_detections(path).score) == 2
        return
    with pytest.raises(Exception) as caught:
        read_detections(path)
    assert type(caught.value) is error
    assert str(caught.value) == (message if error is BoxOutOfBounds else f"{path}: {message}")


def _json_dumps_detections(table):
    """The writer save_detections replaced: json.dumps of the record dicts."""
    records = [
        {"image_id": table.ids[n], "lesion": LESION_TYPES[code].value, "x": x, "y": y, "w": w, "h": h, "score": score}
        for n, code, (x, y, w, h), score in zip(table.image.tolist(), table.lesion.tolist(), table.box.tolist(),
                                                table.score.tolist())
    ]
    return json.dumps(records, indent=1) + "\n"


_ids = st.text(st.characters(codec="utf-8"), max_size=8) | st.sampled_from(
    ['a"b', "c\\d", "\u00e9\u4e2d", "\n\t", "\ud83d\ude00", "%", "a%sb", "%%", "{}", "%(x)s", "%r%d"])
# save_detections spells six-decimal values in [1e-4, 1) from their digits and
# every other value by float.__repr__: draw both, and the values at the edge
_SIX_DECIMALS = st.integers(-10**6, 10**6 + 1).map(lambda k: k / 1e6)
_cells = (st.floats(allow_nan=True, allow_infinity=True) | st.floats(0, 1) | _SIX_DECIMALS
          | _SIX_DECIMALS.flatmap(lambda v: st.sampled_from([np.nextafter(v, -1.0), np.nextafter(v, 2.0)]))
          | st.sampled_from([0.0, -0.0, 9.9e-05, 1e-4, 0.999999, 1.0]))


@st.composite
def detection_tables(draw):
    ids = draw(st.lists(_ids, min_size=1, max_size=4, unique=True))
    m = draw(st.sampled_from([0, 1]) | st.integers(0, 12))
    return DetectionTable(
        tuple(ids),
        np.array(draw(st.lists(st.integers(0, len(ids) - 1), min_size=m, max_size=m)), dtype=np.int64),
        np.array(draw(st.lists(st.integers(0, len(LESION_TYPES) - 1), min_size=m, max_size=m)), dtype=np.int64),
        np.array(draw(st.lists(_cells, min_size=4 * m, max_size=4 * m)), dtype=np.float64).reshape(m, 4),
        np.array(draw(st.lists(_cells, min_size=m, max_size=m)), dtype=np.float64),
    )


class TestSaveDetections:
    @settings(max_examples=300, deadline=None)
    @given(detection_tables())
    def test_bytes_equal_json_dumps(self, tmp_path_factory, table):
        path = tmp_path_factory.mktemp("dets") / "d.json"
        save_detections(path, table)
        assert path.read_text() == _json_dumps_detections(table)

    def test_empty_table_writes_empty_list(self, tmp_path):
        empty = DetectionTable(("i1",), np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros((0, 4)), np.zeros(0))
        save_detections(tmp_path / "d.json", empty)
        assert (tmp_path / "d.json").read_text() == "[]\n"

    def test_format_characters_in_ids_are_written_as_is(self, tmp_path):
        ids = ("%", "%s", "%%", "{}", "{0}%d")
        box = np.array([[0.1, 0.2, 0.3, 0.4]] * 6)
        table = DetectionTable(ids, np.array([4, 0, 1, 2, 3, 1]), np.arange(6) % 7, box, np.full(6, 0.5))
        save_detections(tmp_path / "d.json", table)
        text = (tmp_path / "d.json").read_text()
        assert text == _json_dumps_detections(table)
        assert [r["image_id"] for r in json.loads(text)] == ["{0}%d", "%", "%s", "%%", "{}", "%s"]

    def test_non_finite_score_spelled_as_json(self, tmp_path):
        box = np.array([[0.1, 0.2, 0.3, 0.4]] * 3)
        table = DetectionTable(('q"\\\u00e9',), np.zeros(3, np.int64), np.arange(3), box,
                               np.array([np.nan, np.inf, -np.inf]))
        save_detections(tmp_path / "d.json", table)
        text = (tmp_path / "d.json").read_text()
        assert text == _json_dumps_detections(table)
        assert '"score": NaN' in text and '"score": Infinity' in text and '"score": -Infinity' in text
        assert '"image_id": "q\\"\\\\\\u00e9"' in text

    @pytest.mark.parametrize("m", [_DETECTION_BLOCK - 1, _DETECTION_BLOCK, _DETECTION_BLOCK + 1,
                                   2 * _DETECTION_BLOCK + 3])
    @pytest.mark.parametrize("spread", [True, False], ids=["first-middle-last", "last-only"])
    def test_bytes_equal_json_dumps_across_blocks(self, tmp_path, m, spread):
        """Records straddling block boundaries; non-finite cells and format
        characters in the first, a middle and the last block, or only in the
        last, so a block of finite cells precedes one with non-finite cells."""
        ids = ("a", "%s", "{}", "%(x)s")
        rng = np.random.default_rng(m)
        image, lesion = np.zeros(m, np.int64), rng.integers(0, len(LESION_TYPES), m)
        box, score = rng.random((m, 4)), rng.random(m)
        for k, at in enumerate((0, m // 2, m - 1) if spread else (m - 1,)):
            image[at] = 1 + k
            box[at, k] = (np.nan, np.inf, -np.inf)[k]
            score[at] = (-np.inf, np.nan, np.inf)[k]
        table = DetectionTable(ids, image, lesion, box, score)
        save_detections(tmp_path / "d.json", table)
        assert (tmp_path / "d.json").read_text() == _json_dumps_detections(table)


def traced_peak(call):
    """The most memory ``call()`` holds at once beyond what was held before, as tracemalloc counts it."""
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()


class TestBoundedMemory:
    def test_save_detections_peaks_below_half_the_file(self, tmp_path):
        cfg = shift_profile("vein_hostile", seed=7)
        table = gen_dataset(replace(cfg, domains=cfg.domains[:1])).detections["clinic_a"]
        path = tmp_path / "d.json"
        peak = traced_peak(lambda: save_detections(path, table))
        assert (len(table.score), path.stat().st_size) == (28484, 4454433)
        assert peak < path.stat().st_size / 2

    def test_write_dataset_holds_one_domain_at_a_time(self, tmp_path):
        cfg = shift_profile("vein_hostile", seed=7)
        first = replace(cfg, domains=cfg.domains[:1])
        write_dataset(first, tmp_path / "warm")  # first-call costs (lazy imports, caches) are not per domain
        one = traced_peak(lambda: write_dataset(first, tmp_path / "one"))
        every = traced_peak(lambda: write_dataset(cfg, tmp_path / "every"))
        assert every < 1.2 * one

    def test_file_digest_peaks_below_2_mib(self, tmp_path):
        path = tmp_path / "blob"
        path.write_bytes(np.random.default_rng(0).bytes(8 << 20))
        assert traced_peak(lambda: file_digest(path)) < 2 << 20


class TestFileDigest:
    @pytest.mark.parametrize("size", [0, 1, _DIGEST_BLOCK - 1, _DIGEST_BLOCK, _DIGEST_BLOCK + 1])
    def test_equals_sha256_of_the_bytes(self, tmp_path, size):
        path = tmp_path / "blob"
        path.write_bytes(np.random.default_rng(size).bytes(size))
        assert file_digest(path) == hashlib.sha256(path.read_bytes()).hexdigest()


class TestManifest:
    def test_load_resolves_paths(self, tmp_path):
        (tmp_path / "a.csv").write_text(LESIONS_HEADER_LINE + "\n")
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"domains": [{"name": "A", "features": "a.csv"}], "seeds": [0, 1]}))
        m = load_manifest(manifest)
        assert m.domains[0].name == "a"
        assert m.domains[0].features == (tmp_path / "a.csv").resolve()

    def test_duplicate_domains_rejected(self, tmp_path):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"domains": [
            {"name": "a", "features": "a.csv"},
            {"name": "A", "features": "b.csv"},
        ]}))
        from kgdg.errors import InvalidConfig

        with pytest.raises(InvalidConfig):
            load_manifest(manifest)


def _toy_examples(n=40, seed=0, domain="d"):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        g = int(rng.integers(0, 5))
        out.append(
            RefExample(
                image_id=f"{domain}{i}",
                domain=DomainId(domain),
                grade=DRGrade(g),
                features=RefFeatureVector(
                    microaneurysm_count=int(rng.poisson(1 + 2 * g)),
                    exudate_count=int(rng.poisson(g)),
                    hard_hemorrhage_count=int(rng.poisson(2 * g)),
                    hemorrhage_quadrants=int(min(4, rng.integers(0, g + 1))),
                ),
            )
        )
    return out


def _edited_artifact(tmp_path, cfg, edit):
    """An artifact of ``cfg`` fitted on toy examples, its JSON payload passed
    through ``edit``, with digests that match, as a hand-made file's would."""
    examples = _toy_examples(40)
    path = tmp_path / "m.kgdg"
    save_model(fit_examples(examples[:30], examples[30:], cfg).to_artifact(), path)
    raw = json.loads(path.read_text().split("\n", 3)[3])
    edit(raw)
    body = canonical_json({k: raw[k] for k in ("model_kind", "params", "train_fingerprint")})
    schema = canonical_json(raw["feature_schema"])
    path.write_text(f"KGDG1\n{content_digest(body)}\n{content_digest(schema)}\n{canonical_json(raw)}\n")
    return path


class TestModelArtifact:
    def test_round_trip_predictions_identical(self, tmp_path):
        examples = _toy_examples(60)
        model = fit_examples(examples[:50], examples[50:], TrainConfig(n_trees=20, min_leaf=2, seed=1))
        path = tmp_path / "m.kgdg"
        save_model(model.to_artifact(), path)
        loaded = model_from_artifact(load_model(path))
        rng = np.random.default_rng(0)
        probe = rng.uniform(0, 10, size=(1000, 8))
        assert np.array_equal(model.predict_proba_matrix(probe), loaded.predict_proba_matrix(probe))

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_save_is_byte_stable(self, tmp_path, kind):
        examples = _toy_examples(40)
        cfg = TrainConfig(model_kind=kind, n_trees=5, min_leaf=2, k_neighbors=3, seed=1)
        model = fit_examples(examples[:30], examples[30:], cfg)
        p1, p2 = tmp_path / "a.kgdg", tmp_path / "b.kgdg"
        save_model(model.to_artifact(), p1)
        loaded = model_from_artifact(load_model(p1))
        save_model(loaded.to_artifact(), p2)
        assert type(loaded) is type(model) and model.kind == kind
        assert p1.read_bytes() == p2.read_bytes()

    def test_gbm_artifact_without_best_round_is_corrupt(self, tmp_path):
        examples = _toy_examples(60)
        cfg = TrainConfig(n_trees=8, min_leaf=2, early_stop_patience=8, seed=1)
        artifact = fit_examples(examples[:50], examples[50:], cfg).to_artifact()
        params = {k: v for k, v in artifact.params.items() if k != "best_round"}
        path = tmp_path / "old.kgdg"
        save_model(replace(artifact, params=params), path)
        with pytest.raises(CorruptArtifact, match=re.escape(f"{path}: gbm artifact has no param 'best_round'")):
            model_from_artifact(load_model(path))

    def test_edited_schema_raises_schema_mismatch(self, tmp_path):
        examples = _toy_examples(40)
        model = fit_examples(examples[:30], examples[30:], TrainConfig(n_trees=3, min_leaf=2, seed=1))
        path = tmp_path / "m.kgdg"
        save_model(model.to_artifact(), path)
        text = path.read_text()
        tampered = text.replace("microaneurysm_count", "microaneurysm_edited", 1)
        assert tampered != text
        path.write_text(tampered)
        with pytest.raises(SchemaMismatch):
            load_model(path)

    def test_truncated_file_raises_corrupt(self, tmp_path):
        examples = _toy_examples(40)
        model = fit_examples(examples[:30], examples[30:], TrainConfig(n_trees=3, min_leaf=2, seed=1))
        path = tmp_path / "m.kgdg"
        save_model(model.to_artifact(), path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(CorruptArtifact):
            load_model(path)

    def test_edited_params_raises_corrupt(self, tmp_path):
        examples = _toy_examples(40)
        model = fit_examples(examples[:30], examples[30:], TrainConfig(n_trees=3, min_leaf=2, seed=1))
        path = tmp_path / "m.kgdg"
        save_model(model.to_artifact(), path)
        path.write_text(path.read_text().replace('"learning_rate":0.1', '"learning_rate":0.9'))
        with pytest.raises(CorruptArtifact):
            load_model(path)

    def test_missing_magic(self, tmp_path):
        path = tmp_path / "m.kgdg"
        path.write_text("not a model")
        with pytest.raises(CorruptArtifact):
            load_model(path)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda raw: raw.update(model_kind="svm"), "unknown model_kind 'svm'"),
            (lambda raw: raw.update(params=[1, 2]), "params is not an object"),
            (lambda raw: raw["params"].pop("points"), "knn artifact has no param 'points'"),
            (lambda raw: raw["params"].update(points="zz"), "param 'points' is ill-typed"),
            (lambda raw: raw["params"].update(k=[3]), "param 'k' is ill-typed"),
            (lambda raw: raw["params"].update(grades=[2**70]), "param 'grades' is ill-typed"),
        ],
        ids=["unknown_kind", "params_not_object", "missing_param", "ill_typed_array", "ill_typed_int",
             "overflowing_int"],
    )
    def test_malformed_artifact_raises_corrupt(self, tmp_path, edit, message):
        cfg = TrainConfig(model_kind="knn", k_neighbors=3, seed=1)
        path = _edited_artifact(tmp_path, cfg, edit)
        with pytest.raises(CorruptArtifact, match=re.escape(f"{path}: ") + ".*" + re.escape(message)):
            model_from_artifact(load_model(path))

    @pytest.mark.parametrize("kind", ["gbm", "forest"])
    @pytest.mark.parametrize(
        "trees, message",
        [
            ([{"bogus": 1}], "param 'trees' is malformed"),
            ("zz", "param 'trees' is malformed"),
            ([[{"feature": 99, "threshold": 0.5, "left": {"value": 0.0}, "right": {"value": 1.0}}]],
             "param 'trees' splits on a feature outside the 8 of its schema"),
        ],
        ids=["node_without_children", "string", "feature_out_of_range"],
    )
    def test_malformed_trees_raise_corrupt_at_load(self, tmp_path, kind, trees, message):
        if kind == "forest" and isinstance(trees, list) and isinstance(trees[0], list):
            trees = trees[0]  # a forest's trees are not grouped in rounds
        path = _edited_artifact(tmp_path, TrainConfig(model_kind=kind, n_trees=3, min_leaf=2, seed=1),
                                lambda raw: raw["params"].update(trees=trees))
        with pytest.raises(CorruptArtifact, match=re.escape(f"{path}: {message}")):
            model_from_artifact(load_model(path))

    @pytest.mark.parametrize(
        "kind, param, value, message",
        [
            ("gbm", "trees", [[{"value": 0.5}] * 3], "param 'trees' has shape (3,), expected (5,)"),
            ("gbm", "trees", [[{"value": [1.0, 2.0]}] * 5], "param 'trees' has shape (5, 2), expected (5,)"),
            ("gbm", "base_scores", [0.0, 0.0], "param 'base_scores' has shape (2,), expected (5,)"),
            ("forest", "trees", [{"value": 0.5}], "param 'trees' has shape (1,), expected (1, 5)"),
            ("forest", "trees", [{"value": [0.5, 0.5]}], "param 'trees' has shape (1, 2), expected (1, 5)"),
            ("logistic", "weights", [[0.0] * 3] * 4, "param 'weights' has shape (4, 3), expected (5, 8)"),
            ("logistic", "bias", [0.0] * 3, "param 'bias' has shape (3,), expected (5,)"),
            ("logistic", "mean", [0.0] * 2, "param 'mean' has shape (2,), expected (8,)"),
            ("logistic", "std", [[1.0] * 8], "param 'std' has shape (1, 8), expected (8,)"),
            ("knn", "points", [[0.0] * 2] * 30, "param 'points' has shape (30, 2), expected (30, 8)"),
            ("knn", "grades", [0] * 9, "param 'grades' has shape (9,), expected (30,)"),
            ("knn", "grades", [5] * 30, "param 'grades' holds a grade outside 0..4"),
            ("knn", "mean", [0.0] * 2, "param 'mean' has shape (2,), expected (8,)"),
            ("knn", "std", 1.0, "param 'std' has shape (), expected (8,)"),
            ("knn", "k", 0, "param 'k' is 0, outside 1..30, the stored rows"),
            # the five below would predict NaN rows, or rows that do not sum to 1
            ("logistic", "std", [0.0] * 8, "param 'std' holds a value that is not positive and finite"),
            ("knn", "std", [0.0] * 8, "param 'std' holds a value that is not positive and finite"),
            ("knn", "std", [1.0] * 7 + [-1.0], "param 'std' holds a value that is not positive and finite"),
            ("forest", "trees", [{"value": [2.0, 0.0, 0.0, 0.0, 0.0]}],
             "param 'trees' holds a leaf that is not a grade distribution"),
            ("forest", "trees", [{"value": [1.5, -0.5, 0.0, 0.0, 0.0]}],
             "param 'trees' holds a leaf that is not a grade distribution"),
        ],
        ids=["gbm_round_of_3", "gbm_vector_leaf", "gbm_base_scores", "forest_scalar_leaf", "forest_short_leaf",
             "logistic_weights", "logistic_bias", "logistic_mean", "logistic_std", "knn_points", "knn_grades",
             "knn_grade_range", "knn_mean", "knn_std", "knn_k", "logistic_zero_std", "knn_zero_std",
             "knn_negative_std", "forest_leaf_sum_2", "forest_negative_leaf"],
    )
    def test_ill_shaped_param_raises_corrupt_at_load(self, tmp_path, kind, param, value, message):
        cfg = TrainConfig(model_kind=kind, n_trees=3, min_leaf=2, k_neighbors=3, seed=1)
        path = _edited_artifact(tmp_path, cfg, lambda raw: raw["params"].update({param: value}))
        with pytest.raises(CorruptArtifact, match=re.escape(f"{path}: {message}")):
            model_from_artifact(load_model(path))

    def test_non_utf8_file_raises_corrupt(self, tmp_path):
        examples = _toy_examples(40)
        model = fit_examples(examples[:30], examples[30:], TrainConfig(n_trees=3, min_leaf=2, seed=1))
        path = tmp_path / "m.kgdg"
        save_model(model.to_artifact(), path)
        path.write_bytes(path.read_bytes().replace(b'"learning_rate"', b'"learning\xff_rate"'))
        with pytest.raises(CorruptArtifact, match=re.escape(f"{path}: not UTF-8 text: ")):
            load_model(path)
