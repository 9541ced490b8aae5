import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgdg.core import (
    LESION_TYPES,
    DetectionTable,
    DomainId,
    DRGrade,
    FeatureVector,
    LabeledExample,
    validate_probability,
)
from kgdg.errors import (
    BoxOutOfBounds,
    CorruptArtifact,
    DuplicateImageId,
    MissingColumn,
    NonNumericCell,
    SchemaMismatch,
    SumOutOfTolerance,
    UnknownImageId,
    UnknownLesionKind,
)
from kgdg.io import (
    LESIONS_ONLY_HEADER,
    LESIONS_VEIN_HEADER,
    DomainEntry,
    load_detections,
    load_domain_dataset,
    load_feature_table,
    load_manifest,
    load_model,
    load_probability_table,
    save_detections,
    save_feature_table,
    save_model,
    save_probability_table,
)
from kgdg.learn import TrainConfig, model_from_artifact

from test_learn import domain_table, fit_examples

LESIONS_HEADER_LINE = ",".join(LESIONS_ONLY_HEADER)
VEIN_HEADER_LINE = ",".join(LESIONS_VEIN_HEADER)


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
        assert ex.features.microaneurysm_count == 3
        assert ex.features.exudate_count == 5
        assert ex.features.cotton_wool_count == 2
        assert ex.features.hemorrhage_quadrants == 3
        assert not ex.features.has_vein

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
        examples = [
            LabeledExample(
                image_id=f"img{i}",
                domain=DomainId("synth"),
                grade=DRGrade(i % 5),
                features=FeatureVector(microaneurysm_count=i, hemorrhage_quadrants=i % 5),
            )
            for i in range(6)
        ]
        path = tmp_path / "f.csv"
        save_feature_table(path, domain_table(examples))
        assert load_feature_table(path) == examples

    def test_round_trip_with_vein(self, tmp_path):
        examples = [
            LabeledExample(
                image_id="v1",
                domain=DomainId("synth"),
                grade=DRGrade.MILD,
                features=FeatureVector(
                    microaneurysm_count=2,
                    vein_tortuosity=1.25,
                    vein_caliber_mean=8.5,
                    vein_branch_angle_mean=77.125,
                ),
            )
        ]
        path = tmp_path / "f.csv"
        save_feature_table(path, domain_table(examples))
        assert load_feature_table(path) == examples


class TestProbabilityTable:
    def test_load_and_validate(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("image_id,p0,p1,p2,p3,p4\nimg1,0.1,0.2,0.3,0.2,0.2\n")
        table = load_probability_table(path)
        assert table["img1"].probs == (0.1, 0.2, 0.3, 0.2, 0.2)

    def test_sum_out_of_tolerance(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("image_id,p0,p1,p2,p3,p4\nimg1,0.5,0.5,0.5,0,0\n")
        with pytest.raises(SumOutOfTolerance):
            load_probability_table(path)

    @staticmethod
    def _entry(tmp_path, image_id, table):
        features, probs = tmp_path / "f.csv", tmp_path / "p.csv"
        save_feature_table(features, domain_table([LabeledExample(image_id, DomainId("d"), DRGrade.NO_DR, FeatureVector())]))
        save_probability_table(probs, table)
        return DomainEntry(DomainId("d"), features, probs)

    def test_join_missing_image(self, tmp_path):
        entry = self._entry(tmp_path, "img7", {"img1": validate_probability([1, 0, 0, 0, 0])})
        with pytest.raises(UnknownImageId):
            load_domain_dataset(entry)

    def test_join_attaches_probs(self, tmp_path):
        entry = self._entry(tmp_path, "a", {"a": validate_probability([0, 0, 1, 0, 0])})
        assert load_domain_dataset(entry).probs[0].argmax() == 2


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
        dets = load_detections(path)
        assert len(dets["i1"]) == 2

    def test_unknown_lesion(self, tmp_path):
        path = tmp_path / "d.json"
        path.write_text(json.dumps([{"image_id": "i1", "lesion": "drusen", "x": 0.1, "y": 0.1, "w": 0.1, "h": 0.1, "score": 0.5}]))
        with pytest.raises(UnknownLesionKind):
            load_detections(path)

    def test_box_out_of_bounds(self, tmp_path):
        path = tmp_path / "d.json"
        path.write_text(json.dumps([{"image_id": "i1", "lesion": "microaneurysm", "x": 0.95, "y": 0.1, "w": 0.2, "h": 0.1, "score": 0.5}]))
        with pytest.raises(BoxOutOfBounds):
            load_detections(path)


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
_cells = st.floats(allow_nan=True, allow_infinity=True) | st.floats(0, 1)


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


class TestManifest:
    def test_load_resolves_paths(self, tmp_path):
        (tmp_path / "a.csv").write_text(LESIONS_HEADER_LINE + "\n")
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"domains": [{"name": "A", "features": "a.csv"}], "seeds": [0, 1]}))
        m = load_manifest(manifest)
        assert m.domains[0].name == "a"
        assert m.domains[0].features == (tmp_path / "a.csv").resolve()
        assert m.seeds == (0, 1)

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
            LabeledExample(
                image_id=f"{domain}{i}",
                domain=DomainId(domain),
                grade=DRGrade(g),
                features=FeatureVector(
                    microaneurysm_count=int(rng.poisson(1 + 2 * g)),
                    exudate_count=int(rng.poisson(g)),
                    hard_hemorrhage_count=int(rng.poisson(2 * g)),
                    hemorrhage_quadrants=int(min(4, rng.integers(0, g + 1))),
                ),
            )
        )
    return out


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

    def test_save_is_byte_stable(self, tmp_path):
        examples = _toy_examples(40)
        model = fit_examples(examples[:30], examples[30:], TrainConfig(n_trees=5, min_leaf=2, seed=1))
        p1, p2 = tmp_path / "a.kgdg", tmp_path / "b.kgdg"
        save_model(model.to_artifact(), p1)
        save_model(model_from_artifact(load_model(p1)).to_artifact(), p2)
        assert p1.read_bytes() == p2.read_bytes()

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
