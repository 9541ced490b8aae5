import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from kgdg.core import (
    LESIONS_ONLY_SCHEMA,
    DomainId,
    DRGrade,
    FusionWeights,
    LesionType,
    RenormalizationWarning,
    validate_probability_rows,
)
from kgdg.errors import (
    BoxOutOfBounds,
    DataError,
    MissingColumn,
    NegativeProbability,
    NonNumericCell,
    SchemaMismatch,
    SumOutOfTolerance,
)
from kgdg.fusion import fuse
from kgdg.io import LESIONS_VEIN_HEADER, read_detections, read_feature_table, read_probability_table
from kgdg.learn import feature_matrix
from kgdg.metrics import match_detections


def validate(values):
    """One row through validate_probability_rows, as a tuple."""
    return tuple(validate_probability_rows(np.array([values], dtype=np.float64))[0].tolist())


def read_box(tmp_path, x, y, w, h, score=1.0):
    """read_detections of one microaneurysm record with this box and score."""
    path = tmp_path / "box.json"
    path.write_text(json.dumps([{"image_id": "i", "lesion": "microaneurysm", "x": x, "y": y, "w": w, "h": h,
                                 "score": score}]))
    return read_detections(path)


class TestValidateProbability:
    def test_uniform_accepted_unchanged(self):
        assert validate([0.2, 0.2, 0.2, 0.2, 0.2]) == (0.2, 0.2, 0.2, 0.2, 0.2)

    def test_one_hot_accepted(self):
        assert validate([1, 0, 0, 0, 0]) == (1.0, 0.0, 0.0, 0.0, 0.0)

    def test_sum_out_of_tolerance(self):
        with pytest.raises(SumOutOfTolerance):
            validate([0.3, 0.3, 0.3, 0.3, 0.3])

    def test_negative_zero_row_sums_to_negative_zero(self):
        # the columns add left to right from the first one, with no 0 to start from
        with pytest.raises(SumOutOfTolerance, match=r"^probabilities sum to -0\.0, deviation 1 exceeds"):
            validate([-0.0] * 5)

    def test_negative_rejected(self):
        with pytest.raises(NegativeProbability):
            validate([-0.1, 0.4, 0.3, 0.2, 0.2])

    def test_small_deviation_renormalized_with_warning(self):
        vals = [0.2, 0.2, 0.2, 0.2, 0.20005]
        with pytest.warns(RenormalizationWarning):
            row = validate(vals)
        assert math.isclose(sum(row), 1.0, abs_tol=1e-12)

    def test_wrong_arity_rejected(self, tmp_path):
        # a row's arity is the reader's check: rows reach validation five wide
        path = tmp_path / "p.csv"
        path.write_text("image_id,p0,p1,p2,p3,p4\nimg1,0.5,0.5\n")
        with pytest.raises(MissingColumn, match="row 2 has 3 cells, expected 6"):
            read_probability_table(path)

    @given(st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=5, max_size=5))
    def test_round_trip_revalidates_unchanged(self, raw):
        total = sum(raw)
        row = validate([v / total for v in raw])
        assert validate(list(row)) == row

    def test_argmax_tie_breaks_low(self):
        row = validate_probability_rows(np.array([[0.3, 0.3, 0.2, 0.1, 0.1]]))
        assert fuse("max", row, row, FusionWeights(1.0, 0.0))[0].tolist() == [0]


class TestBoundingBox:
    def test_valid_box(self, tmp_path):
        table = read_box(tmp_path, 0.1, 0.2, 0.3, 0.4)
        (x, y, w, h), = table.box.tolist()
        assert (x + w / 2.0, y + h / 2.0) == (0.25, 0.4)  # the center rules.aggregate_detections bins by
        # the area is the box's IoU with the whole image
        assert math.isclose(match_detections(table, read_box(tmp_path, 0.0, 0.0, 1.0, 1.0), 0.0).mean_matched_iou,
                            0.12)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(x=-0.1, y=0.0, w=0.5, h=0.5),
            dict(x=0.0, y=0.0, w=0.0, h=0.5),
            dict(x=0.8, y=0.0, w=0.3, h=0.5),
            dict(x=0.0, y=0.9, w=0.5, h=0.2),
        ],
    )
    def test_invalid_boxes(self, tmp_path, kwargs):
        with pytest.raises(BoxOutOfBounds):
            read_box(tmp_path, **kwargs)

    def test_edge_epsilon_allowed(self, tmp_path):
        read_box(tmp_path, 0.5, 0.5, 0.5, 0.5)  # x+w == 1 exactly


def read_row(tmp_path, row, header=LESIONS_VEIN_HEADER):
    """read_feature_table of a table with one row, given by column name over
    a valid lesions+vein row."""
    cells = dict(zip(LESIONS_VEIN_HEADER, ["i", "d", "0", "3", "5", "0", "0", "0", "0", "0", "0", "1.0", "5.0",
                                           "90.0"]), **row)
    path = tmp_path / "f.csv"
    path.write_text(",".join(header) + "\n" + ",".join(cells[name] for name in header) + "\n")
    return read_feature_table(path)


class TestFeatureVector:
    """A features row's checks, now the feature reader's column checks and
    feature_matrix's schema check."""

    def test_vein_fields_jointly_present(self, tmp_path):
        with pytest.raises(MissingColumn, match="header does not match a known feature schema"):
            read_row(tmp_path, {}, LESIONS_VEIN_HEADER[:-2])

    def test_vein_ranges(self, tmp_path):
        with pytest.raises(NonNumericCell, match=r"'vein_branch_angle_mean': 190.0 outside \[0.0,180.0\]"):
            read_row(tmp_path, {"vein_branch_angle_mean": "190"})

    def test_negative_count_rejected(self, tmp_path):
        with pytest.raises(NonNumericCell, match="'microaneurysm_count': -1 outside >= 0"):
            read_row(tmp_path, {"microaneurysm_count": "-1"})

    def test_quadrants_bounded(self, tmp_path):
        with pytest.raises(NonNumericCell, match="'hemorrhage_quadrants': 5 outside 0..4"):
            read_row(tmp_path, {"hemorrhage_quadrants": "5"})

    @pytest.mark.parametrize("field, value", [
        ("vein_tortuosity", math.nan),
        ("vein_caliber_mean", math.inf),
        ("vein_branch_angle_mean", math.nan),
        ("microaneurysm_count", math.inf),
    ])
    def test_non_finite_rejected(self, tmp_path, field, value):
        problem = "is not an integer" if field == "microaneurysm_count" else "is not a finite number"
        with pytest.raises(NonNumericCell, match=f"'{field}': '{value}' {problem}"):
            read_row(tmp_path, {field: str(value)})

    def test_as_row_lesions_only(self, tmp_path):
        table = read_row(tmp_path, {}, LESIONS_VEIN_HEADER[:11])
        row = feature_matrix(table, table.schema)[0].tolist()
        assert row[0] == 3.0 and row[1] == 5.0 and len(row) == 8

    def test_as_row_missing_vein_raises(self, tmp_path):
        table = read_row(tmp_path, {}, LESIONS_VEIN_HEADER[:11])
        assert table.schema == LESIONS_ONLY_SCHEMA
        with pytest.raises(SchemaMismatch, match="feature 'vein_tortuosity' absent from this vector"):
            feature_matrix(table, ("vein_tortuosity",))


class TestSmallTypes:
    def test_domain_id_normalizes(self):
        assert DomainId(" Aptos ") == "aptos"
        with pytest.raises(ValueError):
            DomainId("   ")

    def test_grade_labels(self):
        assert DRGrade(4).label == "PDR"
        assert DRGrade.NO_DR.label == "No DR"
        with pytest.raises(ValueError):
            DRGrade(5)

    def test_detection_score_range(self, tmp_path):
        with pytest.raises(DataError, match=r"detection score 1.5 outside \[0,1\]"):
            read_box(tmp_path, 0.1, 0.1, 0.2, 0.2, score=1.5)

    def test_fusion_weights(self):
        with pytest.raises(ValueError):
            FusionWeights(0.0, 0.0)
        with pytest.raises(ValueError):
            FusionWeights(-0.5, 1.0)
        FusionWeights(1.0, 0.0)

    def test_unknown_lesion_kind_rejected(self):
        with pytest.raises(ValueError):
            LesionType("glaucoma")
