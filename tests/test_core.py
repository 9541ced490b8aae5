import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kgdg.core import (
    BoundingBox,
    Detection,
    DetectionTable,
    DomainId,
    DRGrade,
    FeatureVector,
    FusionWeights,
    LesionType,
    RenormalizationWarning,
    validate_probability,
)
from kgdg.errors import NegativeProbability, SumOutOfTolerance
from kgdg.metrics import match_detections


class TestValidateProbability:
    def test_uniform_accepted_unchanged(self):
        pv = validate_probability([0.2, 0.2, 0.2, 0.2, 0.2])
        assert pv.probs == (0.2, 0.2, 0.2, 0.2, 0.2)

    def test_one_hot_accepted(self):
        pv = validate_probability([1, 0, 0, 0, 0])
        assert pv.probs == (1.0, 0.0, 0.0, 0.0, 0.0)
        assert pv.argmax() == 0

    def test_sum_out_of_tolerance(self):
        with pytest.raises(SumOutOfTolerance):
            validate_probability([0.3, 0.3, 0.3, 0.3, 0.3])

    def test_negative_rejected(self):
        with pytest.raises(NegativeProbability):
            validate_probability([-0.1, 0.4, 0.3, 0.2, 0.2])

    def test_small_deviation_renormalized_with_warning(self):
        vals = [0.2, 0.2, 0.2, 0.2, 0.20005]
        with pytest.warns(RenormalizationWarning):
            pv = validate_probability(vals)
        assert math.isclose(sum(pv.probs), 1.0, abs_tol=1e-12)

    def test_wrong_arity_rejected(self):
        with pytest.raises(ValueError):
            validate_probability([0.5, 0.5])

    @given(st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=5, max_size=5))
    def test_round_trip_revalidates_unchanged(self, raw):
        total = sum(raw)
        pv = validate_probability([v / total for v in raw])
        again = validate_probability(list(pv.probs))
        assert again.probs == pv.probs

    def test_argmax_tie_breaks_low(self):
        pv = validate_probability([0.3, 0.3, 0.2, 0.1, 0.1])
        assert pv.argmax() == 0


class TestBoundingBox:
    def test_valid_box(self):
        b = BoundingBox(0.1, 0.2, 0.3, 0.4)
        assert (b.x + b.w / 2.0, b.y + b.h / 2.0) == (0.25, 0.4)  # the center rules.detection_counts bins by

        def table(box):
            return DetectionTable.from_detections({"i": [Detection(LesionType.MICROANEURYSM, box, 1.0)]})

        # the area is the box's IoU with the whole image
        assert math.isclose(match_detections(table(b), table(BoundingBox(0.0, 0.0, 1.0, 1.0)), 0.0).mean_matched_iou,
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
    def test_invalid_boxes(self, kwargs):
        from kgdg.errors import BoxOutOfBounds

        with pytest.raises(BoxOutOfBounds):
            BoundingBox(**kwargs)

    def test_edge_epsilon_allowed(self):
        BoundingBox(0.5, 0.5, 0.5, 0.5)  # x+w == 1 exactly


class TestFeatureVector:
    def test_vein_fields_jointly_present(self):
        with pytest.raises(ValueError):
            FeatureVector(vein_tortuosity=1.0)

    def test_vein_ranges(self):
        with pytest.raises(ValueError):
            FeatureVector(vein_tortuosity=1.0, vein_caliber_mean=5.0, vein_branch_angle_mean=190.0)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            FeatureVector(microaneurysm_count=-1)

    def test_quadrants_bounded(self):
        with pytest.raises(ValueError):
            FeatureVector(hemorrhage_quadrants=5)

    @pytest.mark.parametrize("field, value", [
        ("vein_tortuosity", math.nan),
        ("vein_caliber_mean", math.inf),
        ("vein_branch_angle_mean", math.nan),
        ("microaneurysm_count", math.inf),
    ])
    def test_non_finite_rejected(self, field, value):
        vein = {"vein_tortuosity": 1.0, "vein_caliber_mean": 5.0, "vein_branch_angle_mean": 90.0}
        with pytest.raises(ValueError, match="finite"):
            FeatureVector(**{**vein, field: value})

    def test_as_row_lesions_only(self):
        fv = FeatureVector(microaneurysm_count=3, exudate_count=5)
        row = fv.as_row(fv.schema())
        assert row[0] == 3.0 and row[1] == 5.0 and len(row) == 8

    def test_as_row_missing_vein_raises(self):
        fv = FeatureVector()
        with pytest.raises(ValueError):
            fv.as_row(("vein_tortuosity",))


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

    def test_detection_score_range(self):
        box = BoundingBox(0.1, 0.1, 0.2, 0.2)
        with pytest.raises(ValueError):
            Detection(LesionType.MICROANEURYSM, box, 1.5)

    def test_fusion_weights(self):
        with pytest.raises(ValueError):
            FusionWeights(0.0, 0.0)
        with pytest.raises(ValueError):
            FusionWeights(-0.5, 1.0)
        FusionWeights(1.0, 0.0)

    def test_unknown_lesion_kind_rejected(self):
        with pytest.raises(ValueError):
            LesionType("glaucoma")
