import dataclasses

import numpy as np
import pytest

from kgdg.core import BoundingBox, Detection, DRGrade, FeatureVector, LesionType
from kgdg.errors import InvalidConfig
from kgdg.rules import (
    RuleConfig,
    aggregate_detections,
    grade_by_rules,
    rule_grade_as_probability,
)


def box_at(cx, cy, size=0.02):
    return BoundingBox(cx - size / 2, cy - size / 2, size, size)


def hemorrhage(box):
    return Detection(LesionType.HARD_HEMORRHAGE, box, 0.9)


def quadrant(box):
    """The quadrant (1=top-left, 2=top-right, 3=bottom-left, 4=bottom-right)
    a hemorrhage at ``box`` is binned into: the one whose reference
    hemorrhage it shares a single quadrant with."""
    references = {1: box_at(0.2, 0.2), 2: box_at(0.8, 0.2), 3: box_at(0.2, 0.8), 4: box_at(0.8, 0.8)}
    shared = [q for q, ref in references.items()
              if aggregate_detections([hemorrhage(box), hemorrhage(ref)], 0.0).hemorrhage_quadrants == 1]
    assert len(shared) == 1
    return shared[0]


class TestAssignQuadrant:
    @pytest.mark.parametrize(
        "box,expected",
        [
            (BoundingBox(0.1, 0.1, 0.2, 0.2), 1),  # center (0.2, 0.2)
            (BoundingBox(0.6, 0.6, 0.2, 0.2), 4),  # center (0.7, 0.7)
            (box_at(0.7, 0.2), 2),
            (box_at(0.2, 0.7), 3),
        ],
    )
    def test_quadrants(self, box, expected):
        assert quadrant(box) == expected

    def test_exact_center_goes_to_one(self):
        assert quadrant(BoundingBox(0.4, 0.4, 0.2, 0.2)) == 1

    def test_axis_ties_take_lower_quadrant(self):
        assert quadrant(box_at(0.5, 0.7)) == 3  # vertical axis, bottom
        assert quadrant(box_at(0.7, 0.5)) == 2  # horizontal axis, right


class TestAggregateDetections:
    def test_empty_is_all_zero(self):
        fv = aggregate_detections([], min_score=0.0)
        assert fv == FeatureVector()
        assert not fv.has_vein

    def test_hemorrhages_all_quadrants(self):
        centers = [(0.2, 0.2), (0.8, 0.2), (0.2, 0.8), (0.8, 0.8)]
        dets = []
        for i in range(21):
            cx, cy = centers[i % 4]
            dets.append(Detection(LesionType.HARD_HEMORRHAGE, box_at(cx, cy), 0.9))
        fv = aggregate_detections(dets, min_score=0.0)
        assert fv.hard_hemorrhage_count == 21
        assert fv.hemorrhage_quadrants == 4

    def test_threshold_filters(self):
        det = Detection(LesionType.NEOVASCULARIZATION, box_at(0.3, 0.3), 0.3)
        fv = aggregate_detections([det], min_score=0.5)
        assert not fv.neovascularization_present
        fv2 = aggregate_detections([det], min_score=0.2)
        assert fv2.neovascularization_present

    def test_subhyaloid_not_counted_in_quadrants(self):
        dets = [Detection(LesionType.SUBHYALOID_HEMORRHAGE, box_at(0.2, 0.2), 0.9)]
        fv = aggregate_detections(dets, min_score=0.0)
        assert fv.subhyaloid_present
        assert fv.hemorrhage_quadrants == 0

    def test_permutation_invariant(self):
        rng = np.random.default_rng(7)
        dets = [
            Detection(
                LesionType(kind),
                box_at(rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9)),
                float(rng.uniform(0, 1)),
            )
            for kind in rng.choice([k.value for k in LesionType], size=40)
        ]
        base = aggregate_detections(dets, 0.0)
        perm = list(dets)
        rng.shuffle(perm)
        assert aggregate_detections(perm, 0.0) == base


# One fixture per rule plus interaction cases (the full clinical ladder).
RULE_FIXTURES = [
    (dict(neovascularization_present=True), DRGrade.PDR, "R1"),
    (dict(neovascularization_present=True, microaneurysm_count=3), DRGrade.PDR, "R1"),
    (dict(subhyaloid_present=True), DRGrade.PDR, "R2"),
    (dict(subhyaloid_present=True, exudate_count=2), DRGrade.PDR, "R2"),
    (dict(hard_hemorrhage_count=25, hemorrhage_quadrants=4), DRGrade.SEVERE, "R3"),
    (dict(hard_hemorrhage_count=13, soft_hemorrhage_count=12, hemorrhage_quadrants=4), DRGrade.SEVERE, "R3"),
    (dict(hard_hemorrhage_count=25, hemorrhage_quadrants=3), DRGrade.MODERATE, "R6"),
    (dict(hard_hemorrhage_count=20, hemorrhage_quadrants=4), DRGrade.MODERATE, "R6"),
    (dict(cotton_wool_count=5), DRGrade.SEVERE, "R4"),
    (dict(cotton_wool_count=1), DRGrade.MODERATE, "R5"),
    (dict(exudate_count=1), DRGrade.MODERATE, "R6"),
    (dict(soft_hemorrhage_count=1), DRGrade.MODERATE, "R6"),
    (dict(microaneurysm_count=3), DRGrade.MILD, "R7"),
    (dict(microaneurysm_count=1), DRGrade.MILD, "R7"),
    (dict(), DRGrade.NO_DR, "R8"),
]


class TestGradeByRules:
    @pytest.mark.parametrize("kwargs,grade,rule", RULE_FIXTURES)
    def test_rule_fixture(self, kwargs, grade, rule):
        trace = grade_by_rules(FeatureVector(**kwargs))
        assert trace.grade == grade
        assert trace.fired_rules == (rule,)

    def test_total_function_on_random_vectors(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            fv = _random_feature(rng)
            trace = grade_by_rules(fv)
            assert trace.fired_rules
            assert 0 <= int(trace.grade) <= 4

    def test_cws_threshold_configurable(self):
        cfg = RuleConfig(cws_severe_threshold=2)
        assert grade_by_rules(FeatureVector(cotton_wool_count=2), cfg).grade == DRGrade.SEVERE

    def test_monotone_under_augmentation(self):
        rng = np.random.default_rng(11)
        for _ in range(2000):
            fv = _random_feature(rng)
            before = int(grade_by_rules(fv).grade)
            after = int(grade_by_rules(_augment(fv, rng)).grade)
            assert after >= before


def _random_feature(rng) -> FeatureVector:
    return FeatureVector(
        microaneurysm_count=int(rng.integers(0, 6)),
        exudate_count=int(rng.integers(0, 4)),
        hard_hemorrhage_count=int(rng.integers(0, 15)),
        soft_hemorrhage_count=int(rng.integers(0, 12)),
        cotton_wool_count=int(rng.integers(0, 7)),
        subhyaloid_present=bool(rng.random() < 0.1),
        neovascularization_present=bool(rng.random() < 0.1),
        hemorrhage_quadrants=int(rng.integers(0, 5)),
    )


def _augment(fv: FeatureVector, rng) -> FeatureVector:
    """Add one finding (the monotonicity probe)."""
    field = rng.choice(
        [
            "microaneurysm_count",
            "exudate_count",
            "hard_hemorrhage_count",
            "soft_hemorrhage_count",
            "cotton_wool_count",
            "subhyaloid_present",
            "neovascularization_present",
            "hemorrhage_quadrants",
        ]
    )
    changes = {}
    if field in ("subhyaloid_present", "neovascularization_present"):
        changes[field] = True
    elif field == "hemorrhage_quadrants":
        changes[field] = min(4, fv.hemorrhage_quadrants + 1)
    else:
        changes[field] = getattr(fv, field) + int(rng.integers(1, 4))
    return dataclasses.replace(fv, **changes)


class TestRuleGradeAsProbability:
    def test_one_hot(self):
        trace = grade_by_rules(FeatureVector(neovascularization_present=True))
        pv = rule_grade_as_probability(trace, smoothing=0.0)
        assert pv.probs == (0.0, 0.0, 0.0, 0.0, 1.0)

    def test_smoothed(self):
        trace = grade_by_rules(FeatureVector(exudate_count=1))
        pv = rule_grade_as_probability(trace, smoothing=0.2)
        assert pv.probs == pytest.approx((0.05, 0.05, 0.8, 0.05, 0.05))

    def test_smoothing_one_rejected(self):
        trace = grade_by_rules(FeatureVector())
        with pytest.raises(InvalidConfig):
            rule_grade_as_probability(trace, smoothing=1.0)
