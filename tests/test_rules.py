import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from ref_detections import RefBox, RefDetection, ref_table
from ref_rows import RefFeatureVector, ref_grade_by_rules

from kgdg.core import DRGrade, LesionType
from kgdg.errors import InvalidConfig
from kgdg.rules import (
    RULE_LADDER,
    aggregate_detections,
    fire_rules,
    grade_detections,
    grade_by_rules,
    rule_grade_as_probability,
)


def box_at(cx, cy, size=0.02):
    return RefBox(cx - size / 2, cy - size / 2, size, size)


def hemorrhage(box):
    return RefDetection(LesionType.HARD_HEMORRHAGE, box, 0.9)


def aggregate(dets, min_score):
    """aggregate_detections of one image's detections, as a RefFeatureVector."""
    return RefFeatureVector.from_counts(aggregate_detections(ref_table({"i": dets}), min_score)[0].tolist())


def quadrant(box):
    """The quadrant (1=top-left, 2=top-right, 3=bottom-left, 4=bottom-right)
    a hemorrhage at ``box`` is binned into: the one whose reference
    hemorrhage it shares a single quadrant with."""
    references = {1: box_at(0.2, 0.2), 2: box_at(0.8, 0.2), 3: box_at(0.2, 0.8), 4: box_at(0.8, 0.8)}
    shared = [q for q, ref in references.items()
              if aggregate([hemorrhage(box), hemorrhage(ref)], 0.0).hemorrhage_quadrants == 1]
    assert len(shared) == 1
    return shared[0]


class TestAssignQuadrant:
    @pytest.mark.parametrize(
        "box,expected",
        [
            (RefBox(0.1, 0.1, 0.2, 0.2), 1),  # center (0.2, 0.2)
            (RefBox(0.6, 0.6, 0.2, 0.2), 4),  # center (0.7, 0.7)
            (box_at(0.7, 0.2), 2),
            (box_at(0.2, 0.7), 3),
        ],
    )
    def test_quadrants(self, box, expected):
        assert quadrant(box) == expected

    def test_exact_center_goes_to_one(self):
        assert quadrant(RefBox(0.4, 0.4, 0.2, 0.2)) == 1

    def test_axis_ties_take_lower_quadrant(self):
        assert quadrant(box_at(0.5, 0.7)) == 3  # vertical axis, bottom
        assert quadrant(box_at(0.7, 0.5)) == 2  # horizontal axis, right


class TestAggregateDetections:
    def test_empty_is_all_zero(self):
        fv = aggregate([], min_score=0.0)
        assert fv == RefFeatureVector()
        assert not fv.has_vein

    def test_hemorrhages_all_quadrants(self):
        centers = [(0.2, 0.2), (0.8, 0.2), (0.2, 0.8), (0.8, 0.8)]
        dets = []
        for i in range(21):
            cx, cy = centers[i % 4]
            dets.append(RefDetection(LesionType.HARD_HEMORRHAGE, box_at(cx, cy), 0.9))
        fv = aggregate(dets, min_score=0.0)
        assert fv.hard_hemorrhage_count == 21
        assert fv.hemorrhage_quadrants == 4

    def test_threshold_filters(self):
        det = RefDetection(LesionType.NEOVASCULARIZATION, box_at(0.3, 0.3), 0.3)
        fv = aggregate([det], min_score=0.5)
        assert not fv.neovascularization_present
        fv2 = aggregate([det], min_score=0.2)
        assert fv2.neovascularization_present

    def test_subhyaloid_not_counted_in_quadrants(self):
        dets = [RefDetection(LesionType.SUBHYALOID_HEMORRHAGE, box_at(0.2, 0.2), 0.9)]
        fv = aggregate(dets, min_score=0.0)
        assert fv.subhyaloid_present
        assert fv.hemorrhage_quadrants == 0

    def test_permutation_invariant(self):
        rng = np.random.default_rng(7)
        dets = [
            RefDetection(
                LesionType(kind),
                box_at(rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9)),
                float(rng.uniform(0, 1)),
            )
            for kind in rng.choice([k.value for k in LesionType], size=40)
        ]
        base = aggregate(dets, 0.0)
        perm = list(dets)
        rng.shuffle(perm)
        assert aggregate(perm, 0.0) == base


    @pytest.mark.parametrize("min_score", [-0.1, 1.5, float("nan")])
    def test_min_score_outside_unit_interval_rejected(self, min_score):
        with pytest.raises(InvalidConfig, match="outside"):
            aggregate_detections(ref_table({"i": []}), min_score)

    def test_rows_follow_table_ids(self):
        table = ref_table({"b": [hemorrhage(box_at(0.2, 0.2))], "a": [], "c": [hemorrhage(box_at(0.8, 0.8))] * 2})
        assert aggregate_detections(table, 0.0)[:, 2].tolist() == [1, 0, 2]


class TestGradeDetections:
    def test_grades_every_image_by_the_ladder(self):
        neo = RefDetection(LesionType.NEOVASCULARIZATION, box_at(0.3, 0.3), 0.3)
        table = ref_table({"pdr": [neo], "mild": [RefDetection(LesionType.MICROANEURYSM, box_at(0.5, 0.5), 0.9)],
                           "none": []})
        ladder = [name for name, _, _ in RULE_LADDER]
        assert [ladder[r] for r in grade_detections(table).tolist()] == ["R1", "R7", "R8"]
        # a higher min_score drops the low-scored finding first
        assert [ladder[r] for r in grade_detections(table, 0.5).tolist()] == ["R8", "R7", "R8"]


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


def ladder(fv):
    """The rule fire_rules picks for one features row and its grade, which
    grade_by_rules must give the row too."""
    name, grade, _ = RULE_LADDER[fire_rules(np.array([fv.counts()]))[0]]
    assert grade_by_rules(fv.counts()) == grade
    return name, grade


class TestGradeByRules:
    @pytest.mark.parametrize("kwargs,grade,rule", RULE_FIXTURES)
    def test_rule_fixture(self, kwargs, grade, rule):
        assert ladder(RefFeatureVector(**kwargs)) == (rule, grade)

    def test_total_function_on_random_vectors(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            name, grade = ladder(_random_feature(rng))
            assert name in [r for r, _, _ in RULE_LADDER]
            assert 0 <= int(grade) <= 4

    def test_monotone_under_augmentation(self):
        rng = np.random.default_rng(11)
        for _ in range(2000):
            fv = _random_feature(rng)
            before = int(grade_by_rules(fv.counts()))
            after = int(grade_by_rules(_augment(fv, rng).counts()))
            assert after >= before


# counts small, near a rule's threshold, or past int64 (the reader keeps those as exact Python ints)
_COUNT = st.one_of(st.integers(0, 6), st.integers(0, 30), st.integers(2**63 - 2, 2**65))


@st.composite
def _count_rows(draw):
    """A LESIONS_ONLY_SCHEMA row; the hemorrhage total is often 19, 20 or 21."""
    ma, ex, hard, cws = (draw(_COUNT) for _ in range(4))
    if draw(st.booleans()):
        hard = draw(st.integers(0, 21))
        soft = draw(st.integers(19, 21)) - hard if hard <= 19 else draw(st.integers(0, 1))
    else:
        soft = draw(_COUNT)
    return (ma, ex, hard, soft, cws, draw(st.integers(0, 1)), draw(st.integers(0, 1)), draw(st.integers(0, 4)))


@settings(max_examples=200, deadline=None)
@given(st.lists(_count_rows(), min_size=1, max_size=8))
def test_grade_by_rules_equals_table_and_reference(rows):
    """One row's grade, the table kernel's rule for it and the per-rule
    reference grading agree, past int64, at 20 +- 1 hemorrhages and at
    4 to 6 cotton-wool spots."""
    try:
        counts = np.array(rows, dtype=np.int64)
    except OverflowError:
        counts = np.array(rows, dtype=object)
    fired = fire_rules(counts).tolist()
    for row, rule in zip(rows, fired):
        name, grade = ref_grade_by_rules(RefFeatureVector.from_counts(row))
        assert grade_by_rules(row) == RULE_LADDER[rule][1] == grade
        assert RULE_LADDER[rule][0] == name


def _random_feature(rng) -> RefFeatureVector:
    return RefFeatureVector(
        microaneurysm_count=int(rng.integers(0, 6)),
        exudate_count=int(rng.integers(0, 4)),
        hard_hemorrhage_count=int(rng.integers(0, 15)),
        soft_hemorrhage_count=int(rng.integers(0, 12)),
        cotton_wool_count=int(rng.integers(0, 7)),
        subhyaloid_present=bool(rng.random() < 0.1),
        neovascularization_present=bool(rng.random() < 0.1),
        hemorrhage_quadrants=int(rng.integers(0, 5)),
    )


def _augment(fv: RefFeatureVector, rng) -> RefFeatureVector:
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
        grade = grade_by_rules(RefFeatureVector(neovascularization_present=True).counts())
        assert rule_grade_as_probability(grade, smoothing=0.0) == (0.0, 0.0, 0.0, 0.0, 1.0)

    def test_smoothed(self):
        grade = grade_by_rules(RefFeatureVector(exudate_count=1).counts())
        assert rule_grade_as_probability(grade, smoothing=0.2) == pytest.approx((0.05, 0.05, 0.8, 0.05, 0.05))

    def test_smoothing_one_rejected(self):
        grade = grade_by_rules(RefFeatureVector().counts())
        with pytest.raises(InvalidConfig):
            rule_grade_as_probability(grade, smoothing=1.0)
