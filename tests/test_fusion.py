import sys
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kgdg.core import FusionWeights, validate_probability_rows
from kgdg.errors import InvalidConfig, UnknownImageId
from kgdg.fusion import (
    FusionSource,
    batch_fuse,
    fuse,
)


def pv(*vals):
    """One validated probability row."""
    return validate_probability_rows(np.array([vals], dtype=np.float64))[0]


class Decision(NamedTuple):
    grade: int
    source: FusionSource
    winning_score: float
    probs: np.ndarray


def fuse_row(strategy, a, b, weights=None):
    """The fusion kernel on one row pair."""
    fused = fuse(strategy, a[None], b[None], weights)
    return Decision(int(fused.grades[0]), FusionSource(fused.sources[0]), float(fused.scores[0]), fused.probs[0])


simplex = st.lists(st.floats(0.01, 1.0), min_size=5, max_size=5).map(
    lambda v: pv(*[x / sum(v) for x in v])
)


class TestSelective:
    def test_dominant_one_hot(self):
        r = fuse_row("selective", pv(1, 0, 0, 0, 0), pv(0.2, 0.2, 0.2, 0.2, 0.2))
        assert int(r.grade) == 0 and r.source is FusionSource.DEEP
        assert r.winning_score == 1.0

    def test_symbolic_wins_when_more_confident(self):
        r = fuse_row("selective", pv(0.3, 0.4, 0.1, 0.1, 0.1), pv(0.1, 0.1, 0.6, 0.1, 0.1))
        assert int(r.grade) == 2 and r.source is FusionSource.SYMBOLIC

    def test_exact_tie_goes_deep(self):
        r = fuse_row("selective", pv(0.5, 0.2, 0.1, 0.1, 0.1), pv(0.1, 0.5, 0.2, 0.1, 0.1))
        assert r.source is FusionSource.DEEP
        assert int(r.grade) == 0


class TestMaxConfidence:
    def test_deep_peak_wins(self):
        r = fuse_row("max", pv(0.7, 0.1, 0.1, 0.05, 0.05), pv(0.69, 0.11, 0.1, 0.05, 0.05))
        assert r.source is FusionSource.DEEP and int(r.grade) == 0

    def test_global_max_in_symbolic(self):
        r = fuse_row("max", pv(0.3, 0.3, 0.2, 0.1, 0.1), pv(0.1, 0.1, 0.1, 0.6, 0.1))
        assert int(r.grade) == 3 and r.source is FusionSource.SYMBOLIC
        assert r.winning_score == pytest.approx(0.6)

    def test_identical_vectors_tie_to_deep(self):
        v = pv(0.1, 0.2, 0.4, 0.2, 0.1)
        r = fuse_row("max", v, v)
        assert r.source is FusionSource.DEEP and int(r.grade) == 2


class TestClasswiseMax:
    def test_per_class_table(self):
        r = fuse_row("classwise", pv(0.5, 0.1, 0.2, 0.1, 0.1), pv(0.1, 0.45, 0.25, 0.1, 0.1))
        assert int(r.grade) == 0

    def test_one_hot_dominates(self):
        r = fuse_row("classwise", pv(0.3, 0.3, 0.2, 0.1, 0.1), pv(0, 0, 0, 0, 1))
        assert int(r.grade) == 4 and r.source is FusionSource.SYMBOLIC

    def test_equal_vectors(self):
        v = pv(0.1, 0.2, 0.4, 0.2, 0.1)
        r = fuse_row("classwise", v, v)
        assert int(r.grade) == 2 and r.source is FusionSource.DEEP


class TestWeighted:
    def test_weight_collapse_to_deep(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            a = pv(*rng.dirichlet(np.ones(5)))
            b = pv(*rng.dirichlet(np.ones(5)))
            r = fuse_row("weighted", a, b, FusionWeights(1.0, 0.0))
            assert r.grade == a.argmax()

    def test_blend_fixture(self):
        r = fuse_row("weighted", pv(0.5, 0.5, 0, 0, 0), pv(0, 1, 0, 0, 0), FusionWeights(0.6, 0.4))
        assert int(r.grade) == 1
        assert r.winning_score == pytest.approx(0.7)
        assert r.source is FusionSource.BLENDED

    def test_half_half_equals_one_one(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            a = pv(*rng.dirichlet(np.ones(5)))
            b = pv(*rng.dirichlet(np.ones(5)))
            g1 = fuse_row("weighted", a, b, FusionWeights(0.5, 0.5)).grade
            g2 = fuse_row("weighted", a, b, FusionWeights(1.0, 1.0)).grade
            assert g1 == g2

    @pytest.mark.parametrize("w1,w2", [(0.0, 5e-324), (5e-324, 0.0), (1.0, 1e-310), (sys.float_info.min / 2, 0.5)])
    def test_subnormal_weight_rejected(self, w1, w2):
        # a subnormal weight rounds to 0 under scaling, and (0, 5e-324) * 0.5 has no positive weight
        with pytest.raises(ValueError, match="at least"):
            FusionWeights(w1, w2)

    def test_smallest_normal_weight_accepted(self):
        assert FusionWeights(0.0, sys.float_info.min).alpha_kl == sys.float_info.min

    @pytest.mark.parametrize("w1,w2", [(1e308, 1e308), (float("inf"), 0.0), (0.0, float("nan"))])
    def test_weights_whose_sum_is_not_finite_rejected(self, w1, w2):
        # an infinite sum divides every blended row to 0 and makes winning scores inf
        with pytest.raises(ValueError, match="finite sum"):
            FusionWeights(w1, w2)

    def test_largest_finite_sum_blends_to_finite_rows(self):
        half = sys.float_info.max / 2
        a, b = pv(0.1, 0.2, 0.4, 0.2, 0.1), pv(0.5, 0.1, 0.1, 0.2, 0.1)
        r = fuse_row("weighted", a, b, FusionWeights(half, half))
        assert np.isfinite(r.winning_score) and np.isfinite(r.probs).all()
        assert r.grade == fuse_row("weighted", a, b, FusionWeights(1.0, 1.0)).grade

    @settings(max_examples=200)
    @given(simplex, simplex, st.floats(0.05, 20.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    @example(pv(0.2, 0.2, 0.2, 0.2, 0.2), pv(0.1, 0.2, 0.4, 0.2, 0.1), 0.5, 0.0, 5e-324)
    @example(pv(0.1, 0.2, 0.4, 0.2, 0.1), pv(0.2, 0.2, 0.2, 0.2, 0.2), 0.5, 5e-324, 0.0)
    # grades 1-4 blend to 1 ulp apart unscaled and to one value scaled by 3
    @example(pv(0.2, 0.19999999999999998, 0.2, 0.2, 0.2), pv(*[v / 4.5 for v in (0.5, 1, 1, 1, 1)]), 3.0, 1.0, 1.0)
    def test_weight_scale_invariance(self, a, b, lam, w1, w2):
        """Scaling both weights keeps the grade unless the unscaled blend's
        top two cells lie within 2**-49 * (w1 + w2) of each other."""
        if w1 + w2 == 0:
            w1 = 0.3
        grades = []
        for weights in ((w1, w2), (lam * w1, lam * w2)):
            if sum(weights) > 0 and all(w == 0 or w >= sys.float_info.min for w in weights):
                grades.append(fuse_row("weighted", a, b, FusionWeights(*weights)).grade)
            else:  # a pair the contract rejects
                with pytest.raises(ValueError):
                    FusionWeights(*weights)
        top, second = sorted((w1 * p + w2 * q for p, q in zip(a.tolist(), b.tolist())), reverse=True)[:2]
        if len(grades) == 2 and top - second > 2.0**-49 * (w1 + w2):
            assert grades[0] == grades[1]


class TestCoincidence:
    @settings(max_examples=300)
    @given(simplex, simplex)
    def test_strategies_agree_on_unique_global_max(self, a, b):
        values = list(a) + list(b)
        top = max(values)
        if sum(1 for v in values if v == top) != 1:
            return
        g1 = fuse_row("selective", a, b).grade
        g2 = fuse_row("max", a, b).grade
        g3 = fuse_row("classwise", a, b).grade
        assert g1 == g2 == g3


class TestFusedProbability:
    @settings(max_examples=100)
    @given(simplex, simplex)
    # classwise: knowledge grades 0 and 2 differ by one ulp, and dividing by the row sum made them equal
    @example(pv(0.2, 0.2, 0.2, 0.2, 0.2), pv(0.36565680116763044, 0.10290935588104051, 0.3656568011676305,
                                            0.053974245605350434, 0.1118027961783481))
    def test_argmax_matches_decision(self, a, b):
        w = FusionWeights(0.6, 0.4)
        for strategy in ("selective", "max", "classwise", "weighted"):
            decision = fuse_row(strategy, a, b, w)
            row = decision.probs
            assert row.argmax() == decision.grade
            assert abs(sum(row) - 1.0) < 1e-9


class TestBatchFuse:
    def test_asymmetric_tables_rejected(self):
        t1 = (("a", "b"), np.array([pv(1, 0, 0, 0, 0), pv(0, 1, 0, 0, 0)]))
        t2 = (("a",), np.array([pv(1, 0, 0, 0, 0)]))
        with pytest.raises(UnknownImageId, match=r"\(e.g. 'b'\): 0 missing from deep, 1 from symbolic"):
            batch_fuse("max", t1, t2)

    def test_batch_matches_single(self):
        rng = np.random.default_rng(2)
        ids = tuple(f"i{k}" for k in range(20))
        dl, kd = rng.dirichlet(np.ones(5), size=20), rng.dirichlet(np.ones(5), size=20)
        order = rng.permutation(20)  # the knowledge table lists the images in another order
        fused = batch_fuse("classwise", (ids, dl), (tuple(ids[k] for k in order), kd[order]))
        for k in range(20):
            single = fuse_row("classwise", dl[k], kd[k])
            assert (fused.grades[k], fused.sources[k], fused.scores[k]) == (single.grade, single.source.value,
                                                                           single.winning_score)

    def test_weighted_requires_weights(self):
        with pytest.raises(InvalidConfig):
            fuse_row("weighted", pv(1, 0, 0, 0, 0), pv(0, 1, 0, 0, 0))
