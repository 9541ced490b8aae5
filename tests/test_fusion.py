import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kgdg.core import FusionWeights, validate_probability
from kgdg.errors import InvalidConfig, UnknownImageId
from kgdg.fusion import (
    FusionSource,
    batch_fuse,
    fuse,
    fused_probability,
)


def pv(*vals):
    return validate_probability(list(vals))


simplex = st.lists(st.floats(0.01, 1.0), min_size=5, max_size=5).map(
    lambda v: pv(*[x / sum(v) for x in v])
)


class TestSelective:
    def test_dominant_one_hot(self):
        r = fuse("selective", pv(1, 0, 0, 0, 0), pv(0.2, 0.2, 0.2, 0.2, 0.2))
        assert int(r.grade) == 0 and r.source is FusionSource.DEEP
        assert r.winning_score == 1.0

    def test_symbolic_wins_when_more_confident(self):
        r = fuse("selective", pv(0.3, 0.4, 0.1, 0.1, 0.1), pv(0.1, 0.1, 0.6, 0.1, 0.1))
        assert int(r.grade) == 2 and r.source is FusionSource.SYMBOLIC

    def test_exact_tie_goes_deep(self):
        r = fuse("selective", pv(0.5, 0.2, 0.1, 0.1, 0.1), pv(0.1, 0.5, 0.2, 0.1, 0.1))
        assert r.source is FusionSource.DEEP
        assert int(r.grade) == 0


class TestMaxConfidence:
    def test_deep_peak_wins(self):
        r = fuse("max", pv(0.7, 0.1, 0.1, 0.05, 0.05), pv(0.69, 0.11, 0.1, 0.05, 0.05))
        assert r.source is FusionSource.DEEP and int(r.grade) == 0

    def test_global_max_in_symbolic(self):
        r = fuse("max", pv(0.3, 0.3, 0.2, 0.1, 0.1), pv(0.1, 0.1, 0.1, 0.6, 0.1))
        assert int(r.grade) == 3 and r.source is FusionSource.SYMBOLIC
        assert r.winning_score == pytest.approx(0.6)

    def test_identical_vectors_tie_to_deep(self):
        v = pv(0.1, 0.2, 0.4, 0.2, 0.1)
        r = fuse("max", v, v)
        assert r.source is FusionSource.DEEP and int(r.grade) == 2


class TestClasswiseMax:
    def test_per_class_table(self):
        r = fuse("classwise", pv(0.5, 0.1, 0.2, 0.1, 0.1), pv(0.1, 0.45, 0.25, 0.1, 0.1))
        assert int(r.grade) == 0

    def test_one_hot_dominates(self):
        r = fuse("classwise", pv(0.3, 0.3, 0.2, 0.1, 0.1), pv(0, 0, 0, 0, 1))
        assert int(r.grade) == 4 and r.source is FusionSource.SYMBOLIC

    def test_equal_vectors(self):
        v = pv(0.1, 0.2, 0.4, 0.2, 0.1)
        r = fuse("classwise", v, v)
        assert int(r.grade) == 2 and r.source is FusionSource.DEEP


class TestWeighted:
    def test_weight_collapse_to_deep(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            a = pv(*rng.dirichlet(np.ones(5)))
            b = pv(*rng.dirichlet(np.ones(5)))
            r = fuse("weighted", a, b, FusionWeights(1.0, 0.0))
            assert int(r.grade) == a.argmax()

    def test_blend_fixture(self):
        r = fuse("weighted", pv(0.5, 0.5, 0, 0, 0), pv(0, 1, 0, 0, 0), FusionWeights(0.6, 0.4))
        assert int(r.grade) == 1
        assert r.winning_score == pytest.approx(0.7)
        assert r.source is FusionSource.BLENDED

    def test_half_half_equals_one_one(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            a = pv(*rng.dirichlet(np.ones(5)))
            b = pv(*rng.dirichlet(np.ones(5)))
            g1 = fuse("weighted", a, b, FusionWeights(0.5, 0.5)).grade
            g2 = fuse("weighted", a, b, FusionWeights(1.0, 1.0)).grade
            assert g1 == g2

    @pytest.mark.parametrize("w1,w2", [(0.0, 5e-324), (5e-324, 0.0), (1.0, 1e-310), (sys.float_info.min / 2, 0.5)])
    def test_subnormal_weight_rejected(self, w1, w2):
        # a subnormal weight rounds to 0 under scaling, and (0, 5e-324) * 0.5 has no positive weight
        with pytest.raises(ValueError, match="at least"):
            FusionWeights(w1, w2)

    def test_smallest_normal_weight_accepted(self):
        assert FusionWeights(0.0, sys.float_info.min).alpha_kl == sys.float_info.min

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
                grades.append(fuse("weighted", a, b, FusionWeights(*weights)).grade)
            else:  # a pair the contract rejects
                with pytest.raises(ValueError):
                    FusionWeights(*weights)
        top, second = sorted((w1 * p + w2 * q for p, q in zip(a.probs, b.probs)), reverse=True)[:2]
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
        g1 = fuse("selective", a, b).grade
        g2 = fuse("max", a, b).grade
        g3 = fuse("classwise", a, b).grade
        assert g1 == g2 == g3


class TestFusedProbability:
    @settings(max_examples=100)
    @given(simplex, simplex)
    def test_argmax_matches_decision(self, a, b):
        w = FusionWeights(0.6, 0.4)
        for strategy in ("selective", "max", "classwise", "weighted"):
            decision = fuse(strategy, a, b, w)
            row = fused_probability(strategy, a, b, w)
            assert row.argmax() == int(decision.grade)
            assert abs(sum(row) - 1.0) < 1e-9


class TestBatchFuse:
    def test_asymmetric_tables_rejected(self):
        t1 = {"a": pv(1, 0, 0, 0, 0), "b": pv(0, 1, 0, 0, 0)}
        t2 = {"a": pv(1, 0, 0, 0, 0)}
        with pytest.raises(UnknownImageId):
            batch_fuse("max", t1, t2)

    def test_batch_matches_single(self):
        rng = np.random.default_rng(2)
        dl = {f"i{k}": pv(*rng.dirichlet(np.ones(5))) for k in range(20)}
        kd = {f"i{k}": pv(*rng.dirichlet(np.ones(5))) for k in range(20)}
        fused = batch_fuse("classwise", dl, kd)
        for k in dl:
            assert fused[k] == fuse("classwise", dl[k], kd[k])

    def test_weighted_requires_weights(self):
        with pytest.raises(InvalidConfig):
            fuse("weighted", pv(1, 0, 0, 0, 0), pv(0, 1, 0, 0, 0))
