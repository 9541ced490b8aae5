"""Array kernels against the per-row and per-feature reference code they
replaced: pre-sorted split search, tie-averaged ranks, and fusion."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgdg.core import FusionWeights, ProbabilityVector
from kgdg.fusion import FusionSource, FusionStrategy, fuse, fuse_arrays, fused_probability
from kgdg.learn import TrainConfig, fit_gbm_arrays
from kgdg.learn import gbm as gbm_module
from kgdg.learn.tree import GAIN_EPS, _leaf_value, fit_regression_tree
from kgdg.metrics import _tie_averaged_ranks, auc_ovr_macro, binary_auc

# --- reference implementations ---------------------------------------------------


def ref_scan_splits(x_col, g, h, l2, min_leaf, square_parent=False):
    """Best (gain, threshold) for one feature: one argsort per call."""
    order = np.argsort(x_col, kind="stable")
    xs = x_col[order]
    gs = np.cumsum(g[order])
    hs = np.cumsum(h[order])
    n = xs.size
    cuts = np.nonzero(xs[:-1] != xs[1:])[0]
    if cuts.size == 0:
        return None
    left_n = cuts + 1
    cuts = cuts[(left_n >= min_leaf) & (n - left_n >= min_leaf)]
    if cuts.size == 0:
        return None
    g_total, h_total = gs[-1], hs[-1]
    if square_parent:  # the array square, which may round differently from pow
        g_total = gs[-1:]
    gl, hl = gs[cuts], hs[cuts]
    gr, hr = g_total - gl, h_total - hl
    gains = 0.5 * (gl**2 / (hl + l2) + gr**2 / (hr + l2) - g_total**2 / (h_total + l2))
    best = int(np.argmax(gains))
    return float(gains[best]), float((xs[cuts[best]] + xs[cuts[best] + 1]) / 2.0)


def ref_regression_tree(x, g, h, max_depth, min_leaf, l2, square_parent=False):
    def build(idx, depth):
        gi, hi = g[idx], h[idx]
        if depth == 0 or idx.size < 2 * min_leaf:
            return {"value": _leaf_value(gi, hi, l2)}
        best_gain, best = GAIN_EPS, None
        for j in range(x.shape[1]):
            found = ref_scan_splits(x[idx, j], gi, hi, l2, min_leaf, square_parent)
            if found is not None and found[0] > best_gain:
                best_gain, best = found[0], (j, found[1])
        if best is None:
            return {"value": _leaf_value(gi, hi, l2)}
        j, thr = best
        mask = x[idx, j] < thr
        return {"feature": j, "threshold": thr,
                "left": build(idx[mask], depth - 1), "right": build(idx[~mask], depth - 1)}

    return build(np.arange(x.shape[0]), max_depth)


def ref_ranks(scores):
    order = np.argsort(scores, kind="stable")
    ranks = np.empty(scores.size, dtype=np.float64)
    sorted_scores = scores[order]
    i = 0
    while i < scores.size:
        j = i
        while j + 1 < scores.size and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def ref_fuse(strategy, p_dl, p_kd, w):
    """(grade, source, winning score, probability row) of one row pair."""
    if strategy in ("selective", "max"):
        s_dl, s_kd = max(p_dl), max(p_kd)
        if s_dl >= s_kd:
            return p_dl.argmax(), "deep", s_dl, tuple(p_dl)
        return p_kd.argmax(), "symbolic", s_kd, tuple(p_kd)
    if strategy == "classwise":
        best_grade, best_score, best_source = 0, -1.0, "deep"
        for g in range(5):
            a, b = p_dl[g], p_kd[g]
            m = a if a >= b else b
            if m > best_score:
                best_grade, best_score = g, m
                best_source = "deep" if a >= b else "symbolic"
        m = [max(p_dl[g], p_kd[g]) for g in range(5)]
        return best_grade, best_source, best_score, tuple(v / sum(m) for v in m)
    best_grade, best_score = 0, -1.0
    for g in range(5):
        v = w.alpha_dl * p_dl[g] + w.alpha_kl * p_kd[g]
        if v > best_score:
            best_grade, best_score = g, v
    total = w.alpha_dl + w.alpha_kl
    row = tuple((w.alpha_dl * p_dl[g] + w.alpha_kl * p_kd[g]) / total for g in range(5))
    return best_grade, "blended", best_score, row


# --- (a) pre-sorted split search equals the per-feature scan ---------------------------


@st.composite
def tree_problems(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    n = draw(st.integers(2, 120))
    columns = []
    for _ in range(draw(st.integers(1, 5))):
        if draw(st.booleans()):  # lesion-count-like: many ties
            columns.append(rng.integers(0, draw(st.integers(1, 6)), size=n).astype(np.float64))
        else:
            columns.append(rng.normal(size=n) * 3.0)
    x = np.column_stack(columns)
    g = rng.normal(size=n)
    h = rng.uniform(0.01, 0.25, size=n)
    return x, g, h, draw(st.integers(1, 4)), draw(st.integers(1, 8)), draw(st.sampled_from([0.0, 0.5, 1.0, 3.0]))


@settings(max_examples=150, deadline=None)
@given(tree_problems())
def test_presorted_tree_equals_per_feature_scan(problem):
    x, g, h, depth, min_leaf, l2 = problem
    got = fit_regression_tree(x, g, h, depth, min_leaf, l2)
    want = ref_regression_tree(x, g, h, depth, min_leaf, l2)
    assert json.dumps(got) == json.dumps(want)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([0.3, 0.5, 0.8, 1.0]), st.integers(1, 6))
def test_gbm_with_subsample_equals_reference_trees(seed, subsample, min_leaf):
    rng = np.random.default_rng(seed)
    n = 150
    y = rng.integers(0, 5, size=n)
    x = np.column_stack([
        rng.poisson(1 + 2 * y).astype(np.float64),
        rng.integers(0, 3, size=n).astype(np.float64),
        rng.normal(size=n) + 0.3 * y,
    ])
    cfg = TrainConfig(n_trees=6, subsample=subsample, min_leaf=min_leaf, max_depth=3, seed=3)
    schema = ("a", "b", "c")
    got = fit_gbm_arrays(x, y, x[:40], y[:40], schema, cfg).to_artifact().params
    original = gbm_module.fit_regression_tree
    gbm_module.fit_regression_tree = lambda xs, g, h, d, m, l2, order=None: ref_regression_tree(xs, g, h, d, m, l2)
    try:
        want = fit_gbm_arrays(x, y, x[:40], y[:40], schema, cfg).to_artifact().params
    finally:
        gbm_module.fit_regression_tree = original
    assert json.dumps(got) == json.dumps(want)


# --- (b) the parent term is a per-feature scalar power ------------------------------


def test_near_tie_keeps_per_feature_scalar_parent_term():
    # Both features split rows 0-5 from rows 6-11; min_leaf=2 leaves each a
    # single allowed cut. Rows 5 and 6 sit at the ends of feature 1's order,
    # so its sums run in another order and its gain differs in the last bit.
    left = np.arange(12) < 6
    x = np.column_stack([np.where(left, 0.0, 1.0), np.where(left, 0.5, 1.0)])
    x[5, 1], x[6, 1] = 0.0, 2.0
    g = np.array([2.15, -0.27, 0.25, 0.32, 1.53, 2.37, -0.4, 0.12, 0.15, 0.23, -1.39, 0.44])
    h = np.array([0.09, 0.12, 0.17, 0.13, 0.21, 0.06, 0.2, 0.11, 0.06, 0.24, 0.05, 0.23])
    want = ref_regression_tree(x, g, h, 1, 2, 1.0)
    assert want["feature"] == 1
    assert ref_regression_tree(x, g, h, 1, 2, 1.0, square_parent=True)["feature"] == 0
    assert json.dumps(fit_regression_tree(x, g, h, 1, 2, 1.0)) == json.dumps(want)


# --- (c) vectorized tie-averaged ranks ----------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.9, 1.0, float("nan")]), min_size=1, max_size=60))
def test_tie_averaged_ranks_equal_loop(values):
    scores = np.asarray(values)
    assert np.array_equal(_tie_averaged_ranks(scores), ref_ranks(scores), equal_nan=True)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 1), st.sampled_from([0.0, 0.2, 0.2000001, 0.7, 1.0])),
                min_size=2, max_size=60))
def test_binary_auc_equals_loop_ranks(pairs):
    labels = np.array([p[0] for p in pairs])
    if labels.min() == labels.max():
        return
    scores = np.array([p[1] for p in pairs])
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    want = (float(ref_ranks(scores)[labels == 1].sum()) - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)
    assert binary_auc(labels, scores) == want


def test_auc_accepts_matrix_and_rows_alike():
    rng = np.random.default_rng(0)
    mat = rng.dirichlet(np.ones(5), size=50).round(1)
    y = rng.integers(0, 5, size=50)
    rows = [ProbabilityVector(tuple(float(v) for v in r)) for r in mat]
    assert auc_ovr_macro(y, mat) == auc_ovr_macro(list(y), rows)


# --- (d) the fusion kernel equals the per-row reference --------------------------------


def _tie_heavy_rows(rng, n):
    levels = np.array([0.0, 0.1, 0.2, 0.25, 0.4, 0.5])
    raw = levels[rng.integers(0, levels.size, size=(n, 5))] + 1e-9
    return raw / raw.sum(axis=1, keepdims=True)


@pytest.mark.parametrize("strategy", [s.value for s in FusionStrategy])
def test_fusion_kernel_equals_per_row_reference(strategy):
    rng = np.random.default_rng(11)
    dl = _tie_heavy_rows(rng, 400)
    kd = _tie_heavy_rows(rng, 400)
    kd[:100] = dl[:100]  # exact cross-branch ties
    kd[100:150, :] = 0.2  # ties within one vector
    dl[150:200, :] = 0.2
    w = FusionWeights(0.6, 0.4)
    grades, sources, scores, probs = fuse_arrays(strategy, dl, kd, w)
    for i in range(dl.shape[0]):
        a = ProbabilityVector(tuple(float(v) for v in dl[i]))
        b = ProbabilityVector(tuple(float(v) for v in kd[i]))
        grade, source, score, row = ref_fuse(strategy, a, b, w)
        assert (int(grades[i]), sources[i], float(scores[i])) == (grade, source, score)
        assert tuple(float(v) for v in probs[i]) == row
        fused = fuse(strategy, a, b, w)
        assert (int(fused.grade), fused.source, fused.winning_score) == (grade, FusionSource(source), score)
        assert fused_probability(strategy, a, b, w).probs == row
