"""Array kernels against the per-row and per-feature reference code they
replaced: pre-sorted split search, tie-averaged ranks, fusion, the
column-wise softmax, the logistic gradient step and the Gini cut scan."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgdg.core import GRADE_COUNT, FusionWeights, ProbabilityVector
from kgdg.fusion import FusionSource, FusionStrategy, fuse, fuse_arrays, fused_probability
from kgdg.learn import TrainConfig, fit_forest_arrays, fit_gbm_arrays, fit_logistic_arrays
from kgdg.learn import baselines as baselines_module
from kgdg.learn import gbm as gbm_module
from kgdg.learn.config import row_sum, sample_weights, softmax, standardization
from kgdg.learn.tree import GAIN_EPS, _gini, _leaf_value, fit_classification_tree, fit_regression_tree
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


def ref_softmax(scores):
    z = scores - scores.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def ref_fit_logistic(x, y, cfg):
    """(weights, bias) of full-batch descent through the old per-step gradient:
    a copy of the probabilities with 1 subtracted at each row's grade."""
    mu, sd = standardization(x)
    xs = (x - mu) / sd
    weights = sample_weights(y, cfg.class_weighting)
    w = np.zeros((GRADE_COUNT, x.shape[1]))
    b = np.zeros(GRADE_COUNT)
    for _ in range(cfg.logistic_steps):
        probs = ref_softmax(xs @ w.T + b)
        total = weights.sum()
        delta = probs.copy()
        delta[np.arange(y.size), y] -= 1.0
        delta *= (weights / total)[:, None]
        w -= cfg.logistic_lr * (delta.T @ xs)
        b -= cfg.logistic_lr * delta.sum(axis=0)
    return w, b


def ref_gini(counts):
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts / total
    return float(1.0 - (p**2).sum())


def ref_classification_tree(x, y, rng, max_depth, min_leaf, max_features):
    """Gini CART with a Python loop over every cut."""
    n_features = x.shape[1]
    onehot = np.zeros((y.size, GRADE_COUNT))
    onehot[np.arange(y.size), y] = 1.0

    def leaf(idx):
        counts = onehot[idx].sum(axis=0)
        return {"value": (counts / counts.sum()).tolist()}

    def build(idx, depth):
        if depth == 0 or idx.size < 2 * min_leaf or np.unique(y[idx]).size == 1:
            return leaf(idx)
        candidates = np.sort(rng.choice(n_features, size=min(max_features, n_features), replace=False))
        parent_counts = onehot[idx].sum(axis=0)
        parent_imp = ref_gini(parent_counts)
        best_gain, best = GAIN_EPS, None
        for j in candidates:
            col = x[idx, j]
            order = np.argsort(col, kind="stable")
            xs = col[order]
            cum = np.cumsum(onehot[idx][order], axis=0)
            cuts = np.nonzero(xs[:-1] != xs[1:])[0]
            left_n = cuts + 1
            for c in cuts[(left_n >= min_leaf) & (idx.size - left_n >= min_leaf)]:
                left_counts = cum[c]
                right_counts = parent_counts - left_counts
                nl, nr = left_counts.sum(), right_counts.sum()
                gain = parent_imp - (nl * ref_gini(left_counts) + nr * ref_gini(right_counts)) / idx.size
                if gain > best_gain:
                    best_gain, best = gain, (int(j), float((xs[c] + xs[c + 1]) / 2.0))
        if best is None:
            return leaf(idx)
        j, thr = best
        mask = x[idx, j] < thr
        return {"feature": j, "threshold": thr,
                "left": build(idx[mask], depth - 1), "right": build(idx[~mask], depth - 1)}

    return build(np.arange(x.shape[0]), max_depth)


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


# --- (e) the column-wise softmax and row sums are bit-identical --------------------------


def _score_arrays():
    rng = np.random.default_rng(5)
    out = []
    for i in range(300):
        n = int(rng.integers(1, 2000))
        scores = rng.normal(size=(n, GRADE_COUNT)) * 10.0 ** rng.integers(-4, 4)
        if i % 3 == 0:  # ties, including rows whose max appears more than once
            scores = np.round(scores)
        if i % 5 == 0:  # large magnitudes, where exp underflows for all but the max
            scores = scores * 1e4 + rng.choice([-1e6, 0.0, 1e6], size=(n, 1))
        out.append(scores)
    out.append(np.zeros((4, GRADE_COUNT)))
    out.append(np.array([[700.0, -700.0, 700.0, 0.0, 1e300], [-1e300, -1e300, 5.0, 5.0, -0.0]]))
    return out


def test_softmax_and_row_sum_equal_numpy_row_reductions():
    for scores in _score_arrays():
        assert np.array_equal(softmax(scores), ref_softmax(scores))
        assert np.array_equal(row_sum(scores), scores.sum(axis=1))
        row = np.abs(scores[0])
        assert row_sum(row[None, :])[0] == row.sum()


# --- (f) the logistic step without the loss gives the same weights ------------------------


@pytest.mark.parametrize("class_weighting", [False, True])
@pytest.mark.parametrize("single_grade", [False, True])
def test_logistic_fit_equals_loss_and_grad_loop(class_weighting, single_grade):
    rng = np.random.default_rng(9)
    n = 300
    y = np.full(n, 3) if single_grade else rng.choice(5, size=n, p=[0.5, 0.2, 0.15, 0.1, 0.05])
    x = np.column_stack([
        rng.poisson(1 + 2 * y).astype(np.float64),
        rng.integers(0, 4, size=n).astype(np.float64),
        rng.normal(size=n) * 5 + y,
        np.full(n, 2.0),  # a constant column hits the std floor
    ])
    cfg = TrainConfig(model_kind="logistic", logistic_steps=150, class_weighting=class_weighting)
    model = fit_logistic_arrays(x, y, ("a", "b", "c", "d"), cfg)
    w, b = ref_fit_logistic(x, y, cfg)
    assert np.array_equal(model.weights, w)
    assert np.array_equal(model.bias, b)


# --- (g) the vectorized Gini scan grows the same trees -----------------------------------


def test_gini_rows_equal_scalar_gini():
    rng = np.random.default_rng(3)
    counts = rng.integers(0, 60, size=(5000, GRADE_COUNT)).astype(np.float64)
    counts[:, rng.integers(0, GRADE_COUNT)] += 1.0  # every row nonempty
    got = _gini(counts)
    assert all(got[i] == ref_gini(counts[i]) for i in range(counts.shape[0]))


@st.composite
def forest_problems(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    n = draw(st.integers(2, 150))
    y = rng.integers(0, draw(st.integers(1, 5)), size=n)
    columns = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["ties", "graded", "continuous"]))
        if kind == "ties":
            columns.append(rng.integers(0, draw(st.integers(1, 4)), size=n).astype(np.float64))
        elif kind == "graded":  # tied counts that track the grade
            columns.append(rng.poisson(1 + y).astype(np.float64))
        else:
            columns.append(rng.normal(size=n) + 0.5 * y)
    x = np.column_stack(columns)
    if draw(st.booleans()):  # bootstrap duplicates, as fit_forest_arrays draws them
        rows = rng.integers(0, n, size=n)
        x, y = x[rows], y[rows]
    max_features = draw(st.integers(1, x.shape[1]))
    return x, y, seed, draw(st.integers(1, 5)), draw(st.integers(1, 10)), max_features


@settings(max_examples=150, deadline=None)
@given(forest_problems())
def test_classification_tree_equals_per_cut_loop(problem):
    x, y, seed, depth, min_leaf, max_features = problem
    rng_got, rng_want = np.random.default_rng(seed), np.random.default_rng(seed)
    got = fit_classification_tree(x, y, rng_got, depth, min_leaf, max_features)
    want = ref_classification_tree(x, y, rng_want, depth, min_leaf, max_features)
    assert json.dumps(got) == json.dumps(want)
    assert rng_got.bit_generator.state == rng_want.bit_generator.state  # same draws


def test_forest_equals_per_cut_loop_trees(monkeypatch):
    rng = np.random.default_rng(4)
    n = 400
    y = rng.integers(0, 5, size=n)
    x = np.column_stack([rng.poisson(1 + y).astype(np.float64), rng.integers(0, 3, size=n).astype(np.float64),
                         rng.normal(size=n) + 0.3 * y, rng.normal(size=n)])
    cfg = TrainConfig(model_kind="forest", n_trees=8, max_depth=4, min_leaf=3, seed=2)
    got = fit_forest_arrays(x, y, ("a", "b", "c", "d"), cfg).trees
    monkeypatch.setattr(baselines_module, "fit_classification_tree", ref_classification_tree)
    want = fit_forest_arrays(x, y, ("a", "b", "c", "d"), cfg).trees
    assert json.dumps(got) == json.dumps(want)
