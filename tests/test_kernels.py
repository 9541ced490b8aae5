"""Array kernels against the per-row and per-feature reference code they
replaced: pre-sorted split search with its per-fit node cache, the flat
level-wise tree descent, tie-averaged ranks, fusion, the column-wise
softmax, the logistic gradient step, kNN selection, the Gini cut scan, the
columnar table and detection readers, and detection matching."""

import csv
import dataclasses
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgdg.core import (
    GRADE_COUNT,
    LESIONS_ONLY_SCHEMA,
    LESIONS_VEIN_SCHEMA,
    PROB_RENORM_TOL,
    PROB_SUM_EPS,
    BoundingBox,
    Detection,
    DetectionTable,
    DomainId,
    DRGrade,
    FeatureVector,
    FusionWeights,
    LabeledExample,
    LesionType,
    ProbabilityVector,
    RenormalizationWarning,
    validate_probability,
)
from kgdg.errors import (
    BoxOutOfBounds,
    DataError,
    DuplicateImageId,
    MissingColumn,
    NegativeProbability,
    NonNumericCell,
    SumOutOfTolerance,
    UnknownLesionKind,
)
from kgdg.fusion import FusionSource, FusionStrategy, fuse, fuse_arrays, fused_probability
from kgdg.io import (
    LESIONS_ONLY_HEADER,
    LESIONS_VEIN_HEADER,
    PROBS_HEADER,
    load_detections,
    load_feature_table,
    load_model,
    load_probability_table,
    read_detections,
    read_feature_table,
    read_prediction_table,
    read_probability_table,
    save_model,
)
from kgdg.learn import (
    TrainConfig,
    fit_forest_arrays,
    fit_gbm_arrays,
    fit_knn_arrays,
    fit_logistic_arrays,
    model_from_artifact,
)
from kgdg.learn import baselines as baselines_module
from kgdg.learn import gbm as gbm_module
from kgdg.learn.config import feature_matrix, row_sum, sample_weights, softmax, standardization
from kgdg.learn.tree import (
    GAIN_EPS,
    _gini,
    _leaf_value,
    fit_classification_tree,
    fit_regression_tree,
    flatten_trees,
    predict_tree,
)
from kgdg.metrics import _tie_averaged_ranks, auc_ovr_macro, binary_auc, match_detections

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


def ref_predict_tree(node, x):
    """The recursive dict walk the flat descent replaced: leaf values, or
    leaf distributions, of the rows of ``x``."""
    leaf = node.get("value")
    if leaf is not None:
        leaf_arr = np.asarray(leaf, dtype=np.float64)
        if leaf_arr.ndim == 0:
            return np.full(x.shape[0], float(leaf_arr))
        return np.tile(leaf_arr, (x.shape[0], 1))
    out = None
    mask = x[:, node["feature"]] < node["threshold"]
    for child, child_mask in ((node["left"], mask), (node["right"], ~mask)):
        vals = ref_predict_tree(child, x[child_mask])
        if out is None:
            out = np.zeros((x.shape[0],) + vals.shape[1:], dtype=np.float64)
        out[child_mask] = vals
    return out


def ref_fit_gbm(x, y, xv, yv, cfg):
    """The boosting loop before the node cache: (artifact params, loss curve)
    of reference trees whose training and validation scores are updated by
    the recursive walk, one grade at a time."""
    weights = sample_weights(y, cfg.class_weighting)
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    n = x.shape[0]
    onehot = np.eye(GRADE_COUNT)[y]
    base = gbm_module.weighted_log_priors(y, weights)
    scores, scores_v = np.tile(base, (n, 1)), np.tile(base, (xv.shape[0], 1))
    trees, losses = [], []
    best_acc, best_round = float(np.mean(softmax(scores_v).argmax(axis=1) == yv)), 0
    for round_idx in range(cfg.n_trees):
        probs = softmax(scores)
        rows = np.arange(n)
        if cfg.subsample < 1.0:
            rows = np.sort(rng.choice(n, size=max(1, int(round(cfg.subsample * n))), replace=False))
        trees.append([])
        for c in range(GRADE_COUNT):
            grad = weights * (probs[:, c] - onehot[:, c])
            hess = weights * probs[:, c] * (1.0 - probs[:, c])
            tree = ref_regression_tree(x[rows], grad[rows], hess[rows], cfg.max_depth, cfg.min_leaf, cfg.l2_leaf)
            trees[-1].append(tree)
            scores[:, c] += cfg.learning_rate * ref_predict_tree(tree, x)
            scores_v[:, c] += cfg.learning_rate * ref_predict_tree(tree, xv)
        losses.append(gbm_module.multinomial_log_loss(softmax(scores), y, weights))
        acc = float(np.mean(softmax(scores_v).argmax(axis=1) == yv))
        if acc > best_acc:
            best_acc, best_round = acc, round_idx + 1
        elif (round_idx + 1) - best_round >= cfg.early_stop_patience:
            break
    kept = trees[:best_round] if best_round < len(trees) else trees
    params = {"n_features": x.shape[1], "base_scores": base.tolist(), "trees": kept,
              "learning_rate": cfg.learning_rate, "best_round": best_round}
    return params, tuple(losses)


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


def ref_knn_predict(model, x):
    """kNN votes through a full stable argsort of each query row's distances."""
    xs = (x - model.mean) / model.std
    out = np.zeros((x.shape[0], GRADE_COUNT))
    for i in range(xs.shape[0]):
        dists = np.sqrt(((model.points - xs[i]) ** 2).sum(axis=1))
        nearest = np.argsort(dists, kind="stable")[: model.k]
        out[i] = np.bincount(model.grades[nearest], minlength=GRADE_COUNT) / model.k
    return out


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
    got, fitted = fit_regression_tree(x, g, h, depth, min_leaf, l2)
    want = ref_regression_tree(x, g, h, depth, min_leaf, l2)
    assert json.dumps(got) == json.dumps(want)
    assert fitted.tobytes() == ref_predict_tree(want, x).tobytes()  # each row's leaf, as a predict finds it


def _gbm_problem(seed, n=150):
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 5, size=n)
    x = np.column_stack([
        rng.poisson(1 + 2 * y).astype(np.float64),
        rng.integers(0, 3, size=n).astype(np.float64),
        rng.normal(size=n) + 0.3 * y,
    ])
    return x, y


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([0.3, 0.5, 0.8, 1.0]),
    st.integers(1, 6),
    st.integers(1, 5),
    st.booleans(),
    st.integers(1, 25),
)
def test_gbm_with_subsample_equals_reference_trees(seed, subsample, min_leaf, max_depth, class_weighting, n_trees):
    # patience >= n_trees: every round trains, so later rounds reuse the node cache
    x, y = _gbm_problem(seed)
    cfg = TrainConfig(n_trees=n_trees, subsample=subsample, min_leaf=min_leaf, max_depth=max_depth,
                      class_weighting=class_weighting, early_stop_patience=n_trees, seed=3)
    got = fit_gbm_arrays(x, y, x[:40], y[:40], ("a", "b", "c"), cfg)
    params, losses = ref_fit_gbm(x, y, x[:40], y[:40], cfg)
    assert json.dumps(got.to_artifact().params) == json.dumps(params)
    assert got.train_loss_curve == losses
    assert got.best_round == params["best_round"]


@pytest.mark.parametrize("subsample", [1.0, 0.6])
def test_gbm_fits_one_regression_tree_per_grade_and_round(subsample):
    # the benchmark times and counts trees by wrapping this module global
    x, y = _gbm_problem(5)
    calls = []
    original = gbm_module.fit_regression_tree

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    gbm_module.fit_regression_tree = counted
    try:
        model = fit_gbm_arrays(x, y, x[:40], y[:40], ("a", "b", "c"), TrainConfig(n_trees=12, subsample=subsample))
    finally:
        gbm_module.fit_regression_tree = original
    assert len(model.train_loss_curve) > 0
    assert len(calls) == GRADE_COUNT * len(model.train_loss_curve)


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
    assert json.dumps(fit_regression_tree(x, g, h, 1, 2, 1.0)[0]) == json.dumps(want)


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
    # 1400 rows at both schema widths: lesion counts, then vein floats
    rng = np.random.default_rng(9)
    n = 1400
    y = np.full(n, 3) if single_grade else rng.choice(5, size=n, p=[0.5, 0.2, 0.15, 0.1, 0.05])
    counts = np.column_stack([
        *(rng.poisson(0.5 + j * y).astype(np.float64) for j in range(5)),
        rng.integers(0, 4, size=n).astype(np.float64),
        np.full(n, 2.0),  # a constant column hits the std floor
        rng.poisson(0.2, size=n).astype(np.float64),
    ])
    vein = rng.normal(size=(n, 3)) * 5 + y[:, None]
    cfg = TrainConfig(model_kind="logistic", logistic_steps=150, class_weighting=class_weighting)
    for x, schema in ((counts, LESIONS_ONLY_SCHEMA), (np.hstack([counts, vein]), LESIONS_VEIN_SCHEMA)):
        model = fit_logistic_arrays(x, y, schema, cfg)
        w, b = ref_fit_logistic(x, y, cfg)
        assert np.array_equal(model.weights, w)
        assert np.array_equal(model.bias, b)


# --- (f2) kNN selection by partition equals the full stable sort --------------------------


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("k", [1, 5, "n"])
def test_knn_partition_equals_stable_argsort(seed, k):
    # every training point appears two to four times, so equal distances
    # straddle the k-th place; queries include training points and NaN rows
    rng = np.random.default_rng(seed)
    base = rng.integers(0, 3, size=(40, 4)).astype(np.float64)
    x = base[np.repeat(np.arange(40), rng.integers(2, 5, size=40))]
    y = rng.integers(0, 5, size=x.shape[0])
    k = x.shape[0] if k == "n" else k
    model = fit_knn_arrays(x, y, ("a", "b", "c", "d"), TrainConfig(model_kind="knn", k_neighbors=k))
    queries = np.vstack([rng.integers(0, 3, size=(60, 4)).astype(np.float64), x[:10], np.full((1, 4), np.nan),
                         np.where(np.arange(4) == 1, np.nan, x[:1])])
    if k < x.shape[0]:  # the case the candidates are kept for: equal distances at places k and k+1
        xs = (queries[:60] - model.mean) / model.std
        ranked = np.sort(np.sqrt(((model.points - xs[:, None]) ** 2).sum(axis=2)), axis=1)
        assert (ranked[:, k - 1] == ranked[:, k]).any()
    with np.errstate(invalid="ignore"):
        got = model.predict_proba_matrix(queries)
        want = ref_knn_predict(model, queries)
    assert got.tobytes() == want.tobytes()


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


# --- (g2) the flat level-wise descent equals the recursive walk -----------------------

THRESHOLDS = (-1.0, -0.5, 0.0, 0.25, 0.5, 1.0, 2.0)
CELLS = THRESHOLDS + (0.75, -3.0, float("nan"), float("inf"), float("-inf"))  # rows sit on every threshold


@st.composite
def random_tree(draw, n_features, vector):
    def node(depth):
        if depth == 0 or draw(st.booleans()):
            leaf = st.floats(-5, 5, allow_nan=False)
            return {"value": draw(st.lists(leaf, min_size=GRADE_COUNT, max_size=GRADE_COUNT) if vector else leaf)}
        return {"feature": draw(st.integers(0, n_features - 1)), "threshold": draw(st.sampled_from(THRESHOLDS)),
                "left": node(depth - 1), "right": node(depth - 1)}

    return node(draw(st.integers(0, 4)))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_flat_descent_equals_recursive_walk(data):
    n_features, vector = data.draw(st.integers(1, 4)), data.draw(st.booleans())
    trees = data.draw(st.lists(random_tree(n_features, vector), min_size=1, max_size=6))
    n = data.draw(st.integers(0, 30))
    cells = data.draw(st.lists(st.sampled_from(CELLS), min_size=n * n_features, max_size=n * n_features))
    x = np.array(cells, dtype=np.float64).reshape(n, n_features)
    got = predict_tree(flatten_trees(trees), x)
    assert got.shape == (n, len(trees)) + ((GRADE_COUNT,) if vector else ())
    for t, tree in enumerate(trees):
        want = ref_predict_tree(tree, x)
        assert got[:, t].tobytes() == want.tobytes()


def _splits(node):
    if "value" in node:
        return []
    return [(node["feature"], node["threshold"])] + _splits(node["left"]) + _splits(node["right"])


@pytest.mark.parametrize("kind", ["gbm", "forest"])
def test_artifact_round_trip_predicts_bit_identically(kind, tmp_path):
    x, y = _gbm_problem(11, n=200)
    cfg = TrainConfig(model_kind=kind, n_trees=8, max_depth=4, min_leaf=3, seed=1)
    schema = ("a", "b", "c")
    if kind == "gbm":
        model = fit_gbm_arrays(x, y, x[:50], y[:50], schema, cfg)
        flat_trees = [t for round_trees in model.trees for t in round_trees]
    else:
        model = fit_forest_arrays(x, y, schema, cfg)
        flat_trees = model.trees
    # probe rows: the training rows, rows on each split threshold, rows with a NaN feature
    on_threshold = np.repeat(x[:1], len(_splits(flat_trees[0])) or 1, axis=0)
    for i, (j, thr) in enumerate(_splits(flat_trees[0])):
        on_threshold[i, j] = thr
    with_nan = x[:6].copy()
    with_nan[np.arange(6), np.arange(6) % 3] = np.nan
    probe = np.vstack([x, on_threshold, with_nan])

    path = tmp_path / "model.kgdg"
    save_model(model.to_artifact(), path)
    loaded = model_from_artifact(load_model(path))
    got = model.predict_proba_matrix(probe)
    assert loaded.predict_proba_matrix(probe).tobytes() == got.tobytes()

    # and both equal the per-tree recursive walk the models used before
    if kind == "gbm":
        scores = np.tile(model.base_scores, (probe.shape[0], 1))
        for round_trees in model.trees:
            for c in range(GRADE_COUNT):
                scores[:, c] += model.learning_rate * ref_predict_tree(round_trees[c], probe)
        want = softmax(scores)
    else:
        acc = np.zeros((probe.shape[0], GRADE_COUNT))
        for tree in model.trees:
            acc += ref_predict_tree(tree, probe)
        want = acc / len(model.trees)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("kind", ["gbm", "forest"])
def test_models_flatten_their_trees_once(kind, monkeypatch):
    x, y = _gbm_problem(12, n=120)
    cfg = TrainConfig(model_kind=kind, n_trees=4, max_depth=3, min_leaf=3, seed=1)
    if kind == "gbm":
        module, model = gbm_module, fit_gbm_arrays(x, y, x[:30], y[:30], ("a", "b", "c"), cfg)
    else:
        module, model = baselines_module, fit_forest_arrays(x, y, ("a", "b", "c"), cfg)
    model = model_from_artifact(model.to_artifact())
    calls = []
    original = module.flatten_trees
    monkeypatch.setattr(module, "flatten_trees", lambda trees: calls.append(1) or original(trees))
    first = model.predict_proba_matrix(x)
    assert model.predict_proba_matrix(x).tobytes() == first.tobytes()
    assert len(calls) == (len(model.trees) if kind == "gbm" else 1)


# --- (h) the columnar readers equal the per-row loaders they replaced ----------------------

# The readers' two contract changes. The references below apply them when
# `changed` is true; a mutant's outcome may depend on `changed` only through them.
CONTRACT_CHANGES = (
    "a numeric table cell with digit grouping ('3_0', '1_0.5') is NON_NUMERIC_CELL",
    "a probs table row with an empty image_id is NON_NUMERIC_CELL",
    "an image_id with a comma, quote, CR, LF or lone surrogate is DATA_ERROR",
)
# Since then: a detection record without an image_id is DATA_ERROR (it raised KeyError),
# and so is one whose image_id is not a JSON string, whose x, y, w, h or score is not a
# JSON number (a bool is not), or whose image_id breaks the id rule above; a detection
# image_id is stripped, as a table's is, and one that is then empty is DATA_ERROR;
# ref_load_detections applies them.


def _ref_unwritable_id(image_id):
    """True for an id no writer can put in a CSV cell unquoted or encode as UTF-8."""
    return any(c in ',"\r\n' or 0xD800 <= ord(c) <= 0xDFFF for c in image_id)


def _ref_check_id(path, where, image_id):
    if _ref_unwritable_id(image_id):
        raise DataError(f"{path}: {where} has image_id {image_id!r}, which holds a comma, quote, line break "
                        f"or lone surrogate")


def ref_validate_probability(values):
    vals = [float(v) for v in values]
    for v in vals:
        if not math.isfinite(v):
            raise SumOutOfTolerance(f"non-finite probability {v!r}")
        if v < 0.0:
            raise NegativeProbability(f"negative probability {v!r}")
    total = sum(vals)
    deviation = abs(total - 1.0)
    if deviation <= PROB_SUM_EPS and all(v <= 1.0 for v in vals):
        return ProbabilityVector(tuple(vals))
    if deviation > PROB_RENORM_TOL:
        raise SumOutOfTolerance(
            f"probabilities sum to {total!r}, deviation {deviation:.3g} exceeds {PROB_RENORM_TOL}"
        )
    if deviation > PROB_SUM_EPS:
        warnings.warn(f"probability vector summed to {total!r}; renormalized", RenormalizationWarning)
    return ProbabilityVector(tuple(v / total for v in vals))


def _ref_number(kind, raw, changed):
    if changed and "_" in raw:
        raise ValueError("digit grouping")
    return kind(raw)


def _ref_parse_count(raw, column, row, upper=None, changed=True):
    try:
        value = _ref_number(int, raw, changed)
    except ValueError as exc:
        raise NonNumericCell(f"row {row}, column {column!r}: {raw!r} is not an integer") from exc
    if value < 0 or (upper is not None and value > upper):
        bound = f"0..{upper}" if upper is not None else ">= 0"
        raise NonNumericCell(f"row {row}, column {column!r}: {value} outside {bound}")
    return value


def _ref_parse_flag(raw, column, row):
    if raw not in ("0", "1"):
        raise NonNumericCell(f"row {row}, column {column!r}: {raw!r} is not 0/1")
    return raw == "1"


def _ref_parse_float(raw, column, row, lo, hi, changed=True):
    try:
        value = _ref_number(float, raw, changed)
    except ValueError as exc:
        raise NonNumericCell(f"row {row}, column {column!r}: {raw!r} is not numeric") from exc
    if not math.isfinite(value):
        raise NonNumericCell(f"row {row}, column {column!r}: {raw!r} is not a finite number")
    if value < lo or (hi is not None and value > hi):
        bound = f"[{lo},{hi}]" if hi is not None else f">= {lo}"
        raise NonNumericCell(f"row {row}, column {column!r}: {value} outside {bound}")
    return value


def ref_load_feature_table(path, changed=True):
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = tuple(h.strip() for h in next(reader))
        except StopIteration:
            raise MissingColumn(f"{path}: empty file") from None
        if header == LESIONS_VEIN_HEADER:
            with_vein = True
        elif header == LESIONS_ONLY_HEADER:
            with_vein = False
        else:
            raise MissingColumn(
                f"{path}: header does not match a known feature schema "
                f"(lesions-only or lesions+vein)"
            )
        examples, seen = [], set()
        for lineno, cells in enumerate(reader, start=2):
            if not cells:
                continue
            if len(cells) != len(header):
                raise MissingColumn(f"{path}: row {lineno} has {len(cells)} cells, expected {len(header)}")
            image_id = cells[0].strip()
            if not image_id:
                raise NonNumericCell(f"{path}: row {lineno} has an empty image_id")
            if changed:
                _ref_check_id(path, f"row {lineno}", image_id)
            if image_id in seen:
                raise DuplicateImageId(f"{path}: image_id {image_id!r} appears more than once")
            seen.add(image_id)
            if not cells[1].strip():
                raise NonNumericCell(f"{path}: row {lineno} has an empty domain")
            grade = _ref_parse_count(cells[2].strip(), "grade", lineno, 4, changed)
            kwargs = {
                name: (_ref_parse_flag(cells[i].strip(), name, lineno) if i in (8, 9)
                       else _ref_parse_count(cells[i].strip(), name, lineno, 4 if i == 10 else None, changed))
                for i, name in enumerate(header[3:11], start=3)
            }
            if with_vein:
                for i, hi in ((11, None), (12, None), (13, 180.0)):
                    kwargs[header[i]] = _ref_parse_float(cells[i].strip(), header[i], lineno, 0.0, hi, changed)
            examples.append(LabeledExample(image_id, DomainId(cells[1]), DRGrade(grade), FeatureVector(**kwargs)))
    return examples


def ref_load_probability_table(path, changed=True):
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = tuple(h.strip() for h in next(reader))
        except StopIteration:
            raise MissingColumn(f"{path}: empty file") from None
        if header != PROBS_HEADER:
            raise MissingColumn(f"{path}: header must be {','.join(PROBS_HEADER)}")
        table = {}
        for lineno, cells in enumerate(reader, start=2):
            if not cells:
                continue
            if len(cells) != 6:
                raise MissingColumn(f"{path}: row {lineno} has {len(cells)} cells, expected 6")
            image_id = cells[0].strip()
            if changed and not image_id:
                raise NonNumericCell(f"{path}: row {lineno} has an empty image_id")
            if changed:
                _ref_check_id(path, f"row {lineno}", image_id)
            if image_id in table:
                raise DuplicateImageId(f"{path}: image_id {image_id!r} appears more than once")
            try:
                values = [_ref_number(float, c, changed) for c in cells[1:6]]
            except ValueError as exc:
                raise NonNumericCell(f"{path}: row {lineno} has a non-numeric probability") from exc
            table[image_id] = ref_validate_probability(values)
    return table


def ref_load_prediction_table(path, changed=True):
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = [h.strip() for h in next(reader, [])]
        if not header or header[0] != "image_id" or "grade" not in header:
            raise MissingColumn(f"{path}: prediction table needs image_id,grade[,p0..p4]")
        grade_col = header.index("grade")
        prob_cols = [header.index(c) for c in PROBS_HEADER[1:] if c in header]
        if len(prob_cols) not in (0, GRADE_COUNT):
            raise MissingColumn(f"{path}: probability columns need all of p0..p4")
        table = {}
        for lineno, cells in enumerate(reader, start=2):
            if not cells:
                continue
            if len(cells) != len(header):
                raise MissingColumn(f"{path}: row {lineno} has {len(cells)} cells, expected {len(header)}")
            image_id = cells[0].strip()
            if changed:
                _ref_check_id(path, f"row {lineno}", image_id)
            if image_id in table:
                raise DuplicateImageId(f"{path}: image_id {image_id!r} appears more than once")
            grade = _ref_parse_count(cells[grade_col], "grade", lineno, GRADE_COUNT - 1, changed)
            probs = None
            if prob_cols:
                probs = ref_validate_probability(
                    [_ref_parse_float(cells[i], header[i], lineno, -math.inf, None, changed) for i in prob_cols]
                )
            table[image_id] = (grade, probs)
    return table


def ref_load_detections(path):
    try:
        records = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(records, list):
        raise DataError(f"{path}: expected a JSON list of detection records")
    out = {}
    for i, rec in enumerate(records):
        try:
            kind = LesionType(rec["lesion"])
        except ValueError:
            raise UnknownLesionKind(f"{path}: record {i} has unknown lesion {rec.get('lesion')!r}") from None
        except (KeyError, TypeError):
            raise DataError(f"{path}: record {i} is malformed") from None
        try:
            values = [rec["x"], rec["y"], rec["w"], rec["h"], rec["score"]]
            if any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in values):
                raise TypeError("x, y, w, h, score must be JSON numbers")
            box = BoundingBox(float(values[0]), float(values[1]), float(values[2]), float(values[3]))
            det = Detection(kind, box, float(values[4]))
            image_id = rec["image_id"]
            if not isinstance(image_id, str):
                raise TypeError("image_id must be a JSON string")
        except BoxOutOfBounds:
            raise
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise DataError(f"{path}: record {i} is malformed: {exc}") from exc
        image_id = image_id.strip()
        if not image_id:
            raise DataError(f"{path}: record {i} has an empty image_id")
        _ref_check_id(path, f"record {i}", image_id)
        out.setdefault(image_id, []).append(det)
    return out


def _outcome(load, path):
    """("ok", value, warnings) or ("raised", class, message, warnings)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            value = load(path)
        except Exception as exc:  # noqa: BLE001  the class and message are the outcome
            return ("raised", type(exc), str(exc), len(caught))
    renormalized = sum(issubclass(w.category, RenormalizationWarning) for w in caught)
    return ("ok", value, renormalized)


MALFORMED_TOKENS = ["", " ", "nan", "inf", "-inf", "-1", "1e400", "abc", "0x1", "1.5", "3_0", '"',
                    "999999999999999999999", "+1", "01", " 1 ", "-0", "0_1", "1_0.5", "1e2", "٣", "2.0",
                    '"a,b"', '"a\r\nb"', '"a""b"']


def _cell_token():
    return st.one_of(
        st.sampled_from(MALFORMED_TOKENS),
        st.integers(-3, 10**22).map(str),
        st.integers(-2, 6).map(str),
        st.floats(allow_nan=True, allow_infinity=True).map(repr),
        st.floats(0, 200).map(lambda v: f"{v:.6f}"),
    )


@st.composite
def mutated_tables(draw, header, row):
    """A valid CSV table (rows drawn by ``row``) with one mutation."""
    rows = [draw(row(i)) for i in range(draw(st.integers(1, 7)))]
    kind = draw(st.sampled_from(["cell", "cell", "cell", "drop", "duplicate", "short", "blank", "none"]))
    i = draw(st.integers(0, len(rows) - 1))
    if kind == "cell":
        rows[i][draw(st.integers(0, len(header) - 1))] = draw(_cell_token())
    elif kind == "drop":
        del rows[i]
    elif kind == "duplicate":
        rows.insert(draw(st.integers(0, len(rows))), list(rows[i]))
    elif kind == "short":
        rows[i] = rows[i][:-1]
    elif kind == "blank":
        rows.insert(i, [])
    return "\n".join([",".join(header)] + [",".join(r) for r in rows]) + "\n"


def _feature_row(with_vein):
    def row(i):
        cells = [st.just(f"img{i}"), st.sampled_from(["d", " D "]), st.integers(0, 4).map(str)]
        cells += [st.integers(0, 30).map(str)] * 5 + [st.sampled_from(["0", "1"])] * 2
        cells += [st.integers(0, 4).map(str)]
        if with_vein:
            cells += [st.floats(0, 5).map(lambda v: f"{v:.6f}")] * 2 + [st.floats(0, 180).map(lambda v: f"{v:.6f}")]
        return st.tuples(*cells).map(list)
    return row


def _probability_row(i):
    def cells(p):
        return [f"img{i}"] + [f"{v:.8f}" for v in p]
    simplex = st.lists(st.floats(0, 1), min_size=5, max_size=5).filter(lambda p: sum(p) > 0.1).map(
        lambda p: [v / sum(p) for v in p])
    near = st.tuples(simplex, st.sampled_from([1 + 5e-7, 1 - 5e-7, 1 + 5e-5, 1 - 9e-5, 1 + 2e-4])).map(
        lambda t: [v * t[1] for v in t[0]])
    above_one = st.just([1 + 5e-7, 0.0, 0.0, 0.0, 0.0])
    return st.one_of(simplex, near, above_one).map(lambda p: [f"img{i}"] + [repr(v) for v in p]) | \
        simplex.map(cells)


def _prediction_row(i):
    return st.tuples(st.integers(0, 4), _probability_row(i)).map(lambda t: [t[1][0], str(t[0])] + t[1][1:])


def _same(new, ref):
    assert new[0] == ref[0], (new, ref)
    if new[0] == "raised":
        assert new[1:] == ref[1:], (new, ref)
    return new[0] == "ok"


def _check_contract_changes(text, changed, unchanged, probs_table=False):
    """A mutant whose outcome depends on the contract changes holds one of them."""
    if changed != unchanged:
        ids = [line.split(",")[0].strip() for line in text.splitlines()[1:] if line]
        # a cell holds a comma, quote or line break only when it is quoted
        assert "_" in text.split("\n", 1)[1] or '"' in text or (probs_table and "" in ids), (text, changed, unchanged)


@pytest.fixture(scope="module")
def table_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("tables")


def compare_feature_readers(path):
    ref = _outcome(ref_load_feature_table, path)
    text = path.read_text()
    _check_contract_changes(text, ref, _outcome(lambda p: ref_load_feature_table(p, changed=False), path))
    if _same(_outcome(read_feature_table, path), ref):
        table, examples = read_feature_table(path), ref[1]
        assert table.ids == tuple(ex.image_id for ex in examples)
        assert table.domains == tuple(ex.domain for ex in examples)
        assert np.array_equal(table.y, [int(ex.grade) for ex in examples])
        for schema in {LESIONS_ONLY_SCHEMA, table.schema}:
            expected = feature_matrix(examples, schema).reshape(len(examples), len(schema))
            assert np.array_equal(table.matrix(schema), expected)
        assert load_feature_table(path) == examples


def compare_probability_readers(path):
    ref = _outcome(ref_load_probability_table, path)
    text = path.read_text()
    _check_contract_changes(text, ref, _outcome(lambda p: ref_load_probability_table(p, changed=False), path), True)
    new = _outcome(read_probability_table, path)
    if _same(new, ref):
        (ids, rows), table = new[1], ref[1]
        assert ids == tuple(table) and new[2] == ref[2]
        assert np.array_equal(rows, np.array([v.probs for v in table.values()]).reshape(-1, GRADE_COUNT))
        assert _outcome(load_probability_table, path)[1:] == ref[1:]


def compare_prediction_readers(path):
    ref = _outcome(ref_load_prediction_table, path)
    text = path.read_text()
    _check_contract_changes(text, ref, _outcome(lambda p: ref_load_prediction_table(p, changed=False), path))
    new = _outcome(read_prediction_table, path)
    if _same(new, ref):
        (ids, grades, probs), table = new[1], ref[1]
        assert ids == tuple(table) and new[2] == ref[2]
        assert np.array_equal(grades, [g for g, _ in table.values()])
        expected = [p for _, p in table.values()]
        if probs is None:
            assert all(p is None for p in expected)
        else:
            assert np.array_equal(probs, np.array([p.probs for p in expected]).reshape(-1, GRADE_COUNT))


def _prediction_row_plain(i):
    return st.integers(0, 4).map(lambda g: [f"img{i}", str(g)])


PREDICTION_HEADER = ("image_id", "grade") + PROBS_HEADER[1:]
TABLES = {  # table: (header, row strategy, comparison)
    "features": (LESIONS_VEIN_HEADER, _feature_row(True), compare_feature_readers),
    "features_lesions_only": (LESIONS_ONLY_HEADER, _feature_row(False), compare_feature_readers),
    "probs": (PROBS_HEADER, _probability_row, compare_probability_readers),
    "preds": (PREDICTION_HEADER, _prediction_row, compare_prediction_readers),
    "preds_grade_only": (("image_id", "grade"), _prediction_row_plain, compare_prediction_readers),
}
GRID_ROWS = {
    "features": [["img0", "d", "2", "3", "0", "1", "0", "2", "0", "1", "3", "1.5", "2.25", "90.0"],
                 ["img1", "d", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0.5", "4.0", "12.5"]],
    "probs": [["img0", "0.1", "0.2", "0.3", "0.2", "0.2"], ["img1", "0.2", "0.2", "0.2", "0.2", "0.20005"]],
    "preds": [["img0", "2", "0.1", "0.2", "0.3", "0.2", "0.2"], ["img1", "4", "0", "0", "0", "0", "1"]],
}
GRID_ROWS["features_lesions_only"] = [r[:11] for r in GRID_ROWS["features"]]
GRID_ROWS["preds_grade_only"] = [r[:2] for r in GRID_ROWS["preds"]]


@pytest.mark.parametrize("table", sorted(TABLES))
@pytest.mark.parametrize("token", MALFORMED_TOKENS)
def test_readers_equal_per_row_loaders_on_every_cell(table_dir, table, token):
    """Each malformed token in each cell of a small valid table."""
    header, _, compare = TABLES[table]
    for row in range(2):
        for column in range(len(header)):
            rows = [list(r) for r in GRID_ROWS[table]]
            rows[row][column] = token
            path = table_dir / f"grid_{table}.csv"
            path.write_text("\n".join([",".join(header)] + [",".join(r) for r in rows]) + "\n")
            compare(path)


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(sorted(TABLES)), st.data())
def test_readers_equal_per_row_loaders_on_mutants(table_dir, table, data):
    header, row, compare = TABLES[table]
    path = table_dir / f"{table}.csv"
    path.write_text(data.draw(mutated_tables(header, row)))
    compare(path)


DETECTION = {"image_id": "i0", "lesion": "microaneurysm", "x": 0.1, "y": 0.2, "w": 0.05, "h": 0.05, "score": 0.5}
DETECTION_VALUES = [None, True, False, "0.5", "x", [], {}, -0.1, 0.0, 0.5, 1.0, 1.0000000001, 1.0 + 2e-9,
                    float("nan"), 10**400, 3, 1, "drusen", "hard_hemorrhage", "neovascularization", "i1", 7,
                    "i,1", 'i"1', "i\r1", "i\n1", "i\ud800", "%s", " i1 ", "", " \t", "i1\n"]


@st.composite
def mutated_detections(draw):
    records = [dict(DETECTION, image_id=f"i{draw(st.integers(0, 3))}",
                    lesion=draw(st.sampled_from([kind.value for kind in LesionType])),
                    x=draw(st.floats(0, 0.9)), y=draw(st.floats(0, 0.9)), w=draw(st.floats(0.01, 0.1)),
                    h=draw(st.floats(0.01, 0.1)), score=draw(st.floats(0, 1)))
               for _ in range(draw(st.integers(0, 6)))]
    kind = draw(st.sampled_from(["value", "value", "edge", "missing", "record", "none"]))
    if records and kind == "value":
        draw(st.sampled_from(records))[draw(st.sampled_from(sorted(DETECTION)))] = draw(st.sampled_from(DETECTION_VALUES))
    elif records and kind == "edge":  # a box ending on the right or bottom edge, within or past BOX_EDGE_EPS
        rec, (pos, size) = draw(st.sampled_from(records)), draw(st.sampled_from([("x", "w"), ("y", "h")]))
        rec[size] = draw(st.sampled_from([1.0 - rec[pos], 1.0 - rec[pos] + 5e-10, 1.0 - rec[pos] + 5e-9]))
    elif records and kind == "missing":
        del draw(st.sampled_from(records))[draw(st.sampled_from(sorted(DETECTION)))]
    elif kind == "record":
        records.insert(0, draw(st.sampled_from([[], "x", 3, None])))
    return records


@settings(max_examples=300, deadline=None)
@given(mutated_detections())
def test_detection_reader_equals_per_record_loader(table_dir, records):
    path = table_dir / "detections.json"
    path.write_text(json.dumps(records))
    ref = _outcome(ref_load_detections, path)
    if _same(_outcome(load_detections, path), ref):
        table, dets = read_detections(path), ref[1]
        assert table.ids == tuple(dets)
        assert table.score.size == sum(len(image_dets) for image_dets in dets.values())


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.floats(-0.1, 1.1), st.sampled_from([0.0, -0.0, 1.0, float("nan"), float("inf")])),
                min_size=5, max_size=5),
       st.sampled_from([1.0, 1 + 5e-7, 1 - 5e-5, 1 + 2e-4]))
def test_validate_probability_equals_per_row_reference(values, scale):
    """One row through the array validation: same row, warnings and errors."""
    total = sum(v for v in values if math.isfinite(v))
    row = [v / total * scale if math.isfinite(v) and total > 0 else v for v in values]
    new, ref = _outcome(validate_probability, row), _outcome(ref_validate_probability, row)
    if _same(new, ref):
        assert new[1] == ref[1] and new[2] == ref[2]


# --- (h) detection matching over tables equals the per-image Detection loop ---------


def ref_iou(a, b):
    ax2, ay2 = a.x + a.w, a.y + a.h
    bx2, by2 = b.x + b.w, b.y + b.h
    ix = max(0.0, min(ax2, bx2) - max(a.x, b.x))
    iy = max(0.0, min(ay2, by2) - max(a.y, b.y))
    inter = ix * iy
    union = (ax2 - a.x) * (ay2 - a.y) + (bx2 - b.x) * (by2 - b.y) - inter
    return inter / union if union > 0 else 0.0


def ref_match_detections(pred, truth, iou_threshold):
    """Greedy matching over {image_id: [Detection]} maps, one prediction at a time."""
    images = [(pred.get(i, ()), truth.get(i, ())) for i in dict.fromkeys([*pred, *truth])]
    kinds = sorted({d.lesion for dets in images for side in dets for d in side}, key=lambda k: k.value)
    per_lesion = {kind.value: 0 for kind in kinds}
    matched_ious = []
    for image_pred, image_truth in images:
        for kind in kinds:
            preds = sorted((d for d in image_pred if d.lesion == kind), key=lambda d: -d.score)
            truths = [d for d in image_truth if d.lesion == kind]
            taken = [False] * len(truths)
            for p in preds:
                best_iou, best_j = -1.0, -1
                for j, tr in enumerate(truths):
                    v = -1.0 if taken[j] else ref_iou(p.box, tr.box)
                    if v > best_iou:
                        best_iou, best_j = v, j
                if best_j >= 0 and best_iou >= iou_threshold:
                    taken[best_j] = True
                    per_lesion[kind.value] += 1
                    matched_ious.append(best_iou)
    total = len(matched_ious)
    n_pred, n_truth = sum(len(p) for p, _ in images), sum(len(t) for _, t in images)
    return {"matched_per_lesion": per_lesion, "matched_total": total,
            "mean_matched_iou": float(np.mean(matched_ious)) if matched_ious else 0.0,
            "precision": total / n_pred if n_pred else 1.0, "recall": total / n_truth if n_truth else 1.0}


@st.composite
def detection_maps(draw):
    """{image_id: [Detection]} on a coarse grid, so IoUs and scores tie; the
    three kinds sort by name in another order than by code."""
    out = {}
    for _ in range(draw(st.integers(0, 14))):
        box = BoundingBox(draw(st.sampled_from([0.0, 0.1, 0.15, 0.5])), draw(st.sampled_from([0.0, 0.1, 0.5])),
                          draw(st.sampled_from([0.1, 0.2, 0.3])), draw(st.sampled_from([0.1, 0.2])))
        kind = draw(st.sampled_from([LesionType.MICROANEURYSM, LesionType.HARD_EXUDATE, LesionType.HARD_HEMORRHAGE]))
        out.setdefault(draw(st.sampled_from("abc")), []).append(Detection(kind, box, draw(st.sampled_from([0.2, 0.9]))))
    return out


@settings(max_examples=300, deadline=None)
@given(detection_maps(), detection_maps(), st.sampled_from([0.0, 0.1, 0.3, 0.5, 1.0]))
def test_detection_matching_equals_per_image_loop(pred, truth, iou_threshold):
    report = match_detections(DetectionTable.from_detections(pred), DetectionTable.from_detections(truth),
                              iou_threshold)
    ref = ref_match_detections(pred, truth, iou_threshold)
    assert dataclasses.asdict(report) == ref
    assert list(report.matched_per_lesion) == list(ref["matched_per_lesion"])
