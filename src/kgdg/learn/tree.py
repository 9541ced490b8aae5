"""Decision trees used by the boosting and forest learners.

Split search is an exact scan over sorted unique feature values. Ties
break to the lowest feature index, then the lowest threshold, so a fit
is a pure function of (data, config, rng draws).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..core import GRADE_COUNT
from .config import row_sum

GAIN_EPS = 1e-12


def _leaf_value(g: np.ndarray, h: np.ndarray, l2: float) -> float:
    denom = float(h.sum()) + l2
    if denom <= 0:
        return 0.0
    return float(-g.sum() / denom)


def fit_regression_tree(
    x: np.ndarray,
    g: np.ndarray,
    h: np.ndarray,
    max_depth: int,
    min_leaf: int,
    l2: float,
    order: np.ndarray | None = None,
) -> dict[str, Any]:
    """Second-order (Newton) regression tree on gradient/hessian targets.

    ``order`` is the (features, rows) stable sort order of each column of
    ``x``; it is computed when absent. Nodes keep it partitioned stably
    (exact pre-sorted search), so a node's order per feature is the stable
    order of its own rows and no node sorts again.
    """
    if order is None:
        order = np.argsort(x, axis=0, kind="stable").T
    xt = np.ascontiguousarray(x.T)

    def best_split(orders: np.ndarray) -> tuple[int, float] | None:
        m = orders.shape[1]
        xs = np.take_along_axis(xt, orders, axis=1)
        gs = np.cumsum(g[orders], axis=1)
        hs = np.cumsum(h[orders], axis=1)
        # candidate cut after position i needs a value change at i -> i+1
        # and at least min_leaf rows on each side
        allowed = xs[:, :-1] != xs[:, 1:]
        allowed[:, : min_leaf - 1] = False
        allowed[:, m - min_leaf :] = False
        fi, ci = np.nonzero(allowed)
        if fi.size == 0:
            return None
        # the parent term is a per-feature scalar power: C pow can differ from
        # the array square by one ulp, enough to flip a near-tie between features
        parent = np.array([gt**2 / (ht + l2) for gt, ht in zip(gs[:, -1], hs[:, -1])])
        gl, hl = gs[fi, ci], hs[fi, ci]
        gr, hr = gs[fi, -1] - gl, hs[fi, -1] - hl
        gains = 0.5 * (gl**2 / (hl + l2) + gr**2 / (hr + l2) - parent[fi])
        nan = np.isnan(gains)
        if nan.any():  # a per-feature argmax lands on the NaN: skip that feature
            gains[np.isin(fi, fi[nan])] = -np.inf
        best = int(np.argmax(gains))  # first max -> lowest feature, then threshold
        if not gains[best] > GAIN_EPS:
            return None
        j, c = int(fi[best]), int(ci[best])
        return j, float((xs[j, c] + xs[j, c + 1]) / 2.0)

    def build(idx: np.ndarray, orders: np.ndarray, depth: int) -> dict[str, Any]:
        if depth == 0 or idx.size < 2 * min_leaf:
            return {"value": _leaf_value(g[idx], h[idx], l2)}
        found = best_split(orders)
        if found is None:
            return {"value": _leaf_value(g[idx], h[idx], l2)}
        j, thr = found
        goes_left = xt[j] < thr
        left = goes_left[orders]
        return {
            "feature": j,
            "threshold": thr,
            "left": build(idx[goes_left[idx]], orders[left].reshape(len(xt), -1), depth - 1),
            "right": build(idx[~goes_left[idx]], orders[~left].reshape(len(xt), -1), depth - 1),
        }

    return build(np.arange(x.shape[0]), order, max_depth)


def predict_tree(node: dict[str, Any], x: np.ndarray) -> np.ndarray:
    """Vectorized tree evaluation; returns leaf values (or distributions)."""
    leaf = node.get("value")
    if leaf is not None:
        leaf_arr = np.asarray(leaf, dtype=np.float64)
        if leaf_arr.ndim == 0:
            return np.full(x.shape[0], float(leaf_arr))
        return np.tile(leaf_arr, (x.shape[0], 1))
    out: np.ndarray | None = None
    mask = x[:, node["feature"]] < node["threshold"]
    for child, child_mask in ((node["left"], mask), (node["right"], ~mask)):
        vals = predict_tree(child, x[child_mask])
        if out is None:
            out = np.zeros((x.shape[0],) + vals.shape[1:], dtype=np.float64)
        out[child_mask] = vals
    assert out is not None
    return out


def _gini(counts: np.ndarray) -> np.ndarray:
    """Gini impurity of each row of nonempty class counts; equal bit for bit
    to the scalar ``1 - (p**2).sum()`` of that row."""
    p = counts / counts.sum(axis=1, keepdims=True)
    return 1.0 - row_sum(p**2)


def fit_classification_tree(
    x: np.ndarray,
    y: np.ndarray,
    rng: np.random.Generator,
    max_depth: int,
    min_leaf: int,
    max_features: int,
) -> dict[str, Any]:
    """Gini CART tree sampling ``max_features`` candidate features per node.

    Each candidate's cuts are scored in one array pass; the first maximum
    in (candidate, cut) order wins. Leaves hold grade-frequency distributions.
    """
    n_features = x.shape[1]
    onehot = np.zeros((y.size, GRADE_COUNT), dtype=np.float64)
    onehot[np.arange(y.size), y] = 1.0

    def leaf(idx: np.ndarray) -> dict[str, Any]:
        counts = onehot[idx].sum(axis=0)
        return {"value": (counts / counts.sum()).tolist()}

    def build(idx: np.ndarray, depth: int) -> dict[str, Any]:
        if depth == 0 or idx.size < 2 * min_leaf or np.unique(y[idx]).size == 1:
            return leaf(idx)
        candidates = np.sort(rng.choice(n_features, size=min(max_features, n_features), replace=False))
        counts = onehot[idx]
        parent = counts.sum(axis=0)
        parent_imp = _gini(parent[None, :])[0]
        best_gain = GAIN_EPS
        best: tuple[int, float] | None = None
        for j in candidates:
            order = np.argsort(x[idx, j], kind="stable")
            xs = x[idx[order], j]
            # a cut after position i needs a value change at i -> i+1 and at
            # least min_leaf rows on each side
            left_n = np.nonzero(xs[:-1] != xs[1:])[0] + 1
            left_n = left_n[(left_n >= min_leaf) & (idx.size - left_n >= min_leaf)]
            if left_n.size == 0:
                continue
            left = np.cumsum(counts[order], axis=0)[left_n - 1]
            right_n = idx.size - left_n
            gains = parent_imp - (left_n * _gini(left) + right_n * _gini(parent - left)) / idx.size
            k = int(np.argmax(gains))
            if gains[k] > best_gain:
                best_gain = gains[k]
                c = left_n[k] - 1
                best = (int(j), float((xs[c] + xs[c + 1]) / 2.0))
        if best is None:
            return leaf(idx)
        j, thr = best
        mask = x[idx, j] < thr
        return {
            "feature": j,
            "threshold": thr,
            "left": build(idx[mask], depth - 1),
            "right": build(idx[~mask], depth - 1),
        }

    return build(np.arange(x.shape[0]), max_depth)
