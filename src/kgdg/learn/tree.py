"""Decision trees used by the boosting and forest learners.

Split search is an exact scan over sorted unique feature values. Ties
break to the lowest feature index, then the lowest threshold, so a fit
is a pure function of (data, config, rng draws). Trees are nested dicts,
the form artifacts store; they predict as flat node arrays, which a model
builds once.

No builder may refer to itself through a closure once its fit returns:
that cycle keeps the fit's node cache and scratch buffers alive until a
full garbage collection. So each recursive builder clears its own name
after the top-level call, and reference counting frees them on return.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Any

import numpy as np

from ..core import GRADE_COUNT, row_sum

GAIN_EPS = 1e-12


def _leaf_value(g: np.ndarray, h: np.ndarray, l2: float) -> float:
    denom = float(h.sum()) + l2
    return 0.0 if denom <= 0 else float(-g.sum() / denom)


class _Node:
    """A node's rows (ascending) and, when it can split, ``orders``: each
    feature's stable order of them, ``cut``: the flat positions in
    ``orders`` a split may follow, and ``feature``: the feature of each.
    ``children`` maps a cut taken to (threshold, left, right), ``taken`` to
    the last round that took it."""

    __slots__ = ("rows", "depth", "orders", "cut", "feature", "children", "taken")

    def __init__(self, rows: np.ndarray, depth: int) -> None:
        self.rows, self.depth, self.orders, self.cut, self.feature = rows, depth, None, None, None
        self.children: dict[int, tuple[float, _Node, _Node]] = {}
        self.taken: dict[int, int] = {}


class NodeCache:
    """Split state, keyed by split path, of the nodes that trees over the
    rows of ``x`` reach. A node's per-feature stable order, allowed cuts (a
    value change with ``min_leaf`` rows on each side) and children depend on
    its rows, not on the gradients, so all grade trees and rounds reuse them
    (XGBoost's presorted column blocks). A node is prepared when first
    reached; one that cannot split keeps only its rows, and no node keeps
    sorted values. :meth:`prune` after each round keeps only what the last
    two rounds reached."""

    def __init__(self, x: np.ndarray, max_depth: int, min_leaf: int) -> None:
        order = np.argsort(x, axis=0, kind="stable").T
        self.xt, self.min_leaf, self.round = np.ascontiguousarray(x.T), min_leaf, 0
        self.root = self._node(np.arange(x.shape[0]), max_depth, order, np.full(order.shape, True))

    def _node(self, rows: np.ndarray, depth: int, orders: np.ndarray, keep: np.ndarray) -> _Node:
        node, m, min_leaf = _Node(rows, depth), rows.size, self.min_leaf
        if depth == 0 or m < 2 * min_leaf:
            return node
        orders = orders[keep].reshape(len(self.xt), m)  # stable orders of this node's rows
        xs = np.take_along_axis(self.xt, orders, axis=1)
        # a cut after position i needs a value change at i -> i+1 and at
        # least min_leaf rows on each side
        allowed = xs[:, :-1] != xs[:, 1:]
        allowed[:, : min_leaf - 1] = False
        allowed[:, m - min_leaf :] = False
        fi, ci = np.nonzero(allowed)
        if fi.size:
            node.orders, node.cut, node.feature = orders, fi * m + ci, fi
        return node

    def prune(self) -> None:
        """End a round: forget the children of cuts that neither this round
        nor the one before took."""
        stack = [self.root]
        while stack:
            node = stack.pop()
            node.children = {k: c for k, c in node.children.items() if node.taken[k] >= self.round - 1}
            node.taken = {k: node.taken[k] for k in node.children}
            stack += [child for _, left, right in node.children.values() for child in (left, right)]
        self.round += 1

    def split(self, node: _Node, k: int) -> tuple[float, _Node, _Node]:
        """Threshold and children of ``node``'s k-th allowed cut."""
        node.taken[k] = self.round
        if k not in node.children:
            orders, rows, xt = node.orders, node.rows, self.xt
            j, c = divmod(int(node.cut[k]), rows.size)
            thr = float((xt[j, orders[j, c]] + xt[j, orders[j, c + 1]]) / 2.0)
            goes_left = xt[j] < thr
            left = goes_left[orders]
            node.children[k] = (thr, self._node(rows[goes_left[rows]], node.depth - 1, orders, left),
                                self._node(rows[~goes_left[rows]], node.depth - 1, orders, ~left))
        return node.children[k]


def _best_cut(node: _Node, gh: np.ndarray, l2: float) -> int | None:
    """Index into ``node.cut`` of the highest-gain cut, None when no gain
    exceeds GAIN_EPS. ``gh`` carries gradients as real and hessians as
    imaginary parts: one gather and one cumsum make both prefix sums, each
    the same float additions in the same order as a cumsum of its own."""
    sums = gh[node.orders]
    np.cumsum(sums, axis=1, out=sums)  # in place: a fresh buffer this size costs more than the sums
    total, fi = sums[:, -1], node.feature
    # the parent term is a per-feature scalar power: C pow can differ from
    # the array square by one ulp, enough to flip a near-tie between features
    parent = np.array([a**2 / (b + l2) for a, b in zip(total.real, total.imag)])
    left = sums.take(node.cut)
    right = total[fi] - left
    gl, hl, gr, hr = left.real, left.imag, right.real, right.imag
    gains = 0.5 * (gl**2 / (hl + l2) + gr**2 / (hr + l2) - parent[fi])
    nan = np.isnan(gains)
    if nan.any():  # a per-feature argmax lands on the NaN: skip that feature
        gains[np.isin(fi, fi[nan])] = -np.inf
    best = int(np.argmax(gains))  # first max -> lowest feature, then threshold
    return best if gains[best] > GAIN_EPS else None


def fit_regression_tree(nodes: NodeCache, g: np.ndarray, h: np.ndarray,
                        l2: float) -> tuple[dict[str, Any], np.ndarray]:
    """Second-order (Newton) regression tree on gradient/hessian targets,
    grown on ``nodes``, the :class:`NodeCache` of the training rows.
    Returns the tree and each row's leaf value."""
    fitted = np.empty(g.size)
    gh = np.empty(g.size, dtype=np.complex128)
    gh.real, gh.imag = g, h

    def build(node: _Node) -> dict[str, Any]:
        k = None if node.cut is None else _best_cut(node, gh, l2)
        if k is None:
            fitted[node.rows] = value = _leaf_value(g[node.rows], h[node.rows], l2)
            return {"value": value}
        thr, left, right = nodes.split(node, k)
        return {"feature": int(node.feature[k]), "threshold": thr, "left": build(left), "right": build(right)}

    tree = build(nodes.root)
    del build  # break the self-reference cycle (module docstring)
    return tree, fitted


# flat node arrays in preorder, the layout of scikit-learn's ``Tree``, with a
# leaf its own two children; ``value`` holds leaf values (0 at a split) and
# ``depth`` is the deepest tree's
FlatTrees = namedtuple("FlatTrees", "feature threshold left right value roots depth")


def flatten_trees(trees: list[dict[str, Any]]) -> FlatTrees:
    """The nested-dict trees as the FlatTrees :func:`predict_tree` descends;
    a model builds them once."""
    nodes: list[list[Any]] = []  # [feature, threshold, left, right] in preorder
    leaves: dict[int, Any] = {}

    def add(node: dict[str, Any]) -> int:  # the subtree's depth
        i = len(nodes)
        nodes.append([node.get("feature", 0), node.get("threshold", 0.0), i, i])
        if "value" in node:
            leaves[i] = node["value"]
            return 0
        nodes[i][2] = len(nodes)
        depth = add(node["left"])
        nodes[i][3] = len(nodes)
        return 1 + max(depth, add(node["right"]))

    roots, depths = zip(*[(len(nodes), add(tree)) for tree in trees])
    del add  # break the self-reference cycle (module docstring)
    feature, threshold, left, right = (np.array(column) for column in zip(*nodes))
    value = np.zeros((len(nodes),) + np.shape(next(iter(leaves.values()))))
    value[list(leaves)] = list(leaves.values())
    return FlatTrees(feature, threshold, left, right, value, np.array(roots), max(depths))


def predict_tree(trees: FlatTrees, x: np.ndarray) -> np.ndarray:
    """Leaf value of each row of ``x`` in each tree, (rows, trees[, k]). All
    rows descend all trees a level per step. Rows with ``x[feature] <
    threshold`` go left, so a NaN goes right."""
    feature, threshold, left, right, value, roots, depth = trees
    node, rows = np.tile(roots, (x.shape[0], 1)), np.arange(x.shape[0])[:, None]
    for _ in range(depth):
        node = np.where(x[rows, feature[node]] < threshold[node], left[node], right[node])
    return value[node]


def _gini(counts: np.ndarray) -> np.ndarray:
    """Gini impurity of each row of nonempty class counts; equal bit for bit
    to the scalar ``1 - (p**2).sum()`` of that row."""
    p = counts / counts.sum(axis=1, keepdims=True)
    return 1.0 - row_sum(p**2)


def fit_classification_tree(x: np.ndarray, y: np.ndarray, rng: np.random.Generator, max_depth: int, min_leaf: int,
                            max_features: int) -> dict[str, Any]:
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
        return {"feature": j, "threshold": thr,
                "left": build(idx[mask], depth - 1), "right": build(idx[~mask], depth - 1)}

    tree = build(np.arange(x.shape[0]), max_depth)
    del build  # break the self-reference cycle (module docstring)
    return tree
