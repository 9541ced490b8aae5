"""Reference logistic-regression loss for the tests: the weighted-mean
cross-entropy and its gradients. ``fit_logistic_arrays`` minimizes this loss
plus an L2 penalty; the tests check that the penalized gradient is below its
tolerance at the fitted weights."""

from __future__ import annotations

import numpy as np

from kgdg.learn import softmax


def logistic_loss_and_grad(
    w: np.ndarray,
    b: np.ndarray,
    x: np.ndarray,
    y: np.ndarray,
    weights: np.ndarray,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Weighted-mean cross-entropy of softmax(x w^T + b) and its gradients."""
    probs = softmax(x @ w.T + b)
    picked = np.clip(probs[np.arange(y.size), y], 1e-300, None)
    total = weights.sum()
    loss = float(-(weights * np.log(picked)).sum() / total)
    delta = probs.copy()
    delta[np.arange(y.size), y] -= 1.0
    delta *= (weights / total)[:, None]
    return loss, delta.T @ x, delta.sum(axis=0)
