"""Learner and experiment calls leave no cyclic garbage.

Reference counting frees what a call drops only when nothing it made forms
a reference cycle; a cycle (a recursive closure's function and its cell,
say) keeps a fit's node cache and scratch buffers alive until the next full
collection. Each test runs the call once to warm up (lazy imports and caches
made on a first call are not per-call garbage), then again with the
collector off and checks that a collection finds nothing to free.
"""

import gc

import numpy as np
import pytest

from kgdg.harness import ExperimentConfig, run_experiment
from kgdg.io import load_manifest
from kgdg.learn import TrainConfig, fit_model
from kgdg.learn.tree import NodeCache, fit_classification_tree, fit_regression_tree, flatten_trees
from kgdg.synth import shift_profile, write_dataset


def unreachable_after(call):
    """Objects a full collection frees after ``call()``, whose result is kept."""
    call()
    gc.collect()
    gc.disable()
    try:
        result = call()  # noqa: F841  kept alive, so only the call's garbage counts
        return gc.collect()
    finally:
        gc.enable()


def arrays(n, features=4, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, features)), np.arange(n) % 5


def test_regression_tree_leaves_no_cycles():
    x, _ = arrays(60)
    g = np.random.default_rng(1).normal(size=60)
    assert unreachable_after(lambda: fit_regression_tree(NodeCache(x, 3, 2), g, np.ones(60), 1.0)) == 0


def test_classification_tree_leaves_no_cycles():
    x, y = arrays(60)
    assert unreachable_after(lambda: fit_classification_tree(x, y, np.random.default_rng(0), 3, 2, 2)) == 0


def test_flatten_trees_leaves_no_cycles():
    x, _ = arrays(60)
    tree, _ = fit_regression_tree(NodeCache(x, 3, 2), np.random.default_rng(1).normal(size=60), np.ones(60), 1.0)
    assert unreachable_after(lambda: flatten_trees([tree, tree])) == 0


@pytest.mark.parametrize("kind", ["gbm", "logistic", "forest", "knn"])
def test_fit_model_leaves_no_cycles(kind):
    x, y = arrays(200, features=6)
    schema = tuple(f"f{i}" for i in range(6))
    cfg = TrainConfig(model_kind=kind, n_trees=10)
    assert unreachable_after(lambda: fit_model(x, y, x[:50], y[:50], schema, cfg)) == 0


@pytest.fixture(scope="module")
def small_manifest(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("synthdata")
    return load_manifest(write_dataset(shift_profile("mild", seed=0, n_samples=150), tmp))


@pytest.mark.parametrize("mode", ["sdg", "mdg"])
def test_run_experiment_leaves_no_cycles(mode, small_manifest):
    cfg = ExperimentConfig(mode=mode, source="clinic_a", seeds=(0,), symbolic=TrainConfig(n_trees=10))
    assert unreachable_after(lambda: run_experiment(cfg, small_manifest)) == 0
