import numpy as np
import pytest

from kgdg.core import (
    LESIONS_ONLY_SCHEMA,
    VEIN_FEATURE_NAMES,
    DomainId,
    DomainTable,
    DRGrade,
    FeatureVector,
    LabeledExample,
)
from kgdg.errors import InvalidConfig, SchemaMismatch, SingleClassTrain, TooFewPerClass
from kgdg.io import canonical_json
from kgdg.learn import (
    TrainConfig,
    cross_validate,
    feature_matrix,
    fit_gbm_arrays,
    fit_knn_arrays,
    fit_logistic_arrays,
    fit_model,
    logistic_loss_and_grad,
    resolve_schema,
    sample_weights,
    softmax,
)
from kgdg.learn.tree import fit_classification_tree, flatten_trees, predict_tree


def make_example(i, grade, domain="d", **counts):
    return LabeledExample(
        image_id=f"{domain}-{i}",
        domain=DomainId(domain),
        grade=DRGrade(grade),
        features=FeatureVector(**counts),
    )


def domain_table(examples, domain=None):
    """The DomainTable whose rows are ``examples``: DomainTable.examples() inverted."""
    vein = [ex.features.as_row(VEIN_FEATURE_NAMES) for ex in examples if ex.features.has_vein]
    return DomainTable(
        tuple(ex.image_id for ex in examples),
        tuple(ex.domain for ex in examples),
        np.array([int(ex.grade) for ex in examples], dtype=np.int64),
        np.array([ex.features.as_row(LESIONS_ONLY_SCHEMA) for ex in examples], dtype=np.int64).reshape(-1, 8),
        np.array(vein, dtype=np.float64) if vein else None,
        domain=None if domain is None else DomainId(domain),
    )


def labels(examples):
    return np.array([int(ex.grade) for ex in examples], dtype=np.int64)


def fit_examples(train, valid, cfg):
    """fit_model on example lists, featurized with the training rows' schema."""
    schema = resolve_schema(cfg, domain_table(train))
    return fit_model(
        feature_matrix(train, schema),
        labels(train),
        feature_matrix(valid, schema),
        labels(valid),
        schema,
        cfg,
    )


def predict_row(model, features):
    """The model's probability row for one feature vector."""
    return model.predict_proba_matrix(np.array([features.as_row(model.feature_schema)]))[0]


def random_examples(n, seed=0, grades=5):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        g = int(rng.integers(0, grades))
        out.append(
            make_example(
                i,
                g,
                microaneurysm_count=int(rng.poisson(1 + 2 * g)),
                exudate_count=int(rng.poisson(0.5 + g)),
                hard_hemorrhage_count=int(rng.poisson(2 * g)),
                soft_hemorrhage_count=int(rng.poisson(g)),
                cotton_wool_count=int(rng.poisson(0.3 * g)),
                hemorrhage_quadrants=int(rng.integers(0, min(4, g + 1) + 1)),
            )
        )
    return out


# --- gradient boosting --------------------------------------------------------


def stump_boost_oracle(xs, ys, n_rounds, lr, l2):
    """Naive reference boosting for 1-feature depth-1 trees: brute-force
    every candidate threshold each round, Newton leaf values."""
    n = len(xs)
    priors = np.full(5, 1e-12)
    for y in ys:
        priors[y] += 1 / n
    priors /= priors.sum()
    scores = np.tile(np.log(np.maximum(priors, 1e-12)), (n, 1))
    onehot = np.zeros((n, 5))
    onehot[np.arange(n), ys] = 1
    losses = []
    for _ in range(n_rounds):
        z = scores - scores.max(axis=1, keepdims=True)
        probs = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
        for c in range(5):
            g = probs[:, c] - onehot[:, c]
            h = probs[:, c] * (1 - probs[:, c])
            best_gain, best_thr = 1e-12, None
            uniq = sorted(set(xs))
            for a, b in zip(uniq, uniq[1:]):
                thr = (a + b) / 2
                left = [i for i in range(n) if xs[i] < thr]
                right = [i for i in range(n) if xs[i] >= thr]
                gl, hl = g[left].sum(), h[left].sum()
                gr, hr = g[right].sum(), h[right].sum()
                gain = 0.5 * (gl**2 / (hl + l2) + gr**2 / (hr + l2) - (gl + gr) ** 2 / (hl + hr + l2))
                if gain > best_gain:
                    best_gain, best_thr = gain, thr
            if best_thr is None:
                value = -g.sum() / (h.sum() + l2)
                scores[:, c] += lr * value
            else:
                left = np.array([x < best_thr for x in xs])
                for mask in (left, ~left):
                    value = -g[mask].sum() / (h[mask].sum() + l2)
                    scores[mask, c] += lr * value
        z = scores - scores.max(axis=1, keepdims=True)
        probs = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
        losses.append(float(-np.log(probs[np.arange(n), ys]).mean()))
    return scores, losses


class TestGbm:
    def test_separable_fixture_reaches_perfect_accuracy(self):
        examples = [
            make_example(0, 0, microaneurysm_count=0),
            make_example(1, 0, microaneurysm_count=1),
            make_example(2, 1, microaneurysm_count=4),
            make_example(3, 1, microaneurysm_count=5),
        ]
        cfg = TrainConfig(n_trees=10, max_depth=1, min_leaf=1, learning_rate=0.5,
                          early_stop_patience=100, seed=0)
        model = fit_examples(examples, examples, cfg)
        preds = [predict_row(model, ex.features).argmax() for ex in examples]
        assert preds == [0, 0, 1, 1]

    def test_separable_fixture_matches_stump_oracle(self):
        examples = [
            make_example(0, 0, microaneurysm_count=0),
            make_example(1, 0, microaneurysm_count=1),
            make_example(2, 1, microaneurysm_count=4),
            make_example(3, 1, microaneurysm_count=5),
        ]
        cfg = TrainConfig(n_trees=10, max_depth=1, min_leaf=1, learning_rate=0.5,
                          early_stop_patience=100, seed=0)
        model = fit_examples(examples, examples, cfg)
        _, oracle_losses = stump_boost_oracle([0, 1, 4, 5], [0, 0, 1, 1], 10, 0.5, 1.0)
        assert len(model.train_loss_curve) == 10
        assert model.train_loss_curve == pytest.approx(oracle_losses, abs=1e-9)

    def test_loss_curve_non_increasing_random_data(self):
        for seed in range(3):
            examples = random_examples(80, seed=seed)
            cfg = TrainConfig(n_trees=40, min_leaf=2, early_stop_patience=1000, seed=seed)
            model = fit_examples(examples, examples, cfg)
            curve = model.train_loss_curve
            assert all(curve[i + 1] <= curve[i] + 1e-12 for i in range(len(curve) - 1))

    def test_zero_trees_gives_class_priors(self):
        examples = random_examples(50, seed=2)
        cfg = TrainConfig(n_trees=0, class_weighting=False)
        model = fit_examples(examples, examples, cfg)
        probs = predict_row(model, examples[0].features)
        counts = np.bincount([int(e.grade) for e in examples], minlength=5)
        assert tuple(probs) == pytest.approx(tuple(counts / counts.sum()), abs=1e-9)

    def test_zero_trees_weighted_priors_uniform_over_present(self):
        examples = random_examples(60, seed=3)
        present = sorted({int(e.grade) for e in examples})
        cfg = TrainConfig(n_trees=0, class_weighting=True)
        model = fit_examples(examples, examples, cfg)
        probs = list(predict_row(model, examples[0].features))
        for g in present:
            assert probs[g] == pytest.approx(1 / len(present), abs=1e-9)

    def test_single_class_rejected(self):
        examples = [make_example(i, 2, microaneurysm_count=i) for i in range(10)]
        with pytest.raises(SingleClassTrain):
            fit_examples(examples, examples, TrainConfig())

    def test_empty_validation_rejected(self):
        examples = random_examples(40, seed=23)
        with pytest.raises(SchemaMismatch):
            fit_examples(examples, [], TrainConfig(n_trees=3, min_leaf=2))

    def test_early_stopping_stops_at_or_before_n_trees(self):
        examples = random_examples(100, seed=4)
        cfg = TrainConfig(n_trees=200, min_leaf=2, early_stop_patience=10, seed=4)
        model = fit_examples(examples, examples, cfg)
        assert model.n_rounds <= 200
        assert model.best_round <= len(model.train_loss_curve)

    def test_seed_determinism_bit_identical(self):
        examples = random_examples(70, seed=5)
        cfg = TrainConfig(n_trees=15, min_leaf=2, subsample=0.8, seed=9)
        a = fit_examples(examples[:60], examples[60:], cfg)
        b = fit_examples(examples[:60], examples[60:], cfg)
        assert canonical_json(a.to_artifact().params) == canonical_json(b.to_artifact().params)
        assert a.train_fingerprint == b.train_fingerprint

    def test_prediction_is_valid_probability(self):
        from kgdg.core import validate_probability

        examples = random_examples(60, seed=6)
        model = fit_examples(examples[:50], examples[50:], TrainConfig(n_trees=10, min_leaf=2))
        for ex in examples[:10]:
            validate_probability(list(predict_row(model, ex.features)))

    def test_schema_mismatch_on_predict(self):
        examples = random_examples(40, seed=7)
        model = fit_examples(examples[:30], examples[30:], TrainConfig(n_trees=3, min_leaf=2))
        with pytest.raises(SchemaMismatch):
            model.predict_proba_matrix(np.zeros((2, 11)))

    def test_feature_order_invariance(self):
        rng = np.random.default_rng(8)
        x = rng.uniform(0, 10, size=(60, 4))
        y = (x[:, 0] + x[:, 2] > 10).astype(int) * 2
        schema = ("f0", "f1", "f2", "f3")
        cfg = TrainConfig(n_trees=10, min_leaf=2, seed=0)
        model = fit_gbm_arrays(x, y, x, y, schema, cfg)
        perm = [2, 0, 3, 1]
        xp = x[:, perm]
        model_p = fit_gbm_arrays(xp, y, xp, y, tuple(schema[i] for i in perm), cfg)
        probe = rng.uniform(0, 10, size=(30, 4))
        assert np.allclose(
            model.predict_proba_matrix(probe),
            model_p.predict_proba_matrix(probe[:, perm]),
            atol=1e-12,
        )


# --- logistic regression -------------------------------------------------------


class TestLogistic:
    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        for trial in range(5):
            n, d = 6, 3
            x = rng.normal(size=(n, d))
            y = rng.integers(0, 5, size=n)
            w = rng.normal(scale=0.5, size=(5, d))
            b = rng.normal(scale=0.5, size=5)
            weights = np.abs(rng.normal(size=n)) + 0.5
            _, gw, gb = logistic_loss_and_grad(w, b, x, y, weights)
            eps = 1e-6
            for idx in np.ndindex(5, d):
                wp, wm = w.copy(), w.copy()
                wp[idx] += eps
                wm[idx] -= eps
                lp, _, _ = logistic_loss_and_grad(wp, b, x, y, weights)
                lm, _, _ = logistic_loss_and_grad(wm, b, x, y, weights)
                numeric = (lp - lm) / (2 * eps)
                denom = max(abs(numeric), abs(gw[idx]), 1e-8)
                assert abs(numeric - gw[idx]) / denom < 1e-5
            for k in range(5):
                bp, bm = b.copy(), b.copy()
                bp[k] += eps
                bm[k] -= eps
                lp, _, _ = logistic_loss_and_grad(w, bp, x, y, weights)
                lm, _, _ = logistic_loss_and_grad(w, bm, x, y, weights)
                numeric = (lp - lm) / (2 * eps)
                denom = max(abs(numeric), abs(gb[k]), 1e-8)
                assert abs(numeric - gb[k]) / denom < 1e-5

    def test_zero_init_is_uniform(self):
        probs = softmax(np.zeros((1, 5)))[0]
        assert probs == pytest.approx([0.2] * 5)

    def test_balanced_weights_reduce_to_one(self):
        y = np.array([0, 1, 2, 3, 4] * 4)
        assert np.allclose(sample_weights(y, True), 1.0)
        x = np.random.default_rng(1).normal(size=(20, 3))
        loss_w, _, _ = logistic_loss_and_grad(np.zeros((5, 3)), np.zeros(5), x, y, sample_weights(y, True))
        loss_u, _, _ = logistic_loss_and_grad(np.zeros((5, 3)), np.zeros(5), x, y, sample_weights(y, False))
        assert loss_w == pytest.approx(loss_u, abs=1e-15)

    def test_single_class_degenerate_fit_predicts_it(self):
        examples = [make_example(i, 2, microaneurysm_count=i % 3) for i in range(12)]
        model = fit_examples(examples, examples, TrainConfig(model_kind="logistic", logistic_steps=300))
        assert predict_row(model, examples[0].features).argmax() == 2

    def test_learns_separable_data(self):
        examples = random_examples(150, seed=9, grades=3)
        model = fit_examples(examples, examples, TrainConfig(model_kind="logistic", logistic_steps=800))
        acc = np.mean([predict_row(model, e.features).argmax() == int(e.grade) for e in examples])
        assert acc > 0.5

    def test_deterministic(self):
        examples = random_examples(50, seed=10)
        cfg = TrainConfig(model_kind="logistic", logistic_steps=200)
        a = fit_examples(examples, examples, cfg)
        b = fit_examples(examples, examples, cfg)
        assert canonical_json(a.to_artifact().params) == canonical_json(b.to_artifact().params)


# --- forest ----------------------------------------------------------------------


class TestForest:
    def test_single_tree_no_bootstrap_equals_decision_tree(self):
        examples = random_examples(60, seed=11)
        cfg = TrainConfig(
            model_kind="forest", n_trees=1, bootstrap=False, max_features=8,
            max_depth=4, min_leaf=2, seed=3,
        )
        forest = fit_examples(examples, examples, cfg)
        schema = examples[0].features.schema()
        x = feature_matrix(examples, schema)
        y = labels(examples)
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(3).spawn(1)[0]))
        tree = fit_classification_tree(x, y, rng, max_depth=4, min_leaf=2, max_features=8)
        assert np.allclose(forest.predict_proba_matrix(x), predict_tree(flatten_trees([tree]), x)[:, 0])

    def test_same_seed_identical_model(self):
        examples = random_examples(60, seed=12)
        cfg = TrainConfig(model_kind="forest", n_trees=7, min_leaf=2, seed=5)
        a = fit_examples(examples, examples, cfg)
        b = fit_examples(examples, examples, cfg)
        assert canonical_json(a.to_artifact().params) == canonical_json(b.to_artifact().params)

    def test_outputs_valid_probability(self):
        from kgdg.core import validate_probability

        examples = random_examples(60, seed=13)
        model = fit_examples(examples, examples, TrainConfig(model_kind="forest", n_trees=5, min_leaf=2))
        for ex in examples[:10]:
            validate_probability(list(predict_row(model, ex.features)))


# --- knn -------------------------------------------------------------------------


class TestKnn:
    def test_k1_exact_training_point_one_hot(self):
        examples = random_examples(30, seed=14)
        cfg = TrainConfig(model_kind="knn", k_neighbors=1)
        pv = predict_row(fit_examples(examples, examples, cfg), examples[4].features)
        assert pv[int(examples[4].grade)] == 1.0

    def test_k_equals_n_gives_prior(self):
        examples = random_examples(25, seed=15)
        cfg = TrainConfig(model_kind="knn", k_neighbors=25)
        pv = predict_row(fit_examples(examples, examples, cfg), examples[0].features)
        counts = np.bincount([int(e.grade) for e in examples], minlength=5)
        assert tuple(pv) == pytest.approx(tuple(counts / 25))

    def test_five_neighbor_frequency_fixture(self):
        near = [
            make_example(0, 2, microaneurysm_count=1),
            make_example(1, 2, microaneurysm_count=1),
            make_example(2, 2, microaneurysm_count=1),
            make_example(3, 1, microaneurysm_count=1),
            make_example(4, 1, microaneurysm_count=1),
        ]
        far = [
            make_example(5, 0, microaneurysm_count=50),
            make_example(6, 4, microaneurysm_count=60),
        ]
        cfg = TrainConfig(model_kind="knn", k_neighbors=5)
        pv = predict_row(fit_examples(near + far, near + far, cfg), FeatureVector(microaneurysm_count=1))
        assert tuple(pv) == pytest.approx((0.0, 0.4, 0.6, 0.0, 0.0))

    def test_k1_perfect_training_accuracy_on_distinct_points(self):
        rng = np.random.default_rng(16)
        x = rng.uniform(0, 100, size=(40, 3))
        y = rng.integers(0, 5, size=40)
        model = fit_knn_arrays(x, y, ("a", "b", "c"), TrainConfig(model_kind="knn", k_neighbors=1))
        preds = model.predict_proba_matrix(x).argmax(axis=1)
        assert np.array_equal(preds, y)

    def test_k_too_large_rejected(self):
        examples = random_examples(5, seed=17)
        with pytest.raises(InvalidConfig):
            fit_examples(examples, examples, TrainConfig(model_kind="knn", k_neighbors=6))


# --- cross-validation ---------------------------------------------------------------


class TestCrossValidate:
    def test_summary_matches_folds(self):
        examples = random_examples(90, seed=18, grades=3)
        cfg = TrainConfig(model_kind="logistic", logistic_steps=100, seed=0)
        summary = cross_validate(domain_table(examples), cfg, folds=3)
        assert len(summary.per_fold_accuracy) == 3
        assert summary.accuracy_mean == pytest.approx(np.mean(summary.per_fold_accuracy))
        assert summary.accuracy_std == pytest.approx(np.std(summary.per_fold_accuracy))

    def test_too_few_per_class(self):
        examples = random_examples(40, seed=19, grades=3) + [make_example(99, 4)]
        with pytest.raises(TooFewPerClass):
            cross_validate(domain_table(examples), TrainConfig(model_kind="knn", k_neighbors=3), folds=3)

    def test_folds_must_be_at_least_two(self):
        with pytest.raises(InvalidConfig):
            cross_validate(domain_table(random_examples(20)), TrainConfig(), folds=1)

    def test_gbm_cross_validation(self):
        examples = random_examples(60, seed=22, grades=3)
        cfg = TrainConfig(n_trees=5, min_leaf=2, early_stop_patience=3, seed=1)
        summary = cross_validate(domain_table(examples), cfg, folds=2)
        assert len(summary.per_fold_accuracy) == 2
        assert all(0.0 <= a <= 1.0 for a in summary.per_fold_accuracy)


# --- cross-learner properties ----------------------------------------------------


class TestFeatureOrderInvariance:
    @pytest.mark.parametrize("kind", ["logistic", "knn"])
    def test_permuting_columns_preserves_predictions(self, kind):
        rng = np.random.default_rng(20)
        x = rng.normal(size=(50, 4))
        y = rng.integers(0, 3, size=50)
        schema = ("f0", "f1", "f2", "f3")
        cfg = TrainConfig(model_kind=kind, logistic_steps=150, k_neighbors=3)
        if kind == "logistic":
            m = fit_logistic_arrays(x, y, schema, cfg)
        else:
            m = fit_knn_arrays(x, y, schema, cfg)
        perm = [3, 1, 0, 2]
        xp = x[:, perm]
        if kind == "logistic":
            mp = fit_logistic_arrays(xp, y, tuple(schema[i] for i in perm), cfg)
        else:
            mp = fit_knn_arrays(xp, y, tuple(schema[i] for i in perm), cfg)
        probe = rng.normal(size=(20, 4))
        assert np.allclose(m.predict_proba_matrix(probe), mp.predict_proba_matrix(probe[:, perm]), atol=1e-10)


class TestFitModelDispatch:
    @pytest.mark.parametrize("kind", ["gbm", "logistic", "forest", "knn"])
    def test_dispatch(self, kind):
        examples = random_examples(40, seed=21)
        cfg = TrainConfig(model_kind=kind, n_trees=4, min_leaf=2, logistic_steps=50, k_neighbors=3)
        model = fit_examples(examples[:30], examples[30:], cfg)
        pv = predict_row(model, examples[0].features)
        assert abs(sum(pv) - 1.0) < 1e-9
