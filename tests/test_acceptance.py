"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line and enforcing its runtime budget (run with ``pytest -s``
to see the lines live).
"""

import dataclasses
import filecmp
import itertools
import json
import time
from contextlib import contextmanager

import numpy as np

from kgdg.cli import main as cli_main
from kgdg.core import LESIONS_ONLY_SCHEMA, DRGrade, FusionWeights
from kgdg.fusion import fuse
from kgdg.harness import ExperimentConfig, FusionSpec, align_domains, run_experiment
from kgdg.io import load_manifest, save_feature_table, save_manifest, save_probability_table
from kgdg.learn import TrainConfig, feature_matrix
from kgdg.metrics import (
    DomainStats,
    accuracy,
    auc_ovr_macro,
    binary_auc,
    domain_kl,
    macro_f1,
    match_detections,
)
from kgdg.report import compare_to_reference, get_reference, reference_ids
from kgdg.rules import grade_by_rules
from kgdg.synth import (
    DomainSpec,
    SynthConfig,
    gen_dataset,
    shift_profile,
    simulate_neural_table,
    write_dataset,
)

from ref_logistic import logistic_loss_and_grad
from ref_rows import RefFeatureVector, ref_example
from test_learn import domain_table, fit_examples, random_examples, with_contradiction
from test_metrics import (
    oracle_accuracy,
    oracle_auc_ovr,
    oracle_binary_auc,
    oracle_macro_f1,
)
from test_rules import RULE_FIXTURES, _augment, _random_feature, ladder


@contextmanager
def criterion(num: int, description: str, budget_s: float):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"[criterion {num}] FAIL - {description}")
        raise
    elapsed = time.monotonic() - start
    assert elapsed < budget_s, f"criterion {num} took {elapsed:.1f}s, budget {budget_s}s"
    print(f"[criterion {num}] PASS - {description} ({elapsed:.1f}s)")


def test_criterion_1_fusion_coincidence():
    with criterion(1, "selective/max/classwise agree on unique global maxima; "
                      "weight collapse reproduces branch argmax", budget_s=5.0):
        rng = np.random.default_rng(0)
        rows = rng.dirichlet(np.ones(5), size=(100_000, 2))
        a, b = rows[:, 0], rows[:, 1]
        values = rows.reshape(-1, 10)
        unique = (values == values.max(axis=1, keepdims=True)).sum(axis=1) == 1
        g = fuse("selective", a, b).grades[unique]
        assert (fuse("max", a, b).grades[unique] == g).all()
        assert (fuse("classwise", a, b).grades[unique] == g).all()
        w_deep = FusionWeights(1.0, 0.0)
        w_know = FusionWeights(0.0, 1.0)
        assert (fuse("weighted", a, b, w_deep).grades[unique] == a[unique].argmax(axis=1)).all()
        assert (fuse("weighted", a, b, w_know).grades[unique] == b[unique].argmax(axis=1)).all()
        assert unique.sum() == 100_000


def _canonical_sequences_for_confusion(counts: np.ndarray) -> tuple[list[int], list[int]]:
    y_true, y_pred = [], []
    for t in range(3):
        for p in range(3):
            y_true.extend([t] * counts[t, p])
            y_pred.extend([p] * counts[t, p])
    return y_true, y_pred


def test_criterion_2_metric_oracles():
    with criterion(2, "accuracy / macro-F1 / AUC match brute-force oracles "
                      "exhaustively at <=6 samples over <=3 grades", budget_s=30.0):
        tol = 1e-9
        # fixed worked examples
        assert abs(macro_f1([0, 0, 1, 2], [0, 1, 1, 2]) - 7 / 9) < tol
        assert abs(binary_auc([0, 0, 1, 1], [0.1, 0.4, 0.35, 0.8]) - 0.75) < tol
        from ref_detections import RefBox, RefDetection, ref_table

        from kgdg.core import LesionType

        def one_box(*box):
            return ref_table({"i": [RefDetection(LesionType.MICROANEURYSM, RefBox(*box), 1.0)]})

        match = match_detections(one_box(0, 0, 0.2, 0.2), one_box(0.1, 0.1, 0.2, 0.2), 0.0)
        assert abs(match.mean_matched_iou - 1 / 7) < tol

        # accuracy + macro-F1, direct exhaustive sweep for n <= 4
        for n in range(1, 5):
            for y_true in itertools.product(range(3), repeat=n):
                for y_pred in itertools.product(range(3), repeat=n):
                    assert abs(accuracy(y_true, y_pred) - oracle_accuracy(y_true, y_pred)) < tol
                    assert abs(macro_f1(y_true, y_pred) - oracle_macro_f1(y_true, y_pred)) < tol

        # n = 5, 6 via confusion-matrix equivalence classes (both metrics are
        # functions of the confusion counts; order-invariance is covered by
        # the direct sweep above)
        for n in (5, 6):
            for cells in itertools.combinations_with_replacement(range(9), n):
                counts = np.zeros(9, dtype=int)
                for c in cells:
                    counts[c] += 1
                cm = counts.reshape(3, 3)
                y_true, y_pred = _canonical_sequences_for_confusion(cm)
                assert abs(accuracy(y_true, y_pred) - oracle_accuracy(y_true, y_pred)) < tol
                assert abs(macro_f1(y_true, y_pred) - oracle_macro_f1(y_true, y_pred)) < tol

        # binary AUC: every weak ordering of <=6 scores x every two-class mask
        levels = (0.0, 0.15, 0.3, 0.45, 0.6, 0.75)
        for n in range(2, 7):
            patterns = set()
            for assignment in itertools.product(range(n), repeat=n):
                uniq = sorted(set(assignment))
                patterns.add(tuple(uniq.index(a) for a in assignment))
            for pattern in sorted(patterns):
                scores = [levels[r] for r in pattern]
                for bits in range(1, 2**n - 1):
                    mask = [(bits >> i) & 1 for i in range(n)]
                    assert abs(binary_auc(mask, scores) - oracle_binary_auc(mask, scores)) < tol

        # macro OVR composition: every y_true of <=6 samples over 3 grades
        rng = np.random.default_rng(1)
        for n in range(2, 7):
            for y_true in itertools.product(range(3), repeat=n):
                if len(set(y_true)) < 2:
                    continue
                rows = rng.dirichlet(np.ones(5), size=n).tolist()
                assert abs(auc_ovr_macro(y_true, rows) - oracle_auc_ovr(y_true, rows)) < tol


def test_criterion_3_learner_correctness():
    with criterion(3, "logistic gradient matches finite differences; GBM loss "
                      "non-increasing over 100 rounds; separable fixture solved", budget_s=60.0):
        # finite differences on 20 random small instances
        rng = np.random.default_rng(7)
        for _ in range(20):
            n, d = int(rng.integers(3, 9)), int(rng.integers(2, 5))
            x = rng.normal(size=(n, d))
            y = rng.integers(0, 5, size=n)
            w = rng.normal(scale=0.4, size=(5, d))
            b = rng.normal(scale=0.4, size=5)
            weights = np.abs(rng.normal(size=n)) + 0.3
            _, gw, gb = logistic_loss_and_grad(w, b, x, y, weights)
            eps = 1e-6
            flat = [(("w",) + idx) for idx in np.ndindex(5, d)] + [("b", k) for k in range(5)]
            for entry in flat:
                if entry[0] == "w":
                    _, i, j = entry
                    wp, wm = w.copy(), w.copy()
                    wp[i, j] += eps
                    wm[i, j] -= eps
                    lp, _, _ = logistic_loss_and_grad(wp, b, x, y, weights)
                    lm, _, _ = logistic_loss_and_grad(wm, b, x, y, weights)
                    analytic = gw[i, j]
                else:
                    _, k = entry
                    bp, bm = b.copy(), b.copy()
                    bp[k] += eps
                    bm[k] -= eps
                    lp, _, _ = logistic_loss_and_grad(w, bp, x, y, weights)
                    lm, _, _ = logistic_loss_and_grad(w, bm, x, y, weights)
                    analytic = gb[k]
                numeric = (lp - lm) / (2 * eps)
                denom = max(abs(numeric), abs(analytic), 1e-8)
                assert abs(numeric - analytic) / denom < 1e-5

        # multinomial log-loss non-increasing over 100 rounds, 5 random datasets
        for seed in range(5):
            examples = random_examples(120, seed=seed)
            cfg = TrainConfig(n_trees=100, min_leaf=2, early_stop_patience=10_000, seed=seed)
            model = fit_examples(examples, with_contradiction(examples), cfg)
            curve = model.train_loss_curve
            assert len(curve) == 100
            assert all(curve[i + 1] <= curve[i] + 1e-12 for i in range(99))

        # 4-point linearly separable fixture at depth 1
        fixture = [ref_example(i, grade, microaneurysm_count=ma) for i, (grade, ma) in enumerate(
            [(0, 0), (0, 1), (1, 4), (1, 5)])]
        cfg = TrainConfig(n_trees=10, max_depth=1, min_leaf=1, learning_rate=0.5,
                          early_stop_patience=100)
        model = fit_examples(fixture, fixture, cfg)
        preds = model.predict_proba_matrix(feature_matrix(domain_table(fixture), model.feature_schema)).argmax(axis=1)
        assert preds.tolist() == [0, 0, 1, 1]


def test_criterion_4_rule_engine():
    with criterion(4, "clinical rule fixtures pass exactly; grade is monotone "
                      "under 10,000 lesion augmentations", budget_s=60.0):
        assert len(RULE_FIXTURES) >= 12
        for kwargs, grade, rule in RULE_FIXTURES:
            assert ladder(RefFeatureVector(**kwargs)) == (rule, grade)
        # the two named clinical anchors
        assert grade_by_rules(RefFeatureVector(neovascularization_present=True).counts()) == DRGrade.PDR
        assert grade_by_rules(
            RefFeatureVector(hard_hemorrhage_count=25, hemorrhage_quadrants=4).counts()
        ) == DRGrade.SEVERE

        rng = np.random.default_rng(13)
        for _ in range(10_000):
            fv = _random_feature(rng)
            assert int(grade_by_rules(_augment(fv, rng).counts())) >= int(grade_by_rules(fv.counts()))


def test_criterion_5_kl_diagnostic():
    with criterion(5, "Gaussian KL identities hold and alignment cancels a "
                      "pure mean shift", budget_s=30.0):
        p = DomainStats((0.3, 1.5, -2.0), (1.0, 0.25, 4.0), 10)
        assert abs(domain_kl(p, p)) <= 1e-12
        one = DomainStats((0.0,), (1.0,), 10)
        two = DomainStats((1.0,), (1.0,), 10)
        assert abs(domain_kl(one, two) - 0.5) <= 1e-12

        rng = np.random.default_rng(5)
        base_examples = []
        shifted_examples = []
        for i in range(400):
            g = int(rng.integers(0, 5))
            ma = int(rng.poisson(2 + g))
            ex_count = int(rng.poisson(1 + g))
            base_examples.append(ref_example(i, g, "a", microaneurysm_count=ma, exudate_count=ex_count))
            shifted_examples.append(ref_example(i, g, "b", microaneurysm_count=ma + 4, exudate_count=ex_count + 2))
        examples = {"a": base_examples, "b": shifted_examples}
        _, before, after = align_domains(
            {domain: feature_matrix(domain_table(rows), LESIONS_ONLY_SCHEMA) for domain, rows in examples.items()}, "a"
        )
        assert before > 1.0
        assert after < 1e-9


def _write_domain_tables(tmp, tables, prob_rows=None):
    entries = []
    for domain, table in tables.items():
        features = f"{domain}_features.csv"
        save_feature_table(tmp / features, table)
        entry = {"name": str(domain), "features": features}
        if prob_rows is not None:
            probs = f"{domain}_probs.csv"
            save_probability_table(tmp / probs, dict(zip(table.ids, prob_rows[domain].tolist())))
            entry["probs"] = probs
        entries.append(entry)
    save_manifest(tmp / "manifest.json", entries, seeds=(0, 1, 2))
    return load_manifest(tmp / "manifest.json")


def test_criterion_6_vein_feature_ablation(tmp_path):
    with criterion(6, "under vein_hostile shift, lesions-only beats "
                      "lesions+vein cross-domain by >= 5 points", budget_s=300.0):
        data_cfg = shift_profile("vein_hostile", seed=0, n_samples=2000)
        manifest = load_manifest(write_dataset(data_cfg, tmp_path))
        means = {}
        for feature_set in ("lesions_only", "lesions_vein"):
            cfg = ExperimentConfig(
                mode="sdg", source="clinic_a", seeds=(0, 1, 2),
                symbolic=TrainConfig(feature_set=feature_set),
                fusion=FusionSpec(strategies=(), include_neural=False),
            )
            means[feature_set] = run_experiment(cfg, manifest).cell("symbolic", "average").mean
        gap = means["lesions_only"] - means["lesions_vein"]
        print(f"  lesions_only={means['lesions_only']:.4f} "
              f"lesions_vein={means['lesions_vein']:.4f} gap={gap * 100:.1f}pts")
        assert gap >= 0.05


def test_criterion_7_fusion_ordering(tmp_path):
    with criterion(7, "with the neural branch 15 points weaker, max-confidence "
                      "fusion stays within 1 point of symbolic and beats neural", budget_s=300.0):
        cfg_data = dataclasses.replace(shift_profile("mild", seed=0, n_samples=2000),
                                       with_vein=False)
        generated = gen_dataset(cfg_data)

        manifest = _write_domain_tables(tmp_path, generated.tables)
        probe = ExperimentConfig(
            mode="sdg", source="clinic_a", seeds=(0, 1, 2),
            fusion=FusionSpec(strategies=(), include_neural=False),
        )
        symbolic_acc = run_experiment(probe, manifest).cell("symbolic", "average").mean

        ood_accuracy = symbolic_acc - 0.15
        tables = {}
        for domain, table in generated.tables.items():
            in_domain = str(domain) == "clinic_a"
            tables[domain] = simulate_neural_table(
                table.y,
                accuracy=0.85 if in_domain else ood_accuracy,
                temperature=0.25 if in_domain else 1.2,
                seed=123,
                stream=f"{domain}/crit7",
            )
        manifest = _write_domain_tables(tmp_path, generated.tables, tables)
        cfg = ExperimentConfig(
            mode="sdg", source="clinic_a", seeds=(0, 1, 2),
            fusion=FusionSpec(strategies=("max",), include_neural=True),
        )
        rep = run_experiment(cfg, manifest)
        symbolic = rep.cell("symbolic", "average").mean
        neural = rep.cell("neural", "average").mean
        fusion = rep.cell("fusion-max", "average").mean
        print(f"  fusion={fusion:.4f} symbolic={symbolic:.4f} neural={neural:.4f}")
        assert abs(neural - (symbolic_acc - 0.15)) < 0.03  # simulator hit its target
        assert fusion >= symbolic - 0.01
        assert fusion > neural


def test_criterion_8_end_to_end_determinism(tmp_path):
    with criterion(8, "synth -> train -> eval(mdg) -> report is byte-identical "
                      "across runs; leakage guard silent on randomized runs", budget_s=300.0):
        def pipeline(workdir):
            workdir.mkdir()
            data = workdir / "data"
            assert cli_main(["synth", "--profile", "severe", "--out", str(data),
                             "--seed", "5", "--samples", "150", "--quiet"]) == 0
            assert cli_main(["train", "--features", str(data / "clinic_a_features.csv"),
                             "--model", "gbm", "--seed", "0",
                             "--out", str(workdir / "model.kgdg"), "--quiet"]) == 0
            config = workdir / "experiment.json"
            config.write_text(json.dumps({
                "mode": "mdg",
                "domains": {"manifest": str(data / "manifest.json")},
                "seeds": [0, 1],
                "symbolic": {"n_trees": 20, "min_leaf": 2, "early_stop_patience": 5},
                "fusion": {"strategies": ["max", "weighted"], "include_neural": True},
            }))
            assert cli_main(["eval", "--config", str(config), "--format", "json",
                             "--out", str(workdir / "report.json"), "--quiet"]) == 0
            assert cli_main(["eval", "--config", str(config), "--format", "markdown",
                             "--out", str(workdir / "report.md"), "--quiet"]) == 0
            assert cli_main(["report", "--reference-id", "mdg_methods",
                             "--input", str(workdir / "report.json"),
                             "--out", str(workdir / "comparison.txt"), "--quiet"]) == 0

        pipeline(tmp_path / "run1")
        pipeline(tmp_path / "run2")
        for name in ("model.kgdg", "report.json", "report.md", "comparison.txt"):
            a = (tmp_path / "run1" / name).read_bytes()
            b = (tmp_path / "run2" / name).read_bytes()
            assert a == b, f"{name} differs between identical runs"
        data_names = sorted(p.name for p in (tmp_path / "run1" / "data").iterdir())
        match, mismatch, errors = filecmp.cmpfiles(
            tmp_path / "run1" / "data", tmp_path / "run2" / "data", data_names, shallow=False
        )
        assert mismatch == [] and errors == []

        # leakage guard: 50 randomized small runs, none may trip it
        rng = np.random.default_rng(99)
        for trial in range(50):
            n_domains = int(rng.integers(2, 4))
            prior = rng.dirichlet(np.ones(5) * 4)
            prior = tuple(round(float(p), 6) for p in prior / prior.sum())
            prior = (*prior[:4], round(1.0 - sum(prior[:4]), 6))
            domains = tuple(
                DomainSpec(
                    name=f"dom{d}",
                    n_samples=60,
                    grade_prior=prior,
                    count_bias=float(rng.uniform(0.5, 1.5)),
                    vein_noise_sigma=float(rng.uniform(0.0, 2.0)),
                )
                for d in range(n_domains)
            )
            data_cfg = SynthConfig(domains=domains, seed=int(rng.integers(0, 10_000)))
            generated = gen_dataset(data_cfg)
            workdir = tmp_path / f"leak{trial}"
            workdir.mkdir()
            manifest = _write_domain_tables(workdir, generated.tables,
                                            {d: t.probs for d, t in generated.tables.items()})
            cfg = ExperimentConfig(
                mode="sdg" if trial % 2 == 0 else "mdg",
                source="dom0" if trial % 2 == 0 else None,
                seeds=(int(rng.integers(0, 100)),),
                symbolic=TrainConfig(n_trees=3, min_leaf=2, early_stop_patience=2),
                fusion=FusionSpec(strategies=("selective",)),
            )
            run_experiment(cfg, manifest)  # raises LeakageError on any leak


def test_criterion_9_reference_fixtures():
    with criterion(9, "embedded reference tables reproduce the published "
                      "numbers verbatim and self-diff to zero", budget_s=30.0):
        for rid in reference_ids():
            comparison = compare_to_reference(get_reference(rid), rid)
            assert comparison.zero_diffs and comparison.compared > 0
        mdg = get_reference("mdg_methods")
        assert mdg.cell("KL (Ours)", "Avg.") == "63.67"
        assert get_reference("sdg_messidor2").cell("Weighted (DL + KL)", "Average") == "65.5±0.3"
        assert get_reference("indomain_benchmark").cell("Knowledge-guided", "Accuracy") == "84.65"
        assert get_reference("indomain_benchmark").cell("ViT baseline", "Accuracy") == "78.40"
        aptos = get_reference("sdg_aptos")
        assert aptos.cell("Non Weighted (DL + KL)", "Average") == "59.9±0.2"
        assert aptos.cell("Knowledge (KL)", "Average") == "56.6±0.3"
        assert aptos.cell("VIT (DL)", "Average") == "53.9±0.5"
        assert aptos.cell("Non Weighted (DL + KL)", "Eyepacs") == "72.8±0.5"
        ablation = get_reference("feature_ablation")
        assert ablation.cell("Gradient Boosting / Lesions Only", "Accuracy") == "0.8465"
        assert ablation.cell("Gradient Boosting / Lesions + Vein", "Accuracy") == "0.7252"
