import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest
from ref_rows import RefExample, RefFeatureVector, ref_example

from kgdg.core import LESIONS_ONLY_SCHEMA, DomainId, DRGrade, FusionWeights
from kgdg.errors import InvalidConfig, LeakageError, MissingProbabilityTable
from kgdg.harness import (
    ExperimentConfig,
    FusionSpec,
    SplitFractions,
    align_domains,
    fold_plan,
    load_experiment_config,
    run_experiment,
    select_weights,
    split_dataset,
    _evaluate_rows,
    _guard_leakage,
)
from kgdg.io import canonical_json, content_digest, load_manifest, read_feature_table, save_feature_table
from kgdg.learn import TrainConfig, feature_matrix, fit_model
from kgdg.fusion import FusionStrategy, fuse
from kgdg.metrics import accuracy, auc_ovr_macro, macro_f1, seeded_summary
from kgdg.report import render_report
from kgdg.synth import shift_profile, write_dataset
from test_learn import domain_table


def balanced_examples(n_per_grade=20, domain="d"):
    grades = [g for g in range(5) for _ in range(n_per_grade)]
    return [ref_example(i, g, domain, microaneurysm_count=i % 7) for i, g in enumerate(grades)]


def balanced_dataset(n_per_grade=20, domain="d"):
    return domain_table(balanced_examples(n_per_grade, domain), domain)


def same_split(a, b):
    return all(np.array_equal(x, y) for x, y in zip(a, b))


class TestSplitDataset:
    def test_balanced_100_gives_12_4_4_per_grade(self):
        ds = balanced_dataset(20)
        grades = ds.y
        train, valid, test = split_dataset(ds, SplitFractions(), seed=0)
        assert (len(train), len(valid), len(test)) == (60, 20, 20)
        for part, expected in ((train, 12), (valid, 4), (test, 4)):
            counts = np.bincount(grades[part], minlength=5)
            assert list(counts) == [expected] * 5

    def test_same_seed_identical(self):
        ds = balanced_dataset(13)
        a = split_dataset(ds, SplitFractions(), seed=3)
        b = split_dataset(ds, SplitFractions(), seed=3)
        assert same_split(a, b)

    def test_different_seed_differs(self):
        ds = balanced_dataset(13)
        a = split_dataset(ds, SplitFractions(), seed=3)
        b = split_dataset(ds, SplitFractions(), seed=4)
        assert not same_split(a, b)

    def test_disjoint_and_exhaustive(self):
        ds = balanced_dataset(7)
        image_ids = ds.ids
        ids = [image_ids[i] for i in np.concatenate(split_dataset(ds, SplitFractions(), seed=1))]
        assert len(ids) == len(set(ids)) == len(ds)

    def test_singleton_grade_goes_to_train(self):
        examples = balanced_examples(3)
        examples.append(
            RefExample("lone", DomainId("d"), DRGrade.PDR, RefFeatureVector())
        )
        # grade 4 now has 4 examples; craft a dataset where one grade has exactly 1
        lone = domain_table(
            [e for e in examples if int(e.grade) < 2]
            + [RefExample("solo", DomainId("d"), DRGrade.PDR, RefFeatureVector())],
            "d",
        )
        image_ids = lone.ids
        train, valid, test = split_dataset(lone, SplitFractions(), seed=0)
        assert any(image_ids[i] == "solo" for i in train)
        assert not any(image_ids[i] == "solo" for i in np.concatenate([valid, test]))

    def test_split_fractions_validated(self):
        with pytest.raises(InvalidConfig):
            SplitFractions(0.5, 0.2, 0.2)


class TestAlignDomains:
    @staticmethod
    def _examples(name, shift):
        rng = np.random.default_rng(0)
        examples = []
        for i in range(120):
            g = int(rng.integers(0, 5))
            examples.append(ref_example(
                i, g, name,
                microaneurysm_count=int(rng.poisson(2 + g)) + shift,
                exudate_count=int(rng.poisson(1 + g)) + shift,
                hemorrhage_quadrants=min(4, g),
            ))
        return examples

    def _dataset(self, name, shift):
        return domain_table(self._examples(name, shift), name)

    @staticmethod
    def _matrices(*datasets):
        return {ds.domain: feature_matrix(ds, LESIONS_ONLY_SCHEMA) for ds in datasets}

    def test_single_domain_zero_kl(self):
        ds = self._dataset("a", 0)
        _, before, after = align_domains(self._matrices(ds), "a")
        assert before == 0.0 and after == 0.0

    def test_pure_mean_shift_cancelled(self):
        # same draws, one domain offset by a constant
        a_examples = self._examples("a", 0)
        a = domain_table(a_examples, "a")
        b_examples = tuple(
            dataclasses.replace(
                ex,
                image_id=f"b-{i}",
                domain=DomainId("b"),
                features=dataclasses.replace(
                    ex.features,
                    microaneurysm_count=ex.features.microaneurysm_count + 3,
                    exudate_count=ex.features.exudate_count + 3,
                ),
            )
            for i, ex in enumerate(a_examples)
        )
        b = domain_table(b_examples, "b")
        transformed, before, after = align_domains(self._matrices(a, b), "a")
        assert before > 0.5
        assert after < 1e-9
        assert np.allclose(transformed[DomainId("a")], transformed[DomainId("b")])

    def test_labels_untouched(self):
        a = self._dataset("a", 0)
        b = self._dataset("b", 2)
        grades_before = (a.y.tolist(), b.y.tolist())
        matrices = self._matrices(a, b)
        copies = {d: m.copy() for d, m in matrices.items()}
        align_domains(matrices, "a")
        assert (a.y.tolist(), b.y.tolist()) == grades_before
        assert all(np.array_equal(matrices[d], copies[d]) for d in copies)

    def test_unknown_reference(self):
        with pytest.raises(InvalidConfig):
            align_domains(self._matrices(self._dataset("a", 0)), "zzz")


class TestSelectWeights:
    def test_prefers_deep_on_ties(self):
        # deep and knowledge both always right -> every alpha ties -> largest alpha_dl wins
        grades = np.array([0, 1, 2])
        p = np.array([[0.8 if i == g else 0.05 for i in range(5)] for g in grades])
        w = select_weights((grades, p, p))
        assert w.alpha_dl == pytest.approx(0.9)
        assert w.alpha_kl == pytest.approx(0.1)

    def test_prefers_accurate_branch(self):
        grades, deep, knowledge = [], [], []
        rng = np.random.default_rng(0)
        for _ in range(60):
            g = int(rng.integers(0, 5))
            good = [0.7 if i == g else 0.075 for i in range(5)]
            wrong_grade = (g + 1) % 5
            bad = [0.7 if i == wrong_grade else 0.075 for i in range(5)]
            grades.append(g)
            deep.append(bad)
            knowledge.append(good)
        w = select_weights((np.array(grades), np.array(deep), np.array(knowledge)))
        assert w.alpha_kl > w.alpha_dl

    def test_empty_rejected(self):
        with pytest.raises(InvalidConfig):
            select_weights((np.zeros(0, dtype=np.int64), np.zeros((0, 5)), np.zeros((0, 5))))


class TestGuardLeakage:
    def test_fires_on_overlap(self):
        ds = balanced_dataset(3, domain="x")
        x = DomainId("x")
        with pytest.raises(LeakageError, match=r"5 training image\(s\) leaked into evaluation of 'x' \(e\.g\. 'x-0'\)"):
            _guard_leakage({x: ds.ids}, {x: np.arange(5)}, [x])

    def test_silent_when_disjoint(self):
        ds = balanced_dataset(3, domain="x")
        other = balanced_dataset(3, domain="y")
        x, y = DomainId("x"), DomainId("y")
        _guard_leakage({x: ds.ids, y: other.ids}, {x: np.arange(len(ds))}, [y])

    def test_same_image_id_in_another_domain_is_no_leak(self):
        ds = balanced_dataset(3, domain="x")
        x, y = DomainId("x"), DomainId("y")
        _guard_leakage({x: ds.ids, y: ds.ids}, {x: np.arange(len(ds))}, [y])

    def test_raises_when_a_target_domain_is_also_a_training_domain(self):
        """fold_plan never names a source as a target, so only a direct
        call reaches this; the first leaking target in order is named, with
        its count and its smallest leaked id."""
        ds = balanced_dataset(3, domain="x")
        other = balanced_dataset(3, domain="y")
        x, y = DomainId("x"), DomainId("y")
        ids = {x: ds.ids, y: other.ids}
        trained = {x: np.array([9, 4, 12]), y: np.array([7, 2])}
        with pytest.raises(LeakageError, match=r"^3 .* of 'x' \(e\.g\. 'x-12'\)$"):
            _guard_leakage(ids, trained, [x, y])
        with pytest.raises(LeakageError, match=r"^2 .* of 'y' \(e\.g\. 'y-2'\)$"):
            _guard_leakage(ids, trained, [y, x])


def tied_rows(n, seed):
    """(n, 5) probability rows rounded to tenths, so rows and cells tie."""
    rng = np.random.default_rng(seed)
    rows = rng.dirichlet(np.ones(5), size=n).round(1)
    rows[:, 0] += 1.0 - rows.sum(axis=1)
    return rows


ALL_METHODS = ("symbolic", "neural", "fusion-selective", "fusion-max", "fusion-classwise", "fusion-weighted")


class TestEvaluateRows:
    def test_rows_equal_the_public_metrics(self):
        y = np.random.default_rng(5).integers(0, 5, size=120)
        kd, dl = tied_rows(120, 6), tied_rows(120, 7)
        kd[:10] = dl[:10]  # whole rows tied across branches
        weights = FusionWeights(0.6, 0.4)
        rows = _evaluate_rows(ALL_METHODS, y, kd, dl, weights)
        for method, row in zip(ALL_METHODS, rows):
            if method in ("symbolic", "neural"):
                probs = kd if method == "symbolic" else dl
                preds = probs.argmax(axis=1)
            else:
                fused = fuse(method.removeprefix("fusion-"), dl, kd, weights)
                preds, probs = fused.grades, fused.probs
            want = (accuracy(y, preds), macro_f1(y, preds), auc_ovr_macro(y, probs))
            assert row.tolist() == list(want), method

    def test_single_grade_set_scores_auc_nan(self):
        y = np.full(30, 2)
        rows = _evaluate_rows(ALL_METHODS[:3], y, tied_rows(30, 1), tied_rows(30, 2), None)
        assert np.isnan(rows[:, 2]).all()
        assert rows[0, 0] == accuracy(y, tied_rows(30, 1).argmax(axis=1))

    def test_selective_and_max_fused_once(self, monkeypatch):
        import kgdg.harness as harness

        calls = []

        def counting_fuse(strategy, *args):
            calls.append(FusionStrategy(strategy))
            return fuse(strategy, *args)

        monkeypatch.setattr(harness, "fuse", counting_fuse)
        y = np.random.default_rng(5).integers(0, 5, size=60)
        kd, dl = tied_rows(60, 6), tied_rows(60, 7)
        methods = ("symbolic", "neural") + tuple(f"fusion-{s}" for s in FusionSpec().strategies)
        rows = _evaluate_rows(methods, y, kd, dl, FusionWeights(0.5, 0.5))
        assert len(calls) == 3
        assert rows[2].tolist() == rows[3].tolist()
        calls.clear()
        _evaluate_rows(("fusion-max", "fusion-classwise", "fusion-selective"), y, kd, dl, None)
        assert calls == [FusionStrategy.MAX_CONFIDENCE, FusionStrategy.CLASSWISE_MAX]

    def test_default_sdg_run_fuses_three_times_per_target(self, small_manifest, monkeypatch):
        import kgdg.harness as harness

        calls = []

        def counting_fuse(strategy, *args):
            calls.append(strategy)
            return fuse(strategy, *args)

        monkeypatch.setattr(harness, "fuse", counting_fuse)
        # the weight search fuses too; fix its weights so that only scoring counts
        monkeypatch.setattr(harness, "select_weights", lambda validation: FusionWeights(0.5, 0.5))
        cfg = ExperimentConfig(mode="sdg", source="clinic_a", seeds=(0,), symbolic=TrainConfig(**FAST_SYMBOLIC))
        rep = run_experiment(cfg, small_manifest)
        assert len(rep.columns) - 1 == 2
        assert len(calls) == 3 * 2


@pytest.fixture(scope="module")
def small_manifest(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("synthdata")
    cfg = shift_profile("mild", seed=0, n_samples=150)
    return load_manifest(write_dataset(cfg, tmp))


FAST_SYMBOLIC = dict(n_trees=25, min_leaf=2, early_stop_patience=5)


class TestRunSdg:
    def test_report_shape_and_reproducibility(self, small_manifest):
        cfg = ExperimentConfig(
            mode="sdg", source="clinic_a", seeds=(0, 1),
            symbolic=TrainConfig(**FAST_SYMBOLIC),
        )
        rep1 = run_experiment(cfg, small_manifest)
        rep2 = run_experiment(cfg, small_manifest)
        assert rep1.to_json_dict() == rep2.to_json_dict()
        assert rep1.columns == ("clinic_b", "clinic_c", "average")
        assert set(rep1.methods) >= {"symbolic", "neural"}
        for m in rep1.methods:
            for c in rep1.columns:
                stat = rep1.cell(m, c)
                assert 0.0 <= stat.mean <= 1.0
                assert stat.n_seeds == 2

    def test_mean_std_equal_seeded_summary_of_raw(self, small_manifest):
        cfg = ExperimentConfig(
            mode="sdg", source="clinic_a", seeds=(0, 1, 2),
            symbolic=TrainConfig(**FAST_SYMBOLIC),
            fusion=FusionSpec(strategies=("max",)),
        )
        written = json.loads(render_report(run_experiment(cfg, small_manifest), "json"))
        raw, cells = written["raw"], written["cells"]
        targets = written["columns"][:-1]
        for m in written["methods"]:
            for c in written["columns"]:
                for metric in written["metrics"]:
                    assert cells[m][c][metric] == [*seeded_summary(raw[m][c][metric]), 3]
                per_seed = zip(*(raw[m][t][metric] for t in targets))
                assert raw[m]["average"][metric] == [float(np.mean(values)) for values in per_seed]

    def test_symbolic_only_without_probs(self, tmp_path):
        cfg_data = shift_profile("mild", seed=1, n_samples=120)
        manifest_path = write_dataset(cfg_data, tmp_path)
        raw = json.loads(manifest_path.read_text())
        for d in raw["domains"]:
            d["probs"] = None
        manifest_path.write_text(json.dumps(raw))
        manifest = load_manifest(manifest_path)
        cfg = ExperimentConfig(
            mode="sdg", source="clinic_a", seeds=(0,),
            symbolic=TrainConfig(**FAST_SYMBOLIC),
            fusion=FusionSpec(strategies=(), include_neural=False),
        )
        rep = run_experiment(cfg, manifest)
        assert rep.methods == ("symbolic",)

    def test_missing_probability_table_raises(self, tmp_path):
        cfg_data = shift_profile("mild", seed=1, n_samples=120)
        manifest_path = write_dataset(cfg_data, tmp_path)
        raw = json.loads(manifest_path.read_text())
        raw["domains"][1]["probs"] = None
        manifest_path.write_text(json.dumps(raw))
        manifest = load_manifest(manifest_path)
        cfg = ExperimentConfig(
            mode="sdg", source="clinic_a", seeds=(0,),
            symbolic=TrainConfig(**FAST_SYMBOLIC),
        )
        with pytest.raises(MissingProbabilityTable):
            run_experiment(cfg, manifest)

    def test_explicit_targets_subset(self, small_manifest):
        cfg = ExperimentConfig(
            mode="sdg", source="clinic_a", targets=("clinic_c",), seeds=(0,),
            symbolic=TrainConfig(**FAST_SYMBOLIC),
            fusion=FusionSpec(strategies=(), include_neural=False),
        )
        rep = run_experiment(cfg, small_manifest)
        assert rep.columns == ("clinic_c", "average")

    def test_alignment_records_kl(self, small_manifest):
        cfg = ExperimentConfig(
            mode="sdg", source="clinic_a", seeds=(0,),
            symbolic=TrainConfig(**FAST_SYMBOLIC),
            fusion=FusionSpec(strategies=(), include_neural=False),
            alignment=True,
        )
        rep = run_experiment(cfg, small_manifest)
        assert rep.kl_before is not None and rep.kl_after is not None
        assert rep.kl_after <= rep.kl_before


class TestRunMdg:
    def test_leave_one_out_fold_per_domain(self, small_manifest):
        cfg = ExperimentConfig(
            mode="mdg", seeds=(0,),
            symbolic=TrainConfig(**FAST_SYMBOLIC),
            fusion=FusionSpec(strategies=("max",)),
        )
        rep = run_experiment(cfg, small_manifest)
        assert rep.columns == ("clinic_a", "clinic_b", "clinic_c", "average")
        assert rep.mode == "mdg"

    def test_splits_each_domain_once_per_seed(self, small_manifest, monkeypatch):
        import kgdg.harness as harness

        calls = []

        def counting_split(dataset, fractions, seed):
            calls.append((dataset.domain, seed))
            return split_dataset(dataset, fractions, seed)

        monkeypatch.setattr(harness, "split_dataset", counting_split)
        cfg = ExperimentConfig(
            mode="mdg", seeds=(0, 1),
            symbolic=TrainConfig(**FAST_SYMBOLIC),
            fusion=FusionSpec(strategies=("max",)),
        )
        run_experiment(cfg, small_manifest)
        assert sorted(calls) == sorted((d, s) for d in ("clinic_a", "clinic_b", "clinic_c") for s in (0, 1))

    def test_alignment_path_trains_and_evaluates(self, tmp_path):
        manifest = load_manifest(
            write_dataset(shift_profile("severe", seed=2, n_samples=150), tmp_path)
        )
        cfg = ExperimentConfig(
            mode="mdg", seeds=(0,),
            symbolic=TrainConfig(**FAST_SYMBOLIC),
            fusion=FusionSpec(strategies=("max",)),
            alignment=True,
        )
        rep = run_experiment(cfg, manifest)
        assert rep.alignment_enabled
        assert rep.kl_after < rep.kl_before
        for m in rep.methods:
            for c in rep.columns:
                assert 0.0 <= rep.cell(m, c).mean <= 1.0


class TestFoldPlan:
    DOMAINS = [DomainId("a"), DomainId("b"), DomainId("c")]

    def test_sdg_is_one_fold_against_every_other_domain(self):
        cfg = ExperimentConfig(mode="sdg", source="b")
        assert fold_plan(cfg, self.DOMAINS) == [(["b"], ["a", "c"])]

    def test_sdg_named_targets(self):
        cfg = ExperimentConfig(mode="sdg", source="a", targets=("c",))
        assert fold_plan(cfg, self.DOMAINS) == [(["a"], ["c"])]

    def test_mdg_holds_each_domain_out_once(self):
        cfg = ExperimentConfig(mode="mdg")
        assert fold_plan(cfg, self.DOMAINS) == [
            (["b", "c"], ["a"]), (["a", "c"], ["b"]), (["a", "b"], ["c"]),
        ]

    @pytest.mark.parametrize("cfg,domains", [
        (ExperimentConfig(mode="sdg", source="zzz"), DOMAINS),
        (ExperimentConfig(mode="sdg", source="a", targets=("zzz",)), DOMAINS),
        (ExperimentConfig(mode="sdg", source="a", targets=("b", "A")), DOMAINS),
        (ExperimentConfig(mode="sdg", source="a", targets=("b", "b")), DOMAINS),
        (ExperimentConfig(mode="sdg", source="a"), [DomainId("a")]),
        (ExperimentConfig(mode="mdg"), [DomainId("a")]),
    ])
    def test_bad_plans_rejected(self, cfg, domains):
        with pytest.raises(InvalidConfig):
            fold_plan(cfg, domains)


class TestRunExperiment:
    def test_aligns_each_fold_once_for_all_seeds(self, small_manifest, monkeypatch):
        import kgdg.harness as harness

        calls = []

        def counting_align(matrices, reference):
            calls.append(str(reference))
            return align_domains(matrices, reference)

        monkeypatch.setattr(harness, "align_domains", counting_align)
        cfg = ExperimentConfig(
            mode="mdg", seeds=(0, 1),
            symbolic=TrainConfig(**FAST_SYMBOLIC),
            fusion=FusionSpec(strategies=("max",)),
            alignment=True,
        )
        run_experiment(cfg, small_manifest)
        assert calls == ["clinic_b", "clinic_a", "clinic_a"]

    @pytest.mark.parametrize("mode", ["sdg", "mdg"])
    def test_each_fit_validates_on_held_out_rows(self, tmp_path, monkeypatch, mode):
        """Every fit early-stops on rows it does not train on."""
        import kgdg.harness as harness

        manifest = load_manifest(write_dataset(shift_profile("mild", seed=0, n_samples=90), tmp_path))
        for k, entry in enumerate(manifest.domains):
            table = read_feature_table(entry.features)
            counts = table.counts.copy()
            counts[:, 0] = 1000 * k + np.arange(len(table))  # a distinct row each, so a row's values name it
            save_feature_table(entry.features, dataclasses.replace(table, counts=counts))
        fits = []

        def recording_fit(x_train, y_train, x_valid, y_valid, schema, cfg):
            fits.append((x_train, x_valid))
            return fit_model(x_train, y_train, x_valid, y_valid, schema, cfg)

        monkeypatch.setattr(harness, "fit_model", recording_fit)
        monkeypatch.setattr(harness, "process_count", lambda n_tasks: 1)  # a forked child's records stay there
        cfg = ExperimentConfig(
            mode=mode, source="clinic_a" if mode == "sdg" else None, seeds=(0, 1),
            symbolic=TrainConfig(n_trees=3, min_leaf=2, early_stop_patience=2),
            fusion=FusionSpec(strategies=("max",)),
        )
        run_experiment(cfg, manifest)
        assert len(fits) == (2 if mode == "sdg" else 6)
        for x_train, x_valid in fits:
            train, valid = ({tuple(row) for row in x.tolist()} for x in (x_train, x_valid))
            assert len(train) == len(x_train) and len(valid) == len(x_valid)
            assert valid and not train & valid

    # sha256 of canonical_json(report.to_json_dict()). MDG's KL is a mean
    # over every (seed, fold) run, and SDG's KL is its single fold's value.
    # Re-recorded when the unused fusion.grid key left the config, when the
    # unused rules section left it and the fingerprint stopped hashing
    # detection files, when logistic_steps and logistic_lr left it, when
    # subsample, bootstrap and max_features left it, and when
    # class_weighting, alpha_dl and alpha_kl left it, and when the
    # fingerprint came to hash only what the run reads (the learner's own
    # fields, SDG's resolved targets, the schema, the manifest order): each
    # time only the config_fingerprint field moved, every other field kept
    # its bytes.
    PINNED = {
        ("sdg", False): "2e21eaf834aa3730328a67630ae99d41fbb229802ae1e8d45570fc53b0cb2997",
        ("sdg", True): "ff54bcf5cbdc12f97d0f7674f6a8e999ddabd3c5e117ce56bc7b360f7d098470",
        ("mdg", False): "117d28c3b7b0001ad2712f39537eff2e447a51e9932a8627d8f592fa18bc659c",
        ("mdg", True): "0aa53d3df929b1c16dbd69fcdd715e2211c9558dafff4c433b8de5148ef54376",
    }

    @pytest.mark.parametrize("mode,alignment", sorted(PINNED))
    def test_report_bytes_pinned(self, small_manifest, mode, alignment):
        cfg = ExperimentConfig(
            mode=mode, source="clinic_a" if mode == "sdg" else None, seeds=(0, 1),
            symbolic=TrainConfig(**FAST_SYMBOLIC),
            alignment=alignment,
        )
        report = run_experiment(cfg, small_manifest)
        assert content_digest(canonical_json(report.to_json_dict())) == self.PINNED[(mode, alignment)]

    # Recorded while the report still stored its cells and raw values as two
    # tables; re-recorded with PINNED above, when only config_fingerprint
    # moved. Nine seeds are more than the 7 values numpy sums in order
    # before it sums pairwise, so each cell's mean must come from the same
    # contiguous per-seed vector.
    PINNED_NINE_SEEDS = {
        "sdg": "41f12ada7ed53887621c9d20e5507ae7fa629cb6c3c50045e664f1789f57a622",
        "mdg": "fbcb01e5adc440785eec2f145269d280bb8c54089730dfe7789796ddf33a74e0",
    }

    @pytest.mark.parametrize("mode", sorted(PINNED_NINE_SEEDS))
    def test_nine_seed_report_bytes_pinned(self, small_manifest, mode):
        cfg = ExperimentConfig(
            mode=mode, source="clinic_a" if mode == "sdg" else None, seeds=tuple(range(9)),
            symbolic=TrainConfig(**FAST_SYMBOLIC),
        )
        report = run_experiment(cfg, small_manifest)
        assert content_digest(canonical_json(report.to_json_dict())) == self.PINNED_NINE_SEEDS[mode]


class TestExperimentConfigFile:
    def test_load_round_trip(self, tmp_path):
        manifest_path = write_dataset(shift_profile("mild", seed=0, n_samples=60), tmp_path)
        config_path = tmp_path / "experiment.json"
        config_path.write_text(json.dumps({
            "mode": "sdg",
            "domains": {"manifest": manifest_path.name, "source": "clinic_a"},
            "seeds": [0, 1],
            "split": {"train": 0.6, "validation": 0.2, "test": 0.2},
            "symbolic": {"model_kind": "gbm", "n_trees": 10},
            "fusion": {"strategies": ["max"], "include_neural": True},
            "alignment": False,
        }))
        cfg, mpath = load_experiment_config(config_path)
        assert cfg.mode == "sdg"
        assert cfg.seeds == (0, 1)
        assert cfg.symbolic.n_trees == 10
        assert mpath == manifest_path.resolve()

    def test_readme_example_names_every_key(self, tmp_path):
        """README's experiment.json example loads, and each of its sections
        names exactly the fields of the class that section builds."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("## Experiment config (`experiment.json`)\n", 1)[1]
        block = section.split("```json\n", 1)[1].split("```", 1)[0]
        config_path = tmp_path / "experiment.json"
        config_path.write_text(block)
        load_experiment_config(config_path)
        raw = json.loads(block)
        for name, cls in (("split", SplitFractions), ("symbolic", TrainConfig), ("fusion", FusionSpec)):
            assert set(raw[name]) == {f.name for f in dataclasses.fields(cls)}, name

    def test_unknown_section_rejected(self, tmp_path):
        config_path = tmp_path / "experiment.json"
        config_path.write_text(json.dumps({"domains": {"manifest": "m.json"}, "extra": 1}))
        with pytest.raises(InvalidConfig):
            load_experiment_config(config_path)

    def test_unknown_symbolic_key_rejected(self, tmp_path):
        config_path = tmp_path / "experiment.json"
        config_path.write_text(json.dumps({
            "domains": {"manifest": "m.json"},
            "symbolic": {"depth": 3},
        }))
        with pytest.raises(InvalidConfig):
            load_experiment_config(config_path)
