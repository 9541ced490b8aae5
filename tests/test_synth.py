import filecmp

import numpy as np
import pytest

from kgdg.core import DomainId, LESIONS_ONLY_SCHEMA, VEIN_FEATURE_NAMES
from kgdg.errors import InvalidConfig
from kgdg.learn import feature_matrix
from kgdg.metrics import DomainStats, domain_kl
from kgdg.rules import aggregate_detections, grade_by_rules
from kgdg.synth import (
    DomainSpec,
    SynthConfig,
    gen_dataset,
    shift_profile,
    simulate_neural_table,
    write_dataset,
)


def single_domain_config(n, seed=0, **spec_kwargs):
    defaults = dict(name="only", n_samples=n)
    defaults.update(spec_kwargs)
    return SynthConfig(domains=(DomainSpec(**defaults),), seed=seed)


class TestGenDataset:
    def test_grade_frequencies_match_prior(self):
        prior = (0.2, 0.2, 0.2, 0.2, 0.2)
        cfg = single_domain_config(10_000, grade_prior=prior)
        out = gen_dataset(cfg)
        grades = out.datasets[DomainId("only")].grades()
        freqs = np.bincount(grades, minlength=5) / len(grades)
        assert np.all(np.abs(freqs - 0.2) <= 0.015)

    def test_zero_count_bias_grades_by_rules(self):
        cfg = single_domain_config(400, count_bias=0.0)
        out = gen_dataset(cfg)
        for ex in out.datasets[DomainId("only")].examples:
            grade = int(grade_by_rules(ex.features).grade)
            if ex.features.neovascularization_present or ex.features.subhyaloid_present:
                assert grade == 4
                assert int(ex.grade) == 4  # flags only attach to grade-4 rows
            else:
                assert grade == 0

    def test_deterministic_outputs(self):
        cfg = single_domain_config(200, seed=11)
        a = gen_dataset(cfg)
        b = gen_dataset(cfg)
        assert a.datasets == b.datasets
        assert a.probability_tables == b.probability_tables

    def test_features_consistent_with_detections(self):
        cfg = single_domain_config(150, seed=3)
        out = gen_dataset(cfg)
        dataset = out.datasets[DomainId("only")]
        dets = out.detections[DomainId("only")]
        for ex in dataset.examples:
            rebuilt = aggregate_detections(dets[ex.image_id], min_score=0.0)
            for name in LESIONS_ONLY_SCHEMA:
                assert getattr(rebuilt, name) == getattr(ex.features, name)

    def test_monotone_mean_counts_in_grade(self):
        cfg = single_domain_config(10_000, seed=5)
        out = gen_dataset(cfg)
        examples = out.datasets[DomainId("only")].examples
        for field in (
            "microaneurysm_count",
            "exudate_count",
            "hard_hemorrhage_count",
            "soft_hemorrhage_count",
            "cotton_wool_count",
        ):
            means = []
            for g in range(5):
                vals = [getattr(e.features, field) for e in examples if int(e.grade) == g]
                means.append(np.mean(vals))
            assert all(means[i + 1] >= means[i] - 1e-9 for i in range(4))

    def test_neural_accuracy_calibrated(self):
        cfg = single_domain_config(10_000, neural_in_domain_accuracy=0.8, seed=7)
        out = gen_dataset(cfg)
        ds = out.datasets[DomainId("only")]
        table = out.probability_tables[DomainId("only")]
        hits = sum(1 for ex in ds.examples if table[ex.image_id].argmax() == int(ex.grade))
        assert abs(hits / len(ds) - 0.8) <= 0.02

    def test_ood_accuracy_applies_to_non_source_domains(self):
        cfg = SynthConfig(
            domains=(
                DomainSpec("src", 4000, neural_in_domain_accuracy=0.9, neural_ood_accuracy=0.4),
                DomainSpec("tgt", 4000, neural_in_domain_accuracy=0.9, neural_ood_accuracy=0.4),
            ),
            neural_source="src",
            seed=1,
        )
        out = gen_dataset(cfg)
        for name, expected in (("src", 0.9), ("tgt", 0.4)):
            ds = out.datasets[DomainId(name)]
            table = out.probability_tables[DomainId(name)]
            acc = np.mean([table[ex.image_id].argmax() == int(ex.grade) for ex in ds.examples])
            assert abs(acc - expected) <= 0.03

    def test_invalid_config_rejected(self):
        with pytest.raises(InvalidConfig):
            single_domain_config(100, grade_prior=(0.5, 0.5, 0.5, 0, 0))
        with pytest.raises(InvalidConfig):
            single_domain_config(100, count_bias=-1.0)
        with pytest.raises(InvalidConfig):
            SynthConfig(domains=())


class TestSimulateNeuralTable:
    def test_temperature_controls_peakness(self):
        cfg = single_domain_config(500, seed=2)
        examples = gen_dataset(cfg).datasets[DomainId("only")].examples
        sharp = simulate_neural_table(examples, 0.8, 0.2, seed=0)
        flat = simulate_neural_table(examples, 0.8, 2.0, seed=0)
        sharp_max = np.mean([r.max_score() for r in sharp.values()])
        flat_max = np.mean([r.max_score() for r in flat.values()])
        assert sharp_max > 0.9 > 0.5 > flat_max

    def test_rows_are_valid(self):
        from kgdg.core import validate_probability

        cfg = single_domain_config(100, seed=4)
        examples = gen_dataset(cfg).datasets[DomainId("only")].examples
        table = simulate_neural_table(examples, 0.7, 0.8, seed=1)
        for row in table.values():
            validate_probability(list(row))


class TestWriteDataset:
    def test_same_seed_byte_identical_trees(self, tmp_path):
        cfg = shift_profile("mild", seed=4, n_samples=60)
        d1, d2 = tmp_path / "one", tmp_path / "two"
        write_dataset(cfg, d1)
        write_dataset(cfg, d2)
        names = sorted(p.name for p in d1.iterdir())
        assert names == sorted(p.name for p in d2.iterdir())
        match, mismatch, errors = filecmp.cmpfiles(d1, d2, names, shallow=False)
        assert mismatch == [] and errors == []

    def test_manifest_loads_back(self, tmp_path):
        from kgdg.io import load_domain_dataset, load_manifest

        cfg = shift_profile("severe", seed=0, n_samples=50)
        manifest_path = write_dataset(cfg, tmp_path / "data")
        manifest = load_manifest(manifest_path)
        assert len(manifest.domains) == 3
        ds = load_domain_dataset(manifest.domains[0])
        assert len(ds) == 50
        assert ds.probs is not None and ds.probs.shape == (50, 5)

    def test_detections_round_trip_exactly(self, tmp_path):
        # images with zero detections have no records in the flat JSON list
        from kgdg.io import load_detections

        cfg = single_domain_config(80, seed=6)
        out = gen_dataset(cfg)
        manifest_path = write_dataset(cfg, tmp_path / "data")
        loaded = load_detections(manifest_path.parent / "only_detections.json")
        generated = out.detections[DomainId("only")]
        nonempty = {k: v for k, v in generated.items() if v}
        assert set(loaded) == set(nonempty)
        for image_id, dets in nonempty.items():
            assert loaded[image_id] == dets


class TestShiftProfiles:
    def test_unknown_profile(self):
        with pytest.raises(InvalidConfig):
            shift_profile("gentle")

    def test_vein_hostile_vein_kl_dominates_lesion_kl(self):
        cfg = shift_profile("vein_hostile", seed=0, n_samples=1500)
        out = gen_dataset(cfg)
        vein_kls, lesion_kls = [], []
        names = list(out.datasets)
        for i, p in enumerate(names):
            for q in names[i + 1:]:
                xp = feature_matrix(out.datasets[p].examples, VEIN_FEATURE_NAMES)
                xq = feature_matrix(out.datasets[q].examples, VEIN_FEATURE_NAMES)
                vein_kls.append(
                    domain_kl(DomainStats.from_matrix(xp), DomainStats.from_matrix(xq))
                )
                lp = feature_matrix(out.datasets[p].examples, LESIONS_ONLY_SCHEMA)
                lq = feature_matrix(out.datasets[q].examples, LESIONS_ONLY_SCHEMA)
                lesion_kls.append(
                    domain_kl(DomainStats.from_matrix(lp), DomainStats.from_matrix(lq))
                )
        assert sum(vein_kls) > sum(lesion_kls)

    def test_profiles_have_three_domains(self):
        for name in ("mild", "severe", "vein_hostile"):
            cfg = shift_profile(name, seed=0, n_samples=10)
            assert len(cfg.domains) == 3
            assert cfg.source_domain() == DomainId("clinic_a")
