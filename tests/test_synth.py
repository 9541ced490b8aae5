import dataclasses
import filecmp
import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from ref_detections import ref_aggregate, ref_detection_lists

from kgdg.core import (
    LESION_TYPES,
    LESIONS_ONLY_SCHEMA,
    VEIN_FEATURE_NAMES,
    DetectionTable,
    DomainId,
    validate_probability_rows,
)
from kgdg.errors import InvalidConfig
from kgdg.io import (
    load_domain_dataset,
    load_manifest,
    read_detections,
    read_feature_table,
    read_probability_table,
)
from kgdg.learn import feature_matrix
from kgdg.metrics import DomainStats, domain_kl
from kgdg.rules import grade_by_rules
from kgdg.synth import (
    DEFAULT_COUNT_RATES,
    DomainSpec,
    SynthConfig,
    _lesion_counts,
    _round6,
    _stream,
    gen_dataset,
    shift_profile,
    simulate_neural_table,
    write_dataset,
)


def single_domain_config(n, seed=0, **spec_kwargs):
    defaults = dict(name="only", n_samples=n)
    defaults.update(spec_kwargs)
    return SynthConfig(domains=(DomainSpec(**defaults),), seed=seed)


DOMAIN_TABLE_FIELDS = ("ids", "domains", "y", "counts", "vein", "domain", "probs")


def assert_same_fields(a, b, names):
    """``a`` and ``b`` hold equal values (arrays: equal shape and elements) in ``names``."""
    for name in names:
        x, y = getattr(a, name), getattr(b, name)
        arrays = isinstance(x, np.ndarray) or isinstance(y, np.ndarray)
        assert np.array_equal(x, y) if arrays else x == y, name


class TestGenDataset:
    def test_grade_frequencies_match_prior(self):
        prior = (0.2, 0.2, 0.2, 0.2, 0.2)
        cfg = single_domain_config(10_000, grade_prior=prior)
        out = gen_dataset(cfg)
        grades = out.tables[DomainId("only")].y
        freqs = np.bincount(grades, minlength=5) / len(grades)
        assert np.all(np.abs(freqs - 0.2) <= 0.015)

    def test_zero_count_bias_grades_by_rules(self):
        cfg = single_domain_config(400, count_bias=0.0)
        out = gen_dataset(cfg)
        table = out.tables[DomainId("only")]
        for counts, label in zip(table.counts.tolist(), table.y.tolist()):
            grade = int(grade_by_rules(counts))
            if counts[6] or counts[5]:  # neovascularization or subhyaloid hemorrhage
                assert grade == 4
                assert label == 4  # flags only attach to grade-4 rows
            else:
                assert grade == 0

    def test_deterministic_outputs(self):
        cfg = single_domain_config(200, seed=11)
        a = gen_dataset(cfg)
        b = gen_dataset(cfg)
        for domain in a.tables:
            assert_same_fields(a.tables[domain], b.tables[domain], DOMAIN_TABLE_FIELDS)
            assert_same_fields(a.detections[domain], b.detections[domain], DetectionTable._fields)

    def test_features_consistent_with_detections(self):
        cfg = single_domain_config(150, seed=3)
        out = gen_dataset(cfg)
        dataset = out.tables[DomainId("only")]
        dets = ref_detection_lists(out.detections[DomainId("only")])
        for image_id, counts in zip(dataset.ids, dataset.counts.tolist()):
            rebuilt = ref_aggregate(dets[image_id], min_score=0.0)
            assert [rebuilt[name] for name in LESIONS_ONLY_SCHEMA] == counts

    def test_monotone_mean_counts_in_grade(self):
        cfg = single_domain_config(10_000, seed=5)
        out = gen_dataset(cfg)
        table = out.tables[DomainId("only")]
        for field in (
            "microaneurysm_count",
            "exudate_count",
            "hard_hemorrhage_count",
            "soft_hemorrhage_count",
            "cotton_wool_count",
        ):
            means = []
            for g in range(5):
                vals = table.counts[table.y == g, LESIONS_ONLY_SCHEMA.index(field)]
                means.append(np.mean(vals))
            assert all(means[i + 1] >= means[i] - 1e-9 for i in range(4))

    def test_neural_accuracy_calibrated(self):
        cfg = single_domain_config(10_000, neural_in_domain_accuracy=0.8, seed=7)
        out = gen_dataset(cfg)
        ds = out.tables[DomainId("only")]
        hits = int((ds.probs.argmax(axis=1) == ds.y).sum())
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
            ds = out.tables[DomainId(name)]
            acc = np.mean(ds.probs.argmax(axis=1) == ds.y)
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
        grades = gen_dataset(cfg).tables[DomainId("only")].y
        sharp = simulate_neural_table(grades, 0.8, 0.2, seed=0)
        flat = simulate_neural_table(grades, 0.8, 2.0, seed=0)
        sharp_max = np.mean(sharp.max(axis=1))
        flat_max = np.mean(flat.max(axis=1))
        assert sharp_max > 0.9 > 0.5 > flat_max

    def test_rows_are_valid(self):
        cfg = single_domain_config(100, seed=4)
        grades = gen_dataset(cfg).tables[DomainId("only")].y
        table = simulate_neural_table(grades, 0.7, 0.8, seed=1)
        assert table.shape == (len(grades), 5)
        validate_probability_rows(table)


# --- the array code against the per-value and per-image loops it replaced ---------------


def ref_round6(values):
    return np.array([round(v, 6) for v in values.tolist()], dtype=np.float64)


def ref_lesion_counts(rng, grades, rates, pdr_flag_prob):
    lesions = np.zeros((len(grades), len(LESION_TYPES)), dtype=np.int64)
    for i, g in enumerate(grades.tolist()):
        lesions[i, :5] = rng.poisson(rates[g])
        if g == 4:
            lesions[i, 5] = rng.random() < pdr_flag_prob / 2
            lesions[i, 6] = rng.random() < pdr_flag_prob
    return lesions


def ref_simulate_neural_table(grades, accuracy, temperature, seed, stream="neural"):
    rng = _stream(seed, stream)
    rows = np.empty((len(grades), 5))
    for n, grade in enumerate(np.asarray(grades).tolist()):
        if rng.random() < accuracy:
            winner = grade
        else:
            others = [g for g in range(5) if g != grade]
            winner = others[rng.integers(0, 4)]
        logits = rng.uniform(0.0, 0.5, size=5)
        logits[winner] = 1.0 + rng.uniform(0.0, 0.25)
        z = logits / temperature
        z -= z.max()
        e = np.exp(z)
        rows[n] = e / e.sum()
    return rows


def _near_halves(k):
    """(k + 1/2) / 10**6 for each integer k, both signs, and the doubles up to 3 ulps either side."""
    half = np.concatenate([(k + 0.5) / 1e6, -(k + 0.5) / 1e6])
    out = [half]
    for direction in (np.inf, -np.inf):
        v = half
        for _ in range(3):
            v = np.nextafter(v, direction)
            out.append(v)
    return np.concatenate(out)


class TestRound6:
    EDGES = np.array([0.0, -0.0, 1e-9, -1e-9, 5e-7, -5e-7, 4.9999999999999996e-7, 1e-320, 0.5, 1.0, 0.0000015,
                      999.9999994999999, 999.9999995, 999.9999995000001, 1e3, -1e3, 1000.0000005, 1e6 + 0.5e-6,
                      1e15, 1e300, -1e300, 1.7976931348623157e308, np.nan, np.inf, -np.inf, -np.nan])

    @staticmethod
    def assert_bits(values):
        assert _round6(values).tobytes() == ref_round6(values).tobytes()

    def test_edges(self):
        self.assert_bits(self.EDGES)

    def test_halves_and_neighbours(self):
        rng = np.random.default_rng(0)
        k = np.concatenate([np.arange(0, 2000), rng.integers(0, 10**9, size=20_000),
                            rng.integers(0, 10**6, size=20_000), np.arange(10**9 - 2000, 10**9 + 2000)])
        self.assert_bits(_near_halves(k.astype(np.float64)))

    def test_uniform_draws_as_synth_makes_them(self):
        u = np.random.default_rng(1).random(200_000)
        self.assert_bits(0.01 + (0.06 - 0.01) * u)
        self.assert_bits(0.5 + (1.0 - 0.5) * u)
        self.assert_bits(u * 180.0)

    @settings(max_examples=500, deadline=None)
    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True) | st.floats(-2e3, 2e3)
                    | st.integers(-10**10, 10**10).map(lambda k: (k + 0.5) / 1e6), max_size=20))
    def test_any_double(self, values):
        self.assert_bits(np.array(values, dtype=np.float64))


def _grade_vectors():
    rng = np.random.default_rng(3)
    yield from (np.zeros(0, np.int64), np.array([4]), np.array([2]), np.full(40, 4), np.full(40, 1),
                np.array([4, 0, 1, 2, 3, 4]), np.array([4, 4, 0, 4]), rng.integers(0, 4, 300))
    for _ in range(20):
        yield rng.integers(0, 5, int(rng.integers(1, 400)))


class TestLabelDraws:
    @pytest.mark.parametrize("bias,pdr", [(1.0, 0.9), (0.0, 0.9), (4.0, 1.0), (0.55, 0.0)])
    def test_runs_equal_per_image_loop(self, bias, pdr):
        rates = np.asarray(DEFAULT_COUNT_RATES) * bias  # bias 4 puts rates above 10, numpy's other Poisson method
        for n, grades in enumerate(_grade_vectors()):
            new_rng, ref_rng = _stream(n, "labels"), _stream(n, "labels")
            got = _lesion_counts(new_rng, grades, rates, pdr)
            assert got.dtype == np.int64 and np.array_equal(got, ref_lesion_counts(ref_rng, grades, rates, pdr))
            assert new_rng.random() == ref_rng.random()


class TestNeuralTableEqualsRowLoop:
    @pytest.mark.parametrize("accuracy,temperature", [(0.85, 0.25), (0.55, 1.2), (0.0, 1.0), (1.0, 3.0)])
    def test_bits(self, accuracy, temperature):
        for n, grades in enumerate(_grade_vectors()):
            got = simulate_neural_table(grades, accuracy, temperature, seed=n, stream="d/neural")
            want = ref_simulate_neural_table(grades, accuracy, temperature, seed=n, stream="d/neural")
            assert got.shape == (len(grades), 5) and got.tobytes() == want.tobytes()


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

    @pytest.mark.parametrize("source", ["", "clinic_b", "clinic_c"])
    def test_each_domain_keeps_its_deep_branch_accuracy(self, tmp_path, source):
        # write_dataset generates one domain at a time; off the source a domain stays out-of-domain
        cfg = dataclasses.replace(shift_profile("mild", seed=2, n_samples=60), neural_source=source)
        manifest = load_manifest(write_dataset(cfg, tmp_path))
        for entry, table in zip(manifest.domains, gen_dataset(cfg).tables.values(), strict=True):
            ids, rows = read_probability_table(entry.probs)
            assert ids == table.ids
            assert np.allclose(rows, table.probs, rtol=0.0, atol=1e-7)  # the file holds 8 decimals

    def test_detections_round_trip_exactly(self, tmp_path):
        # images with zero detections have no records in the flat JSON list
        cfg = single_domain_config(80, seed=6)
        out = gen_dataset(cfg)
        manifest_path = write_dataset(cfg, tmp_path / "data")
        loaded = ref_detection_lists(read_detections(manifest_path.parent / "only_detections.json"))
        generated = ref_detection_lists(out.detections[DomainId("only")])
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
        names = list(out.tables)
        for i, p in enumerate(names):
            for q in names[i + 1:]:
                xp = feature_matrix(out.tables[p], VEIN_FEATURE_NAMES)
                xq = feature_matrix(out.tables[q], VEIN_FEATURE_NAMES)
                vein_kls.append(
                    domain_kl(DomainStats.from_matrix(xp), DomainStats.from_matrix(xq))
                )
                lp = feature_matrix(out.tables[p], LESIONS_ONLY_SCHEMA)
                lq = feature_matrix(out.tables[q], LESIONS_ONLY_SCHEMA)
                lesion_kls.append(
                    domain_kl(DomainStats.from_matrix(lp), DomainStats.from_matrix(lq))
                )
        assert sum(vein_kls) > sum(lesion_kls)

    def test_profiles_have_three_domains(self):
        for name in ("mild", "severe", "vein_hostile"):
            cfg = shift_profile(name, seed=0, n_samples=10)
            assert len(cfg.domains) == 3
            assert cfg.source_domain() == DomainId("clinic_a")


PIN_ROWS = 120


def pinned_config(case, seed):
    """A shift profile at PIN_ROWS rows; ``no_vein`` is ``mild`` without vein columns."""
    cfg = shift_profile("mild" if case == "no_vein" else case, seed=seed, n_samples=PIN_ROWS)
    return dataclasses.replace(cfg, with_vein=False) if case == "no_vein" else cfg


class TestSynthBytesPinned:
    """write_dataset writes the bytes the per-object generator wrote
    (digests recorded with it)."""

    PINNED = {
        ("mild", 3): {
            "clinic_a_detections.json": "f8575ff4a4d3433ddc25d4a763ae61b2fac3e6c84ca46d0577eec096d8ad8468",
            "clinic_a_features.csv": "ee3ec57c42a5801c461801e8d72c877245dad8008414713a0d7204a3694e0ba1",
            "clinic_a_probs.csv": "c6bf09e7ad1a0ddef449616babf0e6d8233ee681327df143aedbf93848241e63",
            "clinic_b_detections.json": "e0b1929f04a903b75a221b6fdd62005bcf1cde0d833de90a70c83ab7d3b352c2",
            "clinic_b_features.csv": "c004e11ad2f97839865d4699f5f52a3b17eb00ad2031b659b5bc1f5e660826e9",
            "clinic_b_probs.csv": "20729fe6322504f96997112f20e9466e7a99c2e2e63ed5acfe82f22bb0a3e41f",
            "clinic_c_detections.json": "77fcb2774da971049decfed4b13c71ab701ee3e9c327d75e9dccaa756c354b3c",
            "clinic_c_features.csv": "2bc5a9056f24fe83b59ef8433b2809dcaf171a7318f46f200d5197a3f5caaea8",
            "clinic_c_probs.csv": "5ead39818ec7ba119ad99251fbdabb958d1108927a6436229f39b6a070475375",
            "manifest.json": "6c65957731c62d4ac90e4ca125606fb599f836656ed6c14e3b2e3e6ba78d6185",
        },
        ("mild", 8): {
            "clinic_a_detections.json": "841956b5452f16541f1a839f470f5c5c9b6036f716ba6eb728557fc07f5f2849",
            "clinic_a_features.csv": "f03fc254f2d912d5cfbfae6aad382a2306942cb4631f5130896dfae112476464",
            "clinic_a_probs.csv": "4c5afb02e6de35bcdf6dfcb2854c97cacae05b6680ed4e9e4ec4352de51a00fd",
            "clinic_b_detections.json": "bf9816e2cdc766361198bb5d08fd5c6bf87e57d8089efe2a4e0b00f806e75c4f",
            "clinic_b_features.csv": "45ba6704d1bc8ee557a906539ff452ec69f57c32ab63cdcf89ee3e0a0b54bd59",
            "clinic_b_probs.csv": "793bbc02a98ffbccabfafc066a7812f2e53121c4001fe4653db441af85fb5cb9",
            "clinic_c_detections.json": "6f922ad89a66d5eaea6c579f93324c6aeadd8f0d0f37c43b1cd8b7ad49ebca2a",
            "clinic_c_features.csv": "6474df7e6a47d431d703cb8668914c2d341cb53adc2b1ba871c028d0bbf6addf",
            "clinic_c_probs.csv": "f9aa60808bd591176504654f2400f48bc52354ee8790bd57c00d5d23ba6eedaa",
            "manifest.json": "6c65957731c62d4ac90e4ca125606fb599f836656ed6c14e3b2e3e6ba78d6185",
        },
        ("severe", 3): {
            "clinic_a_detections.json": "f8575ff4a4d3433ddc25d4a763ae61b2fac3e6c84ca46d0577eec096d8ad8468",
            "clinic_a_features.csv": "54e93402431e457544c2449426206bb404c0ca44b5e5a220d8a65b382612067e",
            "clinic_a_probs.csv": "c6bf09e7ad1a0ddef449616babf0e6d8233ee681327df143aedbf93848241e63",
            "clinic_b_detections.json": "4622e3dd238a4f2327f4c9dab659e39f40a86c8837bdd4aa334561f51af50afa",
            "clinic_b_features.csv": "248aa327eb66ee2778eb95e51600c09b1c739b36d5788457e0ffe6d420205e55",
            "clinic_b_probs.csv": "0b1bbb7eb18cea24c902465efb4adbfef8ce1523398a97b9d15694b6a66a25a7",
            "clinic_c_detections.json": "9603b7132a638f7b42f32a349cf3903662bc718e6f89fb3622629ffad10a875b",
            "clinic_c_features.csv": "75db767643f5ae66e1e151d91832edf314f5bdae9325fcde0be4ac1b1afa4cb4",
            "clinic_c_probs.csv": "972508cdaa6a4dc5b3ebfb8a7eb0080ba4a51e464464ca45615645c1da268315",
            "manifest.json": "6c65957731c62d4ac90e4ca125606fb599f836656ed6c14e3b2e3e6ba78d6185",
        },
        ("severe", 8): {
            "clinic_a_detections.json": "841956b5452f16541f1a839f470f5c5c9b6036f716ba6eb728557fc07f5f2849",
            "clinic_a_features.csv": "7d2454167882562f19f49950e7c93e0fe408b7dc8b04eb4c47e05bcaf96ce200",
            "clinic_a_probs.csv": "4c5afb02e6de35bcdf6dfcb2854c97cacae05b6680ed4e9e4ec4352de51a00fd",
            "clinic_b_detections.json": "ffdf4a3ac5da4d4843433be74a8c95dc947994a805076ed1e09bb1ca9e7e88e0",
            "clinic_b_features.csv": "63b2b727d7b98a04a8f06ceef70360b7d22ff725879aac9bddf757cae11567aa",
            "clinic_b_probs.csv": "addcfa581911a3af890408f5eec0f3c12e38dfafb090a12c52aa4afa9bbe8b99",
            "clinic_c_detections.json": "7f2b84d8be64fc423b8d43788bdc56b06f81839a0f76aaa2c27e0fbaeeeb5e01",
            "clinic_c_features.csv": "9220083507f6c00b5f6fa7c3fbc795505a0160d7e760f5cca0d0530fc6f2c559",
            "clinic_c_probs.csv": "d74af1cb21d7a0b13a9d1f11b7ec08359464473036544cae23e13f157c556592",
            "manifest.json": "6c65957731c62d4ac90e4ca125606fb599f836656ed6c14e3b2e3e6ba78d6185",
        },
        ("vein_hostile", 3): {
            "clinic_a_detections.json": "f8575ff4a4d3433ddc25d4a763ae61b2fac3e6c84ca46d0577eec096d8ad8468",
            "clinic_a_features.csv": "b54019cd9601f86430ccb9b070465172dddb0687dc8c537cbbae7a9173336f95",
            "clinic_a_probs.csv": "c6bf09e7ad1a0ddef449616babf0e6d8233ee681327df143aedbf93848241e63",
            "clinic_b_detections.json": "01b71d39e3115fd3b4806b1cbad543c2cac6831565bd70a47e807548e94508f7",
            "clinic_b_features.csv": "86d5abc90422ccdccf1415fd6233eb4e264180486f3b2ad88bad7462e5c40dbe",
            "clinic_b_probs.csv": "0d2e9f4295c2c41fd405a1dd06b842dbb73a2e12df3879757a5a33d87e858c76",
            "clinic_c_detections.json": "69e6c578c9344244f2c8b1801a93baff56a28c3906ed82fb5ffa1aa5d751b23f",
            "clinic_c_features.csv": "de116025030bb4a52a44b31d3802a21182dde6e619be223efb9fb8deb6c95eae",
            "clinic_c_probs.csv": "eab4ee2f9583e4720b55fdcf2250cd4544a06734a8833d4454f85bd27ab3d7ec",
            "manifest.json": "6c65957731c62d4ac90e4ca125606fb599f836656ed6c14e3b2e3e6ba78d6185",
        },
        ("vein_hostile", 8): {
            "clinic_a_detections.json": "841956b5452f16541f1a839f470f5c5c9b6036f716ba6eb728557fc07f5f2849",
            "clinic_a_features.csv": "3595db97ce3a571bb40a28a67d70c129ca4ee1282f34a66713a2c7b77e599084",
            "clinic_a_probs.csv": "4c5afb02e6de35bcdf6dfcb2854c97cacae05b6680ed4e9e4ec4352de51a00fd",
            "clinic_b_detections.json": "c5b4d55afe16cbebd90785dad0bfc150d3bcb97cc12d9e74f366ac7a00f3d23d",
            "clinic_b_features.csv": "ae1bb306b6a1c2b2a4f7ae92d4ce966930de639af65ae74d496740daceba91ff",
            "clinic_b_probs.csv": "4461a9c996ae624b09f620ef9cec61eb1192303d723431aecfe6964a11a3e2d9",
            "clinic_c_detections.json": "61d14a31818e09006ce8ec664daf5530424efc2e0ff20b74dbd135027da7a11e",
            "clinic_c_features.csv": "6d7fa8a8a1fb5b40051cc17e575d4fa06940948a5122f3bb98bdfa892b8b4a25",
            "clinic_c_probs.csv": "60f345920368dfff4a9a9d768ba064001431cdc31b41c342d54ebcc722cacae7",
            "manifest.json": "6c65957731c62d4ac90e4ca125606fb599f836656ed6c14e3b2e3e6ba78d6185",
        },
        ("no_vein", 3): {
            "clinic_a_detections.json": "f8575ff4a4d3433ddc25d4a763ae61b2fac3e6c84ca46d0577eec096d8ad8468",
            "clinic_a_features.csv": "003ebce0b0156dd7f02813a54bc40256ec2161bf6fffc932480a7a50b32493d9",
            "clinic_a_probs.csv": "c6bf09e7ad1a0ddef449616babf0e6d8233ee681327df143aedbf93848241e63",
            "clinic_b_detections.json": "e0b1929f04a903b75a221b6fdd62005bcf1cde0d833de90a70c83ab7d3b352c2",
            "clinic_b_features.csv": "2a6c15b3f1cb5c22183426293008b1198e46e77b216a846f010242b368d10317",
            "clinic_b_probs.csv": "20729fe6322504f96997112f20e9466e7a99c2e2e63ed5acfe82f22bb0a3e41f",
            "clinic_c_detections.json": "77fcb2774da971049decfed4b13c71ab701ee3e9c327d75e9dccaa756c354b3c",
            "clinic_c_features.csv": "a99277fe62479d2156b841581a10c7d06e22cfb932d4938234cc54a1b2abc90a",
            "clinic_c_probs.csv": "5ead39818ec7ba119ad99251fbdabb958d1108927a6436229f39b6a070475375",
            "manifest.json": "6c65957731c62d4ac90e4ca125606fb599f836656ed6c14e3b2e3e6ba78d6185",
        },
        ("no_vein", 8): {
            "clinic_a_detections.json": "841956b5452f16541f1a839f470f5c5c9b6036f716ba6eb728557fc07f5f2849",
            "clinic_a_features.csv": "d56d2e7b79be0995147ab042447031308d1daa1c7162960bd716443beaa04239",
            "clinic_a_probs.csv": "4c5afb02e6de35bcdf6dfcb2854c97cacae05b6680ed4e9e4ec4352de51a00fd",
            "clinic_b_detections.json": "bf9816e2cdc766361198bb5d08fd5c6bf87e57d8089efe2a4e0b00f806e75c4f",
            "clinic_b_features.csv": "d762cd438145653a2332300f6ad8fca52109c02eb241920693234fe309f8497b",
            "clinic_b_probs.csv": "793bbc02a98ffbccabfafc066a7812f2e53121c4001fe4653db441af85fb5cb9",
            "clinic_c_detections.json": "6f922ad89a66d5eaea6c579f93324c6aeadd8f0d0f37c43b1cd8b7ad49ebca2a",
            "clinic_c_features.csv": "5e401e1bed7d2a6eec045343e849ac65fc110219199540dd66bc4c505fa2409b",
            "clinic_c_probs.csv": "f9aa60808bd591176504654f2400f48bc52354ee8790bd57c00d5d23ba6eedaa",
            "manifest.json": "6c65957731c62d4ac90e4ca125606fb599f836656ed6c14e3b2e3e6ba78d6185",
        },
    }

    @pytest.mark.parametrize("case,seed", sorted(PINNED))
    def test_file_digests(self, tmp_path, case, seed):
        write_dataset(pinned_config(case, seed), tmp_path)
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(tmp_path.iterdir())}
        assert digests == self.PINNED[(case, seed)]

    @pytest.mark.parametrize("case,seed", sorted(PINNED))
    def test_readers_return_the_generated_tables(self, tmp_path, case, seed):
        cfg = pinned_config(case, seed)
        generated = gen_dataset(cfg)
        path = write_dataset(cfg, tmp_path)
        manifest = load_manifest(path)
        # load_manifest keeps no detections paths (eval reads none), so take them from the JSON
        detection_files = {d["name"]: path.parent / d["detections"] for d in json.loads(path.read_text())["domains"]}
        assert [entry.name for entry in manifest.domains] == list(generated.tables)
        for entry in manifest.domains:
            domain, table = entry.name, generated.tables[entry.name]
            assert table.domain == domain and table.probs.shape == (PIN_ROWS, 5)
            assert (table.vein is None) == (case == "no_vein")
            assert_same_fields(read_feature_table(entry.features), table, DOMAIN_TABLE_FIELDS[:5])
            ids, rows = read_probability_table(entry.probs)
            assert ids == table.ids
            assert np.allclose(rows, table.probs, rtol=0.0, atol=1e-7)  # the file holds 8 decimals
            loaded = load_domain_dataset(entry)
            assert_same_fields(loaded, table, DOMAIN_TABLE_FIELDS[:6])
            assert np.array_equal(loaded.probs, rows)
            # only images with detections have records
            dets, read = generated.detections[domain], read_detections(detection_files[domain])
            assert dets.ids == table.ids
            assert read.ids == tuple(dets.ids[n] for n in dict.fromkeys(dets.image.tolist()))
            assert [read.ids[n] for n in read.image.tolist()] == [dets.ids[n] for n in dets.image.tolist()]
            assert_same_fields(read, dets, ("lesion", "box", "score"))
