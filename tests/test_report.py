import json

import pytest

from kgdg.errors import InvalidConfig, UnknownReference
from kgdg.harness import ExperimentConfig, FusionSpec, run_experiment
from kgdg.io import load_manifest
from kgdg.learn import TrainConfig
from kgdg.report import (
    compare_to_reference,
    emit_report,
    get_reference,
    load_report_json,
    reference_ids,
    render_csv,
    render_markdown,
)
from kgdg.synth import shift_profile, write_dataset


@pytest.fixture(scope="module")
def sdg_report(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("reportdata")
    manifest = load_manifest(write_dataset(shift_profile("mild", seed=0, n_samples=120), tmp))
    cfg = ExperimentConfig(
        mode="sdg", source="clinic_a", seeds=(0, 1),
        symbolic=TrainConfig(n_trees=20, min_leaf=2, early_stop_patience=5),
        fusion=FusionSpec(strategies=("max", "weighted")),
    )
    return run_experiment(cfg, manifest)


class TestReferenceTables:
    def test_known_ids(self):
        ids = reference_ids()
        assert "sdg_aptos" in ids and "mdg_methods" in ids and "feature_ablation" in ids

    def test_unknown_reference(self):
        with pytest.raises(UnknownReference):
            get_reference("table_99")

    def test_verbatim_headline_cells(self):
        assert get_reference("mdg_methods").cell("KL (Ours)", "Avg.") == "63.67"
        assert get_reference("sdg_aptos").cell("Non Weighted (DL + KL)", "Average") == "59.9±0.2"
        assert get_reference("sdg_messidor2").cell("Weighted (DL + KL)", "Average") == "65.5±0.3"
        assert get_reference("sdg_aptos").cell("Non Weighted (DL + KL)", "Eyepacs") == "72.8±0.5"
        assert get_reference("indomain_benchmark").cell("Knowledge-guided", "Accuracy") == "84.65"
        assert get_reference("indomain_benchmark").cell("ViT baseline", "Accuracy") == "78.40"
        assert get_reference("feature_ablation").cell(
            "Gradient Boosting / Lesions Only", "Accuracy"
        ) == "0.8465"
        assert get_reference("feature_ablation").cell(
            "Gradient Boosting / Lesions + Vein", "Accuracy"
        ) == "0.7252"

    def test_ablation_ordering_matches_summary_numbers(self):
        table = get_reference("sdg_aptos")

        def avg(label):
            return float(table.cell(label, "Average").split("±")[0])

        assert avg("Non Weighted (DL + KL)") > avg("Knowledge (KL)") > avg("VIT (DL)")
        assert avg("Non Weighted (DL + KL)") == 59.9
        assert avg("Knowledge (KL)") == 56.6
        assert avg("VIT (DL)") == 53.9


class TestCompare:
    def test_fixture_self_diff_zero(self):
        for rid in reference_ids():
            comparison = compare_to_reference(get_reference(rid), rid)
            assert comparison.zero_diffs, rid
            assert comparison.compared > 0

    def test_fixture_cross_diff_nonzero(self):
        comparison = compare_to_reference(get_reference("sdg_messidor"), "sdg_messidor2")
        assert not comparison.zero_diffs

    def test_synthetic_report_annotated(self, sdg_report):
        comparison = compare_to_reference(sdg_report, "sdg_aptos")
        assert comparison.compared > 0
        assert not comparison.zero_diffs
        assert all(d.note == "not comparable: synthetic data" for d in comparison.diffs)
        rows = {d.row for d in comparison.diffs}
        assert "Knowledge (KL)" in rows and "VIT (DL)" in rows

    def test_report_against_non_tabular_reference_rejected(self, sdg_report):
        with pytest.raises(InvalidConfig):
            compare_to_reference(sdg_report, "feature_ablation")

    def test_report_against_ablation_table_without_average(self, sdg_report):
        comparison = compare_to_reference(sdg_report, "aptos_ablation")
        assert comparison.compared > 0
        assert all(d.column != "Average" for d in comparison.diffs)

    def test_render_mentions_counts(self, sdg_report):
        comparison = compare_to_reference(sdg_report, "sdg_aptos")
        text = comparison.render()
        assert "cells compared" in text
        assert "not comparable: synthetic data" in text


class TestRendering:
    def test_markdown_structure(self, sdg_report):
        text = render_markdown(sdg_report)
        assert "## Cross-domain accuracy (%)" in text
        assert "| Method | clinic_b | clinic_c | average |" in text
        assert "config fingerprint" in text
        assert "**" in text  # best-cell flag

    def test_csv_structure(self, sdg_report):
        text = render_csv(sdg_report)
        assert text.splitlines()[0] == "metric,method,clinic_b,clinic_c,average"
        assert "*" in text

    def test_rendering_deterministic(self, sdg_report):
        assert render_markdown(sdg_report) == render_markdown(sdg_report)
        assert render_csv(sdg_report) == render_csv(sdg_report)

    def test_emit_and_reload_json(self, sdg_report, tmp_path):
        path = emit_report(sdg_report, "json", tmp_path / "report.json")
        loaded = load_report_json(path)
        assert loaded.to_json_dict() == sdg_report.to_json_dict()

    def test_reload_derives_cells_from_raw(self, sdg_report, tmp_path):
        written = sdg_report.to_json_dict()
        path = tmp_path / "report.json"
        path.write_text(json.dumps({**written, "cells": {}}))
        assert load_report_json(path).to_json_dict() == written

    def test_emit_markdown_and_csv(self, sdg_report, tmp_path):
        md = emit_report(sdg_report, "markdown", tmp_path / "r.md")
        csvp = emit_report(sdg_report, "csv", tmp_path / "r.csv")
        assert md.read_text().startswith("# Domain-generalization report")
        assert csvp.read_text().startswith("metric,method")

    def test_unknown_format(self, sdg_report, tmp_path):
        with pytest.raises(InvalidConfig):
            emit_report(sdg_report, "xml", tmp_path / "r.xml")
