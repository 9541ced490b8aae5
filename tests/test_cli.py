import contextlib
import csv
import filecmp
import functools
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kgdg
from kgdg.cli import main
from kgdg.harness import ExperimentReport
from kgdg.io import (
    LESIONS_ONLY_HEADER,
    PROBS_HEADER,
    load_feature_table,
    load_model,
    read_prediction_table,
    save_probability_table,
)
from kgdg.rules import grade_by_rules, rule_grade_as_probability
from kgdg.synth import shift_profile, write_dataset


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("clidata")
    write_dataset(shift_profile("mild", seed=0, n_samples=100), tmp)
    return tmp


class TestSynthCommand:
    def test_deterministic_directory_trees(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        assert main(["synth", "--profile", "mild", "--out", str(d1), "--seed", "7",
                     "--samples", "40", "--quiet"]) == 0
        assert main(["synth", "--profile", "mild", "--out", str(d2), "--seed", "7",
                     "--samples", "40", "--quiet"]) == 0
        names = sorted(p.name for p in d1.iterdir())
        match, mismatch, errors = filecmp.cmpfiles(d1, d2, names, shallow=False)
        assert mismatch == [] and errors == []

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("KGDG_SEED", "7")
        d1 = tmp_path / "env"
        assert main(["synth", "--profile", "mild", "--out", str(d1),
                     "--samples", "40", "--quiet"]) == 0
        d2 = tmp_path / "flag"
        monkeypatch.delenv("KGDG_SEED")
        assert main(["synth", "--profile", "mild", "--out", str(d2), "--seed", "7",
                     "--samples", "40", "--quiet"]) == 0
        names = sorted(p.name for p in d1.iterdir())
        match, mismatch, errors = filecmp.cmpfiles(d1, d2, names, shallow=False)
        assert mismatch == [] and errors == []


class TestGradeCommand:
    def test_grade_features(self, data_dir, tmp_path, capsys):
        out = tmp_path / "grades.csv"
        assert main(["grade", "--features", str(data_dir / "clinic_a_features.csv"),
                     "--out", str(out), "--quiet"]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "image_id,grade,fired_rules"
        assert len(lines) == 101

    def test_grade_detections_stdout(self, data_dir, capsys):
        assert main(["grade", "--detections", str(data_dir / "clinic_a_detections.json"),
                     "--out", "-", "--quiet"]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("image_id,grade,fired_rules")

    def test_grade_needs_an_input(self):
        assert main(["grade", "--quiet"]) == 2


class TestTrainCommand:
    def test_train_writes_artifact(self, data_dir, tmp_path):
        out = tmp_path / "model.kgdg"
        assert main(["train", "--features", str(data_dir / "clinic_a_features.csv"),
                     "--model", "gbm", "--out", str(out), "--seed", "0", "--quiet"]) == 0
        artifact = load_model(out)
        assert artifact.model_kind == "gbm"

    def test_train_missing_file_is_data_error(self, tmp_path):
        code = main(["train", "--features", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path / "m.kgdg"), "--quiet"])
        assert code == 3

    def test_negative_seed_exits_2(self, data_dir, tmp_path, capsys):
        out = tmp_path / "m.kgdg"
        assert main(["train", "--features", str(data_dir / "clinic_a_features.csv"), "--model", "logistic",
                     "--seed", "-1", "--out", str(out), "--quiet"]) == 2
        assert "INVALID_CONFIG" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("model", ["gbm", "logistic", "forest", "knn"])
    def test_header_only_table_exits_3(self, data_dir, tmp_path, capsys, model):
        features = tmp_path / "header.csv"
        features.write_text((data_dir / "clinic_a_features.csv").read_text().splitlines()[0] + "\n")
        out = tmp_path / "m.kgdg"
        assert main(["train", "--features", str(features), "--model", model, "--feature-set", "lesions_only",
                     "--out", str(out), "--quiet"]) == 3
        assert capsys.readouterr().err == "error[DATA_ERROR]: cannot train on an empty training set\n"
        assert not out.exists()

    def test_seed_precedence_flag_then_env_then_config(self, data_dir, tmp_path, monkeypatch):
        monkeypatch.delenv("KGDG_SEED", raising=False)
        config = tmp_path / "train.json"
        config.write_text(json.dumps({"symbolic": {"seed": 5}}))

        def train(name, *extra):
            out = tmp_path / name
            assert main(["train", "--features", str(data_dir / "clinic_a_features.csv"), "--model", "knn",
                         "--out", str(out), "--quiet", *extra]) == 0
            return out.read_bytes()

        seed_0, seed_5 = train("s0", "--seed", "0"), train("s5", "--seed", "5")
        assert seed_0 != seed_5
        assert train("config", "--config", str(config)) == seed_5
        assert train("flag", "--config", str(config), "--seed", "0") == seed_0
        monkeypatch.setenv("KGDG_SEED", "0")
        assert train("env", "--config", str(config)) == seed_0


@pytest.mark.parametrize("model", ["gbm", "logistic", "forest", "knn"])
class TestTrainHeldOut:
    """The held-out accuracy line is a diagnostic: --quiet skips computing it."""

    def train(self, data_dir, tmp_path, model, *extra):
        config = tmp_path / "train.json"
        config.write_text(json.dumps({"symbolic": {"n_trees": 10}}))
        out = tmp_path / f"model{len(extra)}.kgdg"
        assert main(["train", "--features", str(data_dir / "clinic_a_features.csv"), "--model", model,
                     "--seed", "0", "--config", str(config), "--out", str(out), *extra]) == 0
        return out.read_bytes()

    def test_quiet_never_scores_the_held_out_split(self, data_dir, tmp_path, monkeypatch, model):
        def unreachable(*args, **kwargs):
            raise AssertionError("held-out split scored under --quiet")

        monkeypatch.setattr("kgdg.cli.evaluate_predictions", unreachable)
        self.train(data_dir, tmp_path, model, "--quiet")

    def test_quiet_writes_the_same_artifact(self, data_dir, tmp_path, model):
        assert self.train(data_dir, tmp_path, model, "--quiet") == self.train(data_dir, tmp_path, model)

    def test_held_out_line_printed_without_quiet(self, data_dir, tmp_path, capsys, model):
        self.train(data_dir, tmp_path, model)
        assert re.search(r"^held-out accuracy \d\.\d{4}, macro F1 \d\.\d{4}$", capsys.readouterr().err, re.M)


class TestFuseCommand:
    def test_fuse_two_tables(self, data_dir, tmp_path):
        out = tmp_path / "fused.csv"
        assert main(["fuse", "--strategy", "max",
                     "--dl", str(data_dir / "clinic_a_probs.csv"),
                     "--kd", str(data_dir / "clinic_a_probs.csv"),
                     "--out", str(out), "--quiet"]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "image_id,grade,source,winning_score"
        assert len(lines) == 101

    def test_weighted_without_alpha_exits_2(self, data_dir):
        code = main(["fuse", "--strategy", "weighted",
                     "--dl", str(data_dir / "clinic_a_probs.csv"),
                     "--kd", str(data_dir / "clinic_a_probs.csv"), "--quiet"])
        assert code == 2

    def test_unknown_flag_exits_2(self, data_dir):
        with pytest.raises(SystemExit) as exc:
            main(["fuse", "--strategy", "max", "--bogus", "1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("alpha_dl,alpha_kl", [("-1", "1"), ("0", "0"), ("nan", "1"), ("5e-324", "0"), ("0", "1e-310"),
                                                   ("1e308", "1e308")])
    def test_bad_weights_exit_2(self, data_dir, capsys, alpha_dl, alpha_kl):
        code = main(["fuse", "--strategy", "weighted",
                     "--dl", str(data_dir / "clinic_a_probs.csv"),
                     "--kd", str(data_dir / "clinic_a_probs.csv"),
                     "--alpha-dl", alpha_dl, "--alpha-kl", alpha_kl, "--quiet"])
        assert code == 2
        assert "INVALID_CONFIG" in capsys.readouterr().err


class TestEvalCommand:
    def _write_config(self, data_dir, tmp_path, mode="sdg", **sections):
        config = tmp_path / "experiment.json"
        config.write_text(json.dumps({
            "mode": mode,
            "domains": {"manifest": str(data_dir / "manifest.json"), "source": "clinic_a"},
            "seeds": [0],
            "symbolic": {"n_trees": 10, "min_leaf": 2, "early_stop_patience": 3},
            "fusion": {"strategies": ["max"], "include_neural": True},
            **sections,
        }))
        return config

    def test_eval_sdg_writes_report(self, data_dir, tmp_path):
        config = self._write_config(data_dir, tmp_path)
        out = tmp_path / "report.md"
        assert main(["eval", "--config", str(config), "--out", str(out), "--quiet"]) == 0
        assert out.read_text().startswith("# Domain-generalization report")

    def test_eval_json_format(self, data_dir, tmp_path):
        config = self._write_config(data_dir, tmp_path)
        out = tmp_path / "report.json"
        assert main(["eval", "--config", str(config), "--format", "json",
                     "--out", str(out), "--quiet"]) == 0
        payload = json.loads(out.read_text())
        assert payload["mode"] == "sdg"

    def test_stderr_fingerprint_is_the_reports(self, data_dir, tmp_path, capsys, monkeypatch):
        """The stderr line names the report's fingerprint, config and data
        digests together, and each data file is hashed once."""
        import kgdg.harness

        hashed = []
        digest = kgdg.harness.file_digest
        monkeypatch.setattr(kgdg.harness, "file_digest", lambda path: hashed.append(path) or digest(path))
        config = self._write_config(data_dir, tmp_path)
        out = tmp_path / "report.json"
        assert main(["eval", "--config", str(config), "--format", "json", "--out", str(out)]) == 0
        lines = [line for line in capsys.readouterr().err.splitlines() if line.startswith("config fingerprint:")]
        assert lines == [f"config fingerprint: {json.loads(out.read_text())['config_fingerprint']}"]
        assert len(hashed) == len(set(hashed)) == 6  # three domains' features and probs

    @pytest.mark.parametrize("sections", [
        {"fusion": {"alpha_dl": -0.5, "alpha_kl": 0.5}},
        {"fusion": {"alpha_dl": "x", "alpha_kl": 0.5}},
        {"seeds": ["a"]},
        {"seeds": [-1]},
        {"fusion": {"alpha_dl": 1e308, "alpha_kl": 1e308}},
    ])
    def test_malformed_weights_and_seeds_exit_2(self, data_dir, tmp_path, capsys, sections):
        """Seeds that are not nonnegative integers exit 2. So does any fusion
        weight, whatever its value: the fusion section has no weight keys."""
        config = self._write_config(data_dir, tmp_path, **sections)
        assert main(["eval", "--config", str(config), "--out", str(tmp_path / "r.md"), "--quiet"]) == 2
        assert "INVALID_CONFIG" in capsys.readouterr().err

    @pytest.mark.parametrize("targets", [["clinic_a", "clinic_b"], ["clinic_b", "clinic_b"]])
    def test_malformed_sdg_targets_exit_2(self, data_dir, tmp_path, capsys, targets):
        config = self._write_config(data_dir, tmp_path, domains={
            "manifest": str(data_dir / "manifest.json"), "source": "clinic_a", "targets": targets})
        out = tmp_path / "r.md"
        assert main(["eval", "--config", str(config), "--out", str(out), "--quiet"]) == 2
        assert "INVALID_CONFIG" in capsys.readouterr().err
        assert not out.exists()

    def test_report_ignores_detection_files(self, data_dir, tmp_path):
        """eval reads no detections and no manifest seeds, so its report,
        fingerprint included, is the same whether each domain's detections
        file is there, garbage or missing, and whatever the manifest's
        detections and seeds entries hold."""
        manifest = json.loads((data_dir / "manifest.json").read_text())
        detections = {}  # each domain's detections, by the name the case manifests give them
        for d in manifest["domains"]:
            detections[f"{d['name']}.json"] = (data_dir / d["detections"]).read_bytes()
            d.update({k: str(data_dir / d[k]) for k in ("features", "probs")}, detections=f"{d['name']}.json")
        unread = {"domains": [{**d, "detections": 5} for d in manifest["domains"]], "seeds": ["x"]}
        reports = {}
        for case in ("present", "garbage", "missing", "unread"):
            case_dir = tmp_path / case
            case_dir.mkdir()
            (case_dir / "manifest.json").write_text(json.dumps(unread if case == "unread" else manifest))
            for name, original in detections.items() if case != "missing" else ():
                (case_dir / name).write_bytes(original if case == "present" else b"\xff[{garbage")
            config = self._write_config(data_dir, case_dir, domains={
                "manifest": str(case_dir / "manifest.json"), "source": "clinic_a"})
            out = case_dir / "report.json"
            assert main(["eval", "--config", str(config), "--format", "json", "--out", str(out), "--quiet"]) == 0
            reports[case] = out.read_bytes()
        assert reports["garbage"] == reports["missing"] == reports["unread"] == reports["present"]

    def test_gbm_without_validation_split_is_a_typed_error(self, data_dir, tmp_path):
        config = self._write_config(data_dir, tmp_path,
                                    split={"train": 0.8, "validation": 0.0, "test": 0.2})
        assert main(["eval", "--config", str(config), "--out", str(tmp_path / "r.md"), "--quiet"]) in (2, 3)

    def test_eval_without_config_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--mode", "sdg"])
        assert exc.value.code == 2

    def test_eval_csv_to_stdout_is_csv(self, data_dir, tmp_path, capsys):
        config = self._write_config(data_dir, tmp_path)
        out = tmp_path / "report.csv"
        assert main(["eval", "--config", str(config), "--format", "csv", "--out", str(out), "--quiet"]) == 0
        assert main(["eval", "--config", str(config), "--format", "csv", "--out", "-", "--quiet"]) == 0
        text = capsys.readouterr().out
        assert text.startswith("metric,method,")
        assert text == out.read_text()

    def test_eval_quiet_does_not_change_report(self, data_dir, tmp_path, capsys):
        config = self._write_config(data_dir, tmp_path)
        loud, quiet = tmp_path / "loud.md", tmp_path / "quiet.md"
        assert main(["eval", "--config", str(config), "--out", str(loud)]) == 0
        err = capsys.readouterr().err
        assert "config fingerprint:" in err
        assert main(["eval", "--config", str(config), "--out", str(quiet), "--quiet"]) == 0
        assert capsys.readouterr().err == ""
        assert loud.read_bytes() == quiet.read_bytes()


class TestMetricsCommand:
    def test_classification_metrics(self, data_dir, tmp_path, capsys):
        pred = tmp_path / "pred.csv"
        lines = ["image_id,grade"]
        import csv as _csv

        with open(data_dir / "clinic_a_features.csv", newline="") as fh:
            reader = _csv.reader(fh)
            next(reader)
            for row in reader:
                lines.append(f"{row[0]},{row[2]}")
        pred.write_text("\n".join(lines) + "\n")
        assert main(["metrics", "--truth", str(data_dir / "clinic_a_features.csv"),
                     "--pred", str(pred), "--out", "-", "--quiet"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["accuracy"] == 1.0

    def test_detection_metrics(self, data_dir, capsys):
        dets = str(data_dir / "clinic_a_detections.json")
        assert main(["metrics", "--pred-detections", dets, "--truth-detections", dets,
                     "--iou-threshold", "0.5", "--out", "-", "--quiet"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["precision"] == 1.0 and payload["recall"] == 1.0

    def test_metrics_without_inputs_exits_2(self):
        assert main(["metrics", "--quiet"]) == 2


def _detection_record(image_id, lesion="microaneurysm", x=0.1, y=0.1, score=0.9):
    return {"image_id": image_id, "lesion": lesion, "x": x, "y": y, "w": 0.05, "h": 0.05, "score": score}


class TestDetectionMetricsPerImage:
    """Detection metrics pair boxes only within one image_id."""

    def _match(self, tmp_path, capsys, pred, truth):
        paths = tmp_path / "pred.json", tmp_path / "truth.json"
        for path, records in zip(paths, (pred, truth)):
            path.write_text(json.dumps(records))
        assert main(["metrics", "--pred-detections", str(paths[0]), "--truth-detections", str(paths[1]),
                     "--out", "-", "--quiet"]) == 0
        return json.loads(capsys.readouterr().out)

    def test_same_box_in_another_image_does_not_match(self, tmp_path, capsys):
        payload = self._match(tmp_path, capsys, [_detection_record("A")], [_detection_record("B")])
        assert payload["matched_total"] == 0
        assert payload["precision"] == 0.0 and payload["recall"] == 0.0
        assert payload["matched_per_lesion"] == {"microaneurysm": 0}

    def test_counts_sum_over_images(self, tmp_path, capsys):
        pred = [_detection_record("A"), _detection_record("B", x=0.5), _detection_record("B", x=0.8)]
        truth = [_detection_record("A"), _detection_record("B", x=0.5), _detection_record("C")]
        payload = self._match(tmp_path, capsys, pred, truth)
        assert payload["matched_total"] == 2
        assert payload["precision"] == 2 / 3 and payload["recall"] == 2 / 3
        assert payload["mean_matched_iou"] == 1.0


class TestDetectionRecordWithoutImageId:
    def test_grade_exits_3(self, tmp_path, capsys):
        record = _detection_record("A")
        del record["image_id"]
        path = tmp_path / "dets.json"
        path.write_text(json.dumps([_detection_record("A"), record]))
        assert main(["grade", "--detections", str(path), "--out", "-", "--quiet"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error[DATA_ERROR]: ") and f"{path}: record 1 is malformed" in err


class TestReportCommand:
    def test_list_references(self, capsys):
        assert main(["report", "--list", "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "sdg_aptos" in out and "mdg_methods" in out

    def test_self_diff_zero(self, capsys):
        assert main(["report", "--reference-id", "sdg_aptos", "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "0 differ" in out

    def test_unknown_reference_exits_2(self):
        assert main(["report", "--reference-id", "bogus", "--quiet"]) == 2

    ONE_CELL = ExperimentReport("sdg", "clinic_a", ("clinic_b", "average"), ("symbolic",),
                                np.zeros((1, 2, 3, 1)), (0,), "0").to_json_dict()
    # every report key, but no cell or raw value for its one method
    NO_CELLS = json.dumps({**ONE_CELL, "cells": {}, "raw": {}})
    # a bare number where a list of per-seed values belongs
    NO_SEED_LIST = json.dumps({**ONE_CELL, "raw": {"symbolic": {
        column: dict.fromkeys(ExperimentReport.metrics, 0.5) for column in ("clinic_b", "average")}}})

    @pytest.mark.parametrize("text, cause", [('{"a": ', "JSONDecodeError: Expecting value"),
                                             ("{}", "KeyError: 'mode'"),
                                             ("[]", "TypeError: list indices"),
                                             (NO_CELLS, "KeyError: 'symbolic'"),
                                             (NO_SEED_LIST, "ValueError: raw holds no list of one value per seed")],
                             ids=["truncated", "empty-object", "list", "no-cells", "no-seed-list"])
    def test_input_that_is_not_a_report_exits_3(self, tmp_path, capsys, text, cause):
        path = tmp_path / "r.json"
        path.write_text(text)
        assert main(["report", "--reference-id", "sdg_aptos", "--input", str(path), "--quiet"]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error[DATA_ERROR]: {path}: not an eval --format json report: {cause}")

    def test_diff_live_report(self, data_dir, tmp_path, capsys):
        config = tmp_path / "experiment.json"
        config.write_text(json.dumps({
            "mode": "sdg",
            "domains": {"manifest": str(data_dir / "manifest.json"), "source": "clinic_a"},
            "seeds": [0],
            "symbolic": {"n_trees": 8, "min_leaf": 2, "early_stop_patience": 3},
            "fusion": {"strategies": ["max", "weighted"], "include_neural": True},
        }))
        report_path = tmp_path / "r.json"
        assert main(["eval", "--config", str(config), "--format", "json",
                     "--out", str(report_path), "--quiet"]) == 0
        assert main(["report", "--reference-id", "sdg_aptos",
                     "--input", str(report_path), "--out", "-", "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "not comparable: synthetic data" in out


class TestHelp:
    def test_help_lists_every_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for sub in ("synth", "grade", "train", "fuse", "eval", "metrics", "report"):
            assert sub in out

    def test_subcommand_help_mentions_seed_precedence(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--help"])
        assert exc.value.code == 0
        assert "KGDG_SEED" in capsys.readouterr().out


class TestFlagsASubcommandReads:
    """A subcommand takes --seed and --config only where it reads them:
    synth, train and eval take --seed; train and eval take --config."""

    @pytest.fixture
    def commands(self, data_dir, tmp_path):
        probs, detections = str(data_dir / "clinic_a_probs.csv"), str(data_dir / "clinic_a_detections.json")
        features = str(data_dir / "clinic_a_features.csv")
        return {
            "synth": ["synth", "--profile", "mild", "--samples", "10", "--out", str(tmp_path / "data")],
            "grade": ["grade", "--features", features, "--out", "-"],
            "fuse": ["fuse", "--strategy", "max", "--dl", probs, "--kd", probs, "--out", "-"],
            "metrics": ["metrics", "--pred-detections", detections, "--truth-detections", detections, "--out", "-"],
            "classify": ["metrics", "--truth", features, "--pred", features, "--out", "-"],
            "report": ["report", "--list", "--out", "-"],
            "diff": ["report", "--reference-id", "sdg_aptos", "--out", "-"],
        }

    @pytest.mark.parametrize("command, flag", [
        *((c, "--seed") for c in ("grade", "fuse", "metrics", "report")),
        *((c, "--config") for c in ("synth", "grade", "fuse", "metrics", "report")),
    ])
    def test_unread_flag_exits_2(self, commands, tmp_path, capsys, command, flag):
        config = tmp_path / "config.json"
        config.write_text("{}")
        assert main(commands[command] + ["--quiet"]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(commands[command] + [flag, "1" if flag == "--seed" else str(config), "--quiet"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize("command, extra, message", [
        ("grade", ["--detections", "clinic_a_detections.json"], "grade takes --features or --detections, not both"),
        ("metrics", ["--truth", "clinic_a_features.csv", "--pred", "clinic_a_features.csv"],
         "metrics takes --truth/--pred or --pred-detections/--truth-detections, not both"),
        ("metrics", ["--pred", "clinic_a_features.csv"],
         "metrics takes --truth/--pred or --pred-detections/--truth-detections, not both"),
        ("fuse", ["--alpha-dl", "0.6", "--alpha-kl", "0.4"], "max fusion takes no --alpha-dl or --alpha-kl"),
        ("fuse", ["--alpha-kl", "0.4"], "max fusion takes no --alpha-dl or --alpha-kl"),
        ("grade", ["--min-score", "0.3"], "grade takes --min-score only with --detections"),
        ("classify", ["--iou-threshold", "0.9"],
         "metrics takes --iou-threshold only with --pred-detections/--truth-detections"),
        ("report", ["--reference-id", "bogus"], "report --list takes no --reference-id or --input"),
        ("report", ["--input", "missing.json"], "report --list takes no --reference-id or --input"),
        ("report", ["--reference-id", "bogus", "--input", "missing.json"],
         "report --list takes no --reference-id or --input"),
    ])
    def test_flags_that_exclude_each_other_exit_2(self, commands, data_dir, capsys, command, extra, message):
        """A flag the subcommand would ignore beside another is refused, before any output."""
        extra = [str(data_dir / a) if a.endswith((".csv", ".json")) else a for a in extra]
        assert main(commands[command] + extra) == 2
        assert capsys.readouterr() == ("", f"error[INVALID_CONFIG]: {message}\n")

    @pytest.mark.parametrize("command", ["grade", "fuse", "metrics", "classify", "report", "diff"])
    def test_commands_set_by_their_flags_alone_print_no_fingerprint(self, commands, capsys, command):
        """Every setting of these commands is one of their flags, so the
        command line names the run and they print no fingerprint."""
        assert main(commands[command]) == 0
        assert capsys.readouterr().err == ""

    def test_eval_requires_config(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--quiet"])
        assert exc.value.code == 2
        assert "the following arguments are required: --config" in capsys.readouterr().err


class TestErrorMapping:
    def test_corrupt_table_exits_3(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("image_id,p0,p1,p2,p3,p4\nimg,0.9,0.9,0,0,0\n")
        code = main(["fuse", "--strategy", "max", "--dl", str(bad), "--kd", str(bad), "--quiet"])
        assert code == 3


class TestNonFiniteCells:
    @pytest.mark.parametrize("column, value", [
        ("vein_tortuosity", "nan"),
        ("vein_caliber_mean", "inf"),
        ("vein_branch_angle_mean", "NaN"),
    ])
    def test_train_rejects_non_finite_vein_cell(self, data_dir, tmp_path, capsys, column, value):
        lines = (data_dir / "clinic_a_features.csv").read_text().splitlines()
        header = lines[0].split(",")
        cells = lines[1].split(",")
        cells[header.index(column)] = value
        bad = tmp_path / "features.csv"
        bad.write_text("\n".join([lines[0], ",".join(cells)] + lines[2:]) + "\n")
        code = main(["train", "--features", str(bad), "--model", "gbm",
                     "--out", str(tmp_path / "m.kgdg"), "--quiet"])
        assert code == 3
        assert "NON_NUMERIC_CELL" in capsys.readouterr().err
        assert not (tmp_path / "m.kgdg").exists()


BAD_TOKENS = ["", " ", "nan", "inf", "-inf", "-1", "1e400", "abc", "0x1", "1.5", "3_0", '"',
              "999999999999999999999"]


class TestMalformedCells:
    """One cell of a small table replaced by a bad token, for every column:
    each command reading the table exits 0 (the token is valid there), or 2
    or 3 with an error[CODE] line; never 4."""

    ROWS = 40

    @pytest.mark.parametrize("token", BAD_TOKENS)
    def test_never_an_internal_error(self, data_dir, tmp_path, capsys, token):
        features = (data_dir / "clinic_a_features.csv").read_text().splitlines()[: self.ROWS + 1]
        probs = (data_dir / "clinic_a_probs.csv").read_text().splitlines()[: self.ROWS + 1]
        preds = ["image_id,grade,p0,p1,p2,p3,p4"] + [
            ",".join([c[0], c[2]] + ["1" if g == int(c[2]) else "0" for g in range(5)])
            for c in (line.split(",") for line in features[1:])
        ]
        paths = {}
        for name, lines in (("features", features), ("probs", probs), ("preds", preds)):
            paths[name] = tmp_path / f"{name}.csv"
            paths[name].write_text("\n".join(lines) + "\n")
        commands = {
            "features": (features, lambda bad: [["grade", "--features", bad],
                                                 ["train", "--features", bad, "--model", "knn", "--seed", "0"],
                                                 ["metrics", "--truth", bad, "--pred", str(paths["preds"])]]),
            "probs": (probs, lambda bad: [["fuse", "--strategy", "max", "--dl", bad, "--kd", str(paths["probs"])]]),
            "preds": (preds, lambda bad: [["metrics", "--truth", str(paths["features"]), "--pred", bad]]),
        }
        failures = []
        for table, (lines, argvs) in commands.items():
            header = lines[0].split(",")
            for column, name in enumerate(header):
                cells = lines[1].split(",")
                cells[column] = token
                bad = tmp_path / "bad.csv"
                bad.write_text("\n".join([lines[0], ",".join(cells)] + lines[2:]) + "\n")
                for argv in argvs(str(bad)):
                    code = main(argv + ["--out", str(tmp_path / "out"), "--quiet"])
                    err = capsys.readouterr().err
                    if code not in (0, 2, 3) or (code and not re.match(r"error\[[A-Z_]+\]: ", err)):
                        failures.append((table, name, argv[0], code, err.strip()))
        assert failures == []


class TestSingleGradeTarget:
    """SDG from clinic_a to a target that holds only grade-0 rows: AUC has
    no value there, and the JSON report must still be strict JSON."""

    @pytest.fixture
    def config(self, data_dir, tmp_path):
        rows = (data_dir / "clinic_b_features.csv").read_text().splitlines()
        grade0 = [r for r in rows[1:] if r.split(",")[2] == "0"]
        assert grade0 and len(grade0) < len(rows) - 1
        (tmp_path / "clinic_b_grade0.csv").write_text("\n".join([rows[0]] + grade0) + "\n")
        manifest = json.loads((data_dir / "manifest.json").read_text())
        for entry in manifest["domains"]:
            for key in ("features", "probs", "detections"):
                entry[key] = str(data_dir / entry[key])
            if entry["name"] == "clinic_b":
                entry["features"] = str(tmp_path / "clinic_b_grade0.csv")
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        config = tmp_path / "experiment.json"
        config.write_text(json.dumps({
            "mode": "sdg",
            "domains": {"manifest": "manifest.json", "source": "clinic_a", "targets": ["clinic_b"]},
            "seeds": [0],
            "symbolic": {"n_trees": 5, "min_leaf": 2},
        }))
        return config

    @staticmethod
    def _strict(text):
        def reject(token):
            raise ValueError(f"non-standard JSON token {token}")
        return json.loads(text, parse_constant=reject)

    def test_stdout_json_is_strict(self, config, capsys):
        assert main(["eval", "--config", str(config), "--format", "json", "--out", "-", "--quiet"]) == 0
        payload = self._strict(capsys.readouterr().out)
        assert payload["cells"]["symbolic"]["clinic_b"]["auc"][:2] == [None, None]
        assert payload["raw"]["fusion-max"]["clinic_b"]["auc"] == [None]
        assert payload["cells"]["symbolic"]["clinic_b"]["accuracy"][0] is not None

    def test_file_json_round_trips_to_nan(self, config, tmp_path):
        from kgdg.report import emit_report, load_report_json, render_markdown

        out = tmp_path / "report.json"
        assert main(["eval", "--config", str(config), "--format", "json",
                     "--out", str(out), "--quiet"]) == 0
        self._strict(out.read_text())
        report = load_report_json(out)
        auc = report.cell("symbolic", "clinic_b", "auc")
        assert auc.mean != auc.mean and auc.n_seeds == 1
        assert "nan±nan" in render_markdown(report)
        again = tmp_path / "again.json"
        emit_report(report, "json", again)
        assert again.read_bytes() == out.read_bytes()


class TestConfigSections:
    """train reads its sections through the same loader as eval."""

    @pytest.mark.parametrize("command, text", [
        *(("train", t) for t in ("{not json", "[1, 2]", json.dumps({"unknown_section": {}}))),
        ("train", json.dumps({"symbolic": [1]})),
    ])
    def test_bad_config_exits_2(self, data_dir, tmp_path, capsys, command, text):
        config = tmp_path / "bad.json"
        config.write_text(text)
        out = tmp_path / "out"
        assert main([command, "--features", str(data_dir / "clinic_a_features.csv"),
                     "--config", str(config), "--out", str(out), "--quiet"]) == 2
        assert "INVALID_CONFIG" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, section", [("train", "symbolic"), ("train", "split")])
    def test_unknown_key_rejected_as_in_eval(self, data_dir, tmp_path, capsys, command, section):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({section: {"bogus": 1}}))
        assert main([command, "--features", str(data_dir / "clinic_a_features.csv"),
                     "--config", str(config), "--out", str(tmp_path / "out"), "--quiet"]) == 2
        assert f"unknown keys in '{section}' section: ['bogus']" in capsys.readouterr().err

    def test_rules_section_is_unknown(self, data_dir, tmp_path, capsys):
        """The ladder's thresholds are fixed and grade takes no config, so no
        command reads a rules section: eval refuses one as unknown."""
        config = tmp_path / "experiment.json"
        config.write_text(json.dumps({
            "domains": {"manifest": str(data_dir / "manifest.json"), "source": "clinic_a"}, "seeds": [0],
            "symbolic": {"n_trees": 3, "min_leaf": 2, "early_stop_patience": 2}, "fusion": {"strategies": ["max"]},
            "rules": {"cws_severe_threshold": 5, "min_score": 0.25},
        }))
        out = tmp_path / "out"
        assert main(["eval", "--config", str(config), "--out", str(out), "--quiet"]) == 2
        assert capsys.readouterr().err == f"error[INVALID_CONFIG]: {config}: unknown config sections: ['rules']\n"
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [("logistic_steps", 2000), ("logistic_lr", 0.1)])
    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_logistic_step_keys_are_unknown(self, data_dir, tmp_path, capsys, command, key, value):
        """The logistic fit is a Newton solve to a tolerance, with no step
        count or rate, so setting either is a config error."""
        self._unknown_keys(data_dir, tmp_path, capsys, command, "symbolic", {key: value}, "logistic")

    @pytest.mark.parametrize("kind, key, value", [
        ("gbm", "subsample", 0.8), ("forest", "bootstrap", False), ("forest", "max_features", 2),
    ])
    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_removed_tree_keys_are_unknown(self, data_dir, tmp_path, capsys, command, kind, key, value):
        """A GBM grows every tree on all its rows and a forest draws bootstrap
        rows and isqrt(features) candidates per node, with no key to change
        either, so setting one is a config error."""
        self._unknown_keys(data_dir, tmp_path, capsys, command, "symbolic", {key: value}, kind)

    @pytest.mark.parametrize("command, section, keys", [
        ("train", "symbolic", {"class_weighting": True}),
        ("eval", "symbolic", {"class_weighting": True}),
        ("eval", "fusion", {"alpha_dl": 0.6}),
        ("eval", "fusion", {"alpha_kl": 0.4}),
        ("eval", "fusion", {"alpha_dl": 0.6, "alpha_kl": 0.4}),
    ])
    def test_removed_weight_keys_are_unknown(self, data_dir, tmp_path, capsys, command, section, keys):
        """Every learner weights its training rows alike, and eval always
        searches the weighted blend on the validation split, so setting a
        class weighting or fixed fusion weights is a config error."""
        self._unknown_keys(data_dir, tmp_path, capsys, command, section, keys)

    @staticmethod
    def _unknown_keys(data_dir, tmp_path, capsys, command, section, keys, kind="gbm"):
        """`command` with ``keys`` set in ``section`` exits 2 as unknown keys
        and writes nothing."""
        sections = {"symbolic": {"model_kind": kind}, "fusion": {"strategies": ["max"]}}
        sections[section] = {**sections[section], **keys}
        config = tmp_path / "experiment.json"
        config.write_text(json.dumps({
            "domains": {"manifest": str(data_dir / "manifest.json"), "source": "clinic_a"}, "seeds": [0], **sections,
        }))
        argv = ["train", "--features", str(data_dir / "clinic_a_features.csv")] if command == "train" else ["eval"]
        out = tmp_path / "out"
        assert main([*argv, "--config", str(config), "--out", str(out), "--quiet"]) == 2
        assert capsys.readouterr().err == f"error[INVALID_CONFIG]: unknown keys in '{section}' section: {sorted(keys)}\n"
        assert not out.exists()

    def test_train_reads_symbolic_section(self, data_dir, tmp_path):
        config = tmp_path / "train.json"
        config.write_text(json.dumps({"symbolic": {"n_trees": 3}}))
        out = tmp_path / "forest.kgdg"
        assert main(["train", "--features", str(data_dir / "clinic_a_features.csv"), "--model", "forest",
                     "--config", str(config), "--out", str(out), "--seed", "0", "--quiet"]) == 0
        assert len(load_model(out).params["trees"]) == 3


class TestOneWayInPerSetting:
    """A setting of train or eval comes from the first source that gives it:
    its flag (or KGDG_SEED, for a seed), then the config file, then the
    built-in default. So the config value alone takes effect, the flag
    alone takes effect, and the flag beats the config."""

    BASE = {
        "train": {"symbolic": {"n_trees": 3}},
        "eval": {"mode": "sdg", "domains": {"source": "clinic_a"}, "seeds": [0],
                 "symbolic": {"n_trees": 3, "min_leaf": 2, "early_stop_patience": 2},
                 "fusion": {"strategies": ["max"]}},
    }

    def _run(self, data_dir, work, monkeypatch, command, config, flag=None, value=None):
        """The bytes ``command`` writes with ``config`` merged into its small
        base config and ``flag`` (a flag or KGDG_SEED) set to ``value``."""
        sections = dict(self.BASE[command])
        for key, part in config.items():
            sections[key] = {**sections[key], **part} if isinstance(part, dict) and key in sections else part
        if command == "eval":
            sections["domains"] = {**sections["domains"], "manifest": str(data_dir / "manifest.json")}
        path = work / f"{len(list(work.iterdir()))}"
        path.with_suffix(".json").write_text(json.dumps(sections))
        argv = (["eval", "--format", "json"] if command == "eval" else
                ["train", "--features", str(data_dir / "clinic_a_features.csv")])
        monkeypatch.delenv("KGDG_SEED", raising=False)
        if flag == "KGDG_SEED":
            monkeypatch.setenv("KGDG_SEED", value)
        elif flag is not None:
            argv += [flag, value]
        assert main([*argv, "--config", str(path.with_suffix(".json")), "--out", str(path), "--quiet"]) == 0
        return path.read_bytes()

    @pytest.mark.parametrize("command, config, flag, same, other", [
        ("train", {"symbolic": {"model_kind": "forest"}}, "--model", "forest", "knn"),
        ("train", {"symbolic": {"seed": 5}}, "--seed", "5", "7"),
        ("train", {"symbolic": {"seed": 5}}, "KGDG_SEED", "5", "7"),
        ("train", {"symbolic": {"feature_set": "lesions_only"}}, "--feature-set", "lesions_only", "lesions_vein"),
        ("train", {"split": {"train": 0.8, "validation": 0.1, "test": 0.1}}, None, None, None),
        ("eval", {"mode": "mdg"}, "--mode", "mdg", "sdg"),
        ("eval", {"seeds": [1]}, "--seed", "1", "2"),
        ("eval", {"seeds": [1]}, "KGDG_SEED", "1", "2"),
    ])
    def test_config_alone_flag_alone_and_flag_over_config(self, data_dir, tmp_path, monkeypatch,
                                                          command, config, flag, same, other):
        """``flag`` set to ``same`` gives the setting ``config`` gives, and set
        to ``other`` it gives another; a split section has no flag."""
        run = functools.partial(self._run, data_dir, tmp_path, monkeypatch, command)
        by_config = run(config)
        assert by_config != run({})  # the config value alone takes effect
        if flag is not None:
            assert run({}, flag, same) == by_config  # the flag alone takes effect
            assert run(config, flag, other) == run({}, flag, other) != by_config  # the flag beats the config


class TestConfigValueTypes:
    """A config value of the wrong JSON type, or a non-finite one, is a
    config error: exit 2 naming the value, never exit 4 and never a value
    used silently."""

    def _eval(self, data_dir, tmp_path, capsys, **sections):
        """eval over a config whose sections (JSON text each, MANIFEST naming
        the manifest) replace the defaults."""
        text = {"mode": '"sdg"', "seeds": "[0]", "domains": '{"manifest": MANIFEST, "source": "clinic_a"}',
                "symbolic": '{"n_trees": 3, "min_leaf": 2, "early_stop_patience": 2}',
                "fusion": '{"strategies": ["max"]}', **sections}
        config = tmp_path / "experiment.json"
        config.write_text(("{" + ", ".join(f'"{k}": {v}' for k, v in text.items()) + "}").replace(
            "MANIFEST", json.dumps(str(data_dir / "manifest.json"))))
        code = main(["eval", "--config", str(config), "--out", str(tmp_path / "r.md"), "--quiet"])
        return code, capsys.readouterr().err

    @pytest.mark.parametrize("section, text, message", [
        ("fusion", '{"strategies": ["nope"]}', "unknown fusion strategy 'nope'"),
        ("fusion", '{"strategies": "max"}', "strategies must be a list of strings, got 'max'"),
        ("fusion", '{"include_neural": "no"}', "include_neural must be true or false, got 'no'"),
        ("fusion", '{"strategies": ["max", "max"]}', "fusion strategies ['max', 'max'] name a strategy twice"),
        ("seeds", "[0, 0]", "seeds [0, 0] name a seed twice"),
        ("symbolic", '{"n_trees": 1.5}', "n_trees must be an integer, got 1.5"),
        ("symbolic", '{"early_stop_patience": 1.5}', "early_stop_patience must be an integer, got 1.5"),
        ("symbolic", '{"k_neighbors": 2.0}', "k_neighbors must be an integer, got 2.0"),
        ("symbolic", '{"max_depth": 2.5}', "max_depth must be an integer, got 2.5"),
        ("symbolic", '{"n_trees": 1e400}', "n_trees must be an integer, got inf"),
        ("symbolic", '{"l2_leaf": NaN}', "l2_leaf must be a finite number, got nan"),
        ("symbolic", '{"l2_leaf": Infinity}', "l2_leaf must be a finite number, got inf"),
        ("split", '{"train": NaN, "validation": 0.2, "test": 0.2}', "train must be a finite number, got nan"),
        ("alignment", '"false"', "alignment must be true or false, got 'false'"),
        ("mode", '["sdg"]', "mode must be a string, got ['sdg']"),
        ("domains", '{"manifest": 5}', "the domains section must point at a manifest"),
        ("domains", '["manifest"]', "the domains section must point at a manifest"),
        ("domains", '{"manifest": MANIFEST, "source": "clinic_a", "targets": "clinic_b"}',
         "targets must be a list of strings, got 'clinic_b'"),
        ("domains", '{"manifest": MANIFEST, "source": "clinic_a", "targets": []}',
         "targets must be null (every other domain) or a nonempty list, got []"),
        ("domains", '{"manifest": MANIFEST, "source": ["clinic_a"]}', "source must be a string, got ['clinic_a']"),
        ("domains", '{"manifest": MANIFEST, "source": "clinic_a", "target": ["clinic_b"]}',
         "unknown keys in 'domains' section: ['target']"),
    ])
    def test_eval_exits_2(self, data_dir, tmp_path, capsys, section, text, message):
        code, err = self._eval(data_dir, tmp_path, capsys, **{section: text})
        assert code == 2 and re.fullmatch(rf"error\[INVALID_CONFIG\]: ([^\n]*: )?{re.escape(message)}\n", err), err

    @pytest.mark.parametrize("command, text, message", [
        ("train", '{"symbolic": {"n_trees": 1.5}}', "n_trees must be an integer, got 1.5"),
        ("train", '{"symbolic": {"learning_rate": NaN}}', "learning_rate must be a finite number, got nan"),
        ("train", '{"split": {"train": 0.5, "validation": 0.2, "test": 0.2}}', "split fractions must sum to 1"),
    ])
    def test_section_config_exits_2(self, data_dir, tmp_path, capsys, command, text, message):
        config = tmp_path / "section.json"
        config.write_text(text)
        code = main([command, "--features", str(data_dir / "clinic_a_features.csv"), "--config", str(config),
                     "--out", str(tmp_path / "out"), "--quiet"])
        assert (code, capsys.readouterr().err) == (2, f"error[INVALID_CONFIG]: {message}\n")

    @pytest.mark.parametrize("flags, env, message", [
        (["--samples", "100000000000000000000"], None,
         "n_samples must be an integer below 2**63, got 100000000000000000000"),
        (["--samples", str(2**63)], None, f"n_samples must be an integer below 2**63, got {2**63}"),
        (["--seed", "-1"], None, "seed must be a nonnegative integer, got -1"),
        ([], "-3", "seed must be a nonnegative integer, got -3"),
    ])
    def test_synth_numeric_flags_exit_2(self, tmp_path, capsys, monkeypatch, flags, env, message):
        """A sample count past int64 or a negative seed is refused before any row is drawn."""
        monkeypatch.delenv("KGDG_SEED", raising=False)
        if env is not None:
            monkeypatch.setenv("KGDG_SEED", env)
        out = tmp_path / "data"
        code = main(["synth", "--profile", "mild", "--samples", "10", *flags, "--out", str(out), "--quiet"])
        assert (code, capsys.readouterr().err) == (2, f"error[INVALID_CONFIG]: {message}\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["synth", "train", "eval"])
    def test_empty_env_seed_exits_2(self, data_dir, tmp_path, capsys, monkeypatch, command):
        """KGDG_SEED is set when it is present, so every command that reads
        it, eval included, refuses an empty value."""
        monkeypatch.setenv("KGDG_SEED", "")
        if command == "eval":
            code, err = self._eval(data_dir, tmp_path, capsys)
        else:
            argv = {"synth": ["synth", "--profile", "mild", "--samples", "10"],
                    "train": ["train", "--features", str(data_dir / "clinic_a_features.csv")]}[command]
            code, err = main([*argv, "--out", str(tmp_path / "out"), "--quiet"]), capsys.readouterr().err
        assert (code, err) == (2, "error[INVALID_CONFIG]: KGDG_SEED='' is not an integer\n")

    @pytest.mark.parametrize("score", ["2", "-0.5", "nan"])
    def test_grade_min_score_exits_2(self, data_dir, tmp_path, capsys, score):
        """A detection score cut outside [0,1] is refused before any output."""
        out = tmp_path / "grades.csv"
        code = main(["grade", "--detections", str(data_dir / "clinic_a_detections.json"), "--min-score", score,
                     "--out", str(out)])
        message = f"error[INVALID_CONFIG]: min_score={float(score)!r} outside [0,1]\n"
        assert (code, capsys.readouterr().err) == (2, message)
        assert not out.exists()

    @pytest.mark.parametrize("threshold", ["2", "-0.5", "nan"])
    def test_metrics_iou_threshold_exits_2(self, data_dir, tmp_path, capsys, threshold):
        dets = str(data_dir / "clinic_a_detections.json")
        code = main(["metrics", "--pred-detections", dets, "--truth-detections", dets, "--iou-threshold", threshold,
                     "--out", str(tmp_path / "m.json"), "--quiet"])
        assert (code, capsys.readouterr().err) == (2, f"error[INVALID_CONFIG]: iou_threshold={float(threshold)!r} "
                                                      "outside [0,1]\n")

    def test_metrics_iou_threshold_exits_2_before_reading(self, tmp_path, capsys):
        """The threshold is checked before either detections file is read,
        as grade checks --min-score, so missing files do not turn it into an
        IO error (exit 3)."""
        missing = str(tmp_path / "missing.json")
        code = main(["metrics", "--pred-detections", missing, "--truth-detections", missing, "--iou-threshold", "2",
                     "--out", str(tmp_path / "m.json"), "--quiet"])
        assert (code, capsys.readouterr().err) == (2, "error[INVALID_CONFIG]: iou_threshold=2.0 outside [0,1]\n")


class TestPredictionTable:
    """`metrics --pred` finds its columns by name and rejects bad rows."""

    def _metrics(self, data_dir, tmp_path, header, row, extra=()):
        rows = (data_dir / "clinic_a_features.csv").read_text().splitlines()[1:]
        pred = tmp_path / "pred.csv"
        pred.write_text("\n".join([header] + [row(r.split(",")) for r in rows] + list(extra)) + "\n")
        return main(["metrics", "--truth", str(data_dir / "clinic_a_features.csv"),
                     "--pred", str(pred), "--out", "-", "--quiet"])

    def test_non_integer_grade_exits_3(self, data_dir, tmp_path, capsys):
        assert self._metrics(data_dir, tmp_path, "image_id,grade", lambda c: f"{c[0]},x") == 3
        assert "NON_NUMERIC_CELL" in capsys.readouterr().err

    def test_duplicate_image_id_exits_3(self, data_dir, tmp_path, capsys):
        first = (data_dir / "clinic_a_features.csv").read_text().splitlines()[1].split(",")[0]
        code = self._metrics(data_dir, tmp_path, "image_id,grade", lambda c: f"{c[0]},{c[2]}",
                             extra=[f"{first},0"])
        assert code == 3
        assert "DUPLICATE_IMAGE_ID" in capsys.readouterr().err

    def test_probability_columns_found_by_name(self, data_dir, tmp_path, capsys):
        def row(cells):
            p = ["1" if g == int(cells[2]) else "0" for g in range(5)]
            return ",".join([cells[0], "deep", p[0], p[1], cells[2], p[2], p[3], p[4]])

        assert self._metrics(data_dir, tmp_path, "image_id,source,p0,p1,grade,p2,p3,p4", row) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["accuracy"] == 1.0 and payload["auc_ovr_macro"] == 1.0


class TestDigitGrouping:
    """int() and float() read '0_3' as 3 and '0_2.5' as 2.5; no numeric cell
    of a features, probs or prediction table does (exit 3, NON_NUMERIC_CELL,
    naming the row and, where the table's messages do, the column)."""

    FEATURE_COLUMNS = ("grade", "microaneurysm_count", "exudate_count", "hard_hemorrhage_count",
                       "soft_hemorrhage_count", "cotton_wool_count", "hemorrhage_quadrants",
                       "vein_tortuosity", "vein_caliber_mean", "vein_branch_angle_mean")

    @staticmethod
    def _grouped(source, tmp_path, column):
        lines = source.read_text().splitlines()
        cells = lines[1].split(",")
        i = lines[0].split(",").index(column)
        cells[i] = "0_" + cells[i]
        bad = tmp_path / source.name
        bad.write_text("\n".join([lines[0], ",".join(cells)] + lines[2:]) + "\n")
        return str(bad)

    def _assert_rejected(self, argv, tmp_path, capsys, message):
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out), "--quiet"]) == 3, argv
        err = capsys.readouterr().err
        assert err.startswith("error[NON_NUMERIC_CELL]: ") and message in err, err
        assert not out.exists()

    @pytest.mark.parametrize("column", FEATURE_COLUMNS)
    def test_feature_cells(self, data_dir, tmp_path, capsys, column):
        bad = self._grouped(data_dir / "clinic_a_features.csv", tmp_path, column)
        preds = tmp_path / "preds.csv"
        rows = [r.split(",") for r in (data_dir / "clinic_a_features.csv").read_text().splitlines()[1:]]
        preds.write_text("image_id,grade\n" + "".join(f"{r[0]},{r[2]}\n" for r in rows))
        for argv in (["grade", "--features", bad], ["train", "--features", bad, "--model", "knn"],
                     ["metrics", "--truth", bad, "--pred", str(preds)]):
            self._assert_rejected(argv, tmp_path, capsys, f"row 2, column {column!r}: '0_")

    @pytest.mark.parametrize("column", ["p0", "p1", "p2", "p3", "p4"])
    def test_probability_cells(self, data_dir, tmp_path, capsys, column):
        good = str(data_dir / "clinic_a_probs.csv")
        bad = self._grouped(data_dir / "clinic_a_probs.csv", tmp_path, column)
        self._assert_rejected(["fuse", "--strategy", "max", "--dl", bad, "--kd", good], tmp_path, capsys,
                              "row 2 has a non-numeric probability")

    def test_prediction_grade(self, data_dir, tmp_path, capsys):
        features = data_dir / "clinic_a_features.csv"
        rows = [r.split(",") for r in features.read_text().splitlines()[1:]]
        preds = tmp_path / "preds.csv"
        preds.write_text("image_id,grade\n" + "".join(f"{r[0]},{r[2]}\n" for r in rows))
        (tmp_path / "bad").mkdir()
        bad = self._grouped(preds, tmp_path / "bad", "grade")
        self._assert_rejected(["metrics", "--truth", str(features), "--pred", bad], tmp_path, capsys,
                              "row 2, column 'grade': '0_")


class TestEmptyProbabilityId:
    def test_fuse_rejects_blank_image_id(self, tmp_path, capsys):
        table = tmp_path / "probs.csv"
        table.write_text("image_id,p0,p1,p2,p3,p4\n ,0.1,0.2,0.3,0.2,0.2\n")
        assert main(["fuse", "--strategy", "max", "--dl", str(table), "--kd", str(table),
                     "--out", str(tmp_path / "fused.csv"), "--quiet"]) == 3
        assert capsys.readouterr().err.strip() == f"error[NON_NUMERIC_CELL]: {table}: row 2 has an empty image_id"
        assert not (tmp_path / "fused.csv").exists()


class TestDetectionFieldTypes:
    """image_id is a JSON string and x, y, w, h and score are JSON numbers;
    anything else names its record (exit 3)."""

    @pytest.mark.parametrize("field,value", [("image_id", ["a", 1]), ("image_id", 7), ("image_id", None),
                                             ("x", "0.5"), ("y", False), ("w", True), ("score", None),
                                             ("h", [0.1]), ("x", 10**400)])
    def test_grade_exits_3(self, tmp_path, capsys, field, value):
        path = tmp_path / "dets.json"
        path.write_text(json.dumps([_detection_record("A"), dict(_detection_record("B"), **{field: value})]))
        assert main(["grade", "--detections", str(path), "--out", str(tmp_path / "g.csv"), "--quiet"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error[DATA_ERROR]: ") and f"{path}: record 1 is malformed" in err
        assert not (tmp_path / "g.csv").exists()

    def test_integer_cells_are_numbers(self, tmp_path):
        path = tmp_path / "dets.json"
        path.write_text(json.dumps([dict(_detection_record("A"), x=0, y=0, score=1)]))
        assert main(["grade", "--detections", str(path), "--out", str(tmp_path / "g.csv"), "--quiet"]) == 0


class TestDetectionIdsStripped:
    """Detection image ids are stripped, as every table reader strips them."""

    def test_padded_ids_are_one_image(self, tmp_path):
        dets, out = tmp_path / "dets.json", tmp_path / "g.csv"
        dets.write_text(json.dumps([_detection_record(" a"), _detection_record("a", lesion="neovascularization")]))
        assert main(["grade", "--detections", str(dets), "--out", str(out), "--quiet"]) == 0
        assert out.read_text() == "image_id,grade,fired_rules\na,4,R1\n"
        assert read_prediction_table(out)[0] == ("a",)

    def test_blank_id_names_the_record(self, tmp_path, capsys):
        dets = tmp_path / "dets.json"
        dets.write_text(json.dumps([_detection_record("a"), _detection_record("  ")]))
        assert main(["grade", "--detections", str(dets), "--out", str(tmp_path / "g.csv"), "--quiet"]) == 3
        assert capsys.readouterr().err == f"error[DATA_ERROR]: {dets}: record 1 has an empty image_id\n"


class TestNonUtf8Input:
    """A file that is not UTF-8 is a data error naming the file (exit 3)."""

    def _check(self, argv, path, capsys):
        assert main(argv + ["--out", str(path.parent / "out"), "--quiet"]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error[DATA_ERROR]: {path}: not UTF-8 text: ") and err.count("\n") == 1, err

    @staticmethod
    def _with_ff(source, target, after=b"\n"):
        data = source.read_bytes()
        at = data.index(after) + len(after)
        target.write_bytes(data[:at] + b"\xff" + data[at:])
        return target

    def test_features(self, data_dir, tmp_path, capsys):
        features = self._with_ff(data_dir / "clinic_a_features.csv", tmp_path / "features.csv")
        self._check(["grade", "--features", str(features)], features, capsys)

    def test_probs(self, data_dir, tmp_path, capsys):
        probs = self._with_ff(data_dir / "clinic_a_probs.csv", tmp_path / "probs.csv")
        self._check(["fuse", "--strategy", "max", "--dl", str(probs), "--kd", str(probs)], probs, capsys)

    def test_detections(self, data_dir, tmp_path, capsys):
        dets = self._with_ff(data_dir / "clinic_a_detections.json", tmp_path / "dets.json", b'"image_id": "')
        self._check(["grade", "--detections", str(dets)], dets, capsys)

    def test_manifest(self, data_dir, tmp_path, capsys):
        manifest = self._with_ff(data_dir / "manifest.json", tmp_path / "manifest.json", b'"name": "')
        config = tmp_path / "experiment.json"
        config.write_text(json.dumps({"mode": "sdg", "domains": {"manifest": str(manifest), "source": "clinic_a"}}))
        self._check(["eval", "--config", str(config)], manifest, capsys)


class TestOverlongCell:
    def test_names_the_file(self, tmp_path, capsys):
        probs = tmp_path / "probs.csv"
        probs.write_text("image_id,p0,p1,p2,p3,p4\n" + "x" * (csv.field_size_limit() + 1) + ",0.2,0.2,0.2,0.2,0.2\n")
        assert main(["fuse", "--strategy", "max", "--dl", str(probs), "--kd", str(probs), "--quiet"]) == 3
        assert capsys.readouterr().err == (
            f"error[DATA_ERROR]: {probs}: line 2: field larger than field limit ({csv.field_size_limit()})\n")


def _unwritable_id(image_id):
    return any(c in ',"\r\n' or 0xD800 <= ord(c) <= 0xDFFF for c in image_id)


def _write_csv(path, header, row):
    with path.open("w", newline="") as fh:
        csv.writer(fh).writerows([header, row])


class TestImageIdText:
    """Every reader strips image ids. An id that is then empty, or that no
    writer can put in a CSV cell unquoted, is rejected at ingest (exit 3);
    any other id comes back, stripped, from the readers of the grade and
    fuse outputs. Nothing exits 4."""

    def _run(self, argv, out):
        code = main(argv + ["--out", str(out), "--quiet"])
        assert code in (0, 3), argv
        return code

    def _read_back(self, code, rejected, out, image_id):
        assert code == (3 if rejected else 0), (image_id, code)
        if code == 0:
            assert read_prediction_table(out)[0] == (image_id.strip(),)

    @settings(max_examples=150, deadline=None)
    @given(st.text(st.characters(exclude_categories=()), max_size=8)
           | st.sampled_from(["img,1", 'a"b', "a\r\nb", " a\n", "%s", "{}", "\ud800"]))
    @example("img,1")
    def test_grade_and_fuse(self, tmp_path_factory, image_id):
        tmp = tmp_path_factory.mktemp("ids")
        dets, out = tmp / "dets.json", tmp / "out.csv"
        stripped = image_id.strip()
        rejected = not stripped or _unwritable_id(stripped)
        dets.write_text(json.dumps([dict(_detection_record(image_id), lesion="neovascularization")]))
        self._read_back(self._run(["grade", "--detections", str(dets)], out), rejected, out, image_id)
        try:
            image_id.encode("utf-8")
        except UnicodeEncodeError:
            return  # no UTF-8 table holds this id
        features, probs = tmp / "features.csv", tmp / "probs.csv"
        _write_csv(features, LESIONS_ONLY_HEADER, [image_id, "d", "4", "0", "0", "0", "0", "0", "0", "1", "0"])
        _write_csv(probs, PROBS_HEADER, [image_id, "0.1", "0.2", "0.3", "0.2", "0.2"])
        self._read_back(self._run(["grade", "--features", str(features)], out), rejected, out, image_id)
        if not rejected:
            assert self._run(["metrics", "--truth", str(features), "--pred", str(out)], tmp / "m.json") == 0
        fused = tmp / "fused.csv"
        self._read_back(self._run(["fuse", "--strategy", "max", "--dl", str(probs), "--kd", str(probs)], fused),
                        rejected, fused, image_id)

    def test_quoted_comma_names_the_row(self, tmp_path, capsys):
        features = tmp_path / "features.csv"
        _write_csv(features, LESIONS_ONLY_HEADER, ["img,1", "d", "2", "3", "0", "0", "0", "0", "0", "0", "0"])
        assert main(["grade", "--features", str(features), "--out", str(tmp_path / "g.csv"), "--quiet"]) == 3
        assert capsys.readouterr().err.strip() == (
            f"error[DATA_ERROR]: {features}: row 2 has image_id 'img,1', which holds a comma, quote, "
            f"line break or lone surrogate")


SERVE_STRATEGIES = ("selective", "max", "classwise", "weighted")


def serve_digests(work):
    """sha256 of every output of the serve command set (grade from detections
    and features, fuse under each strategy, metrics on the fused tables and
    the feature grades) on synth vein_hostile seed 7, 150 rows per domain."""
    data = work / "data"
    write_dataset(shift_profile("vein_hostile", seed=7, n_samples=150), data)
    digests = {}
    for d in ("clinic_a", "clinic_b", "clinic_c"):
        features, probs = data / f"{d}_features.csv", data / f"{d}_probs.csv"
        knowledge = work / f"{d}_rules_probs.csv"
        save_probability_table(knowledge, {ex.image_id: rule_grade_as_probability(grade_by_rules(ex.features))
                                           for ex in load_feature_table(features)})
        commands = {
            "grades_det.csv": ["grade", "--detections", str(data / f"{d}_detections.json")],
            "grades_feat.csv": ["grade", "--features", str(features)],
        }
        for s in SERVE_STRATEGIES:
            weights = ["--alpha-dl", "0.6", "--alpha-kl", "0.4"] if s == "weighted" else []
            commands[f"fused_{s}.csv"] = ["fuse", "--strategy", s, "--dl", str(probs), "--kd", str(knowledge), *weights]
        for name in ["grades_feat.csv"] + [f"fused_{s}.csv" for s in SERVE_STRATEGIES]:
            commands[name.replace(".csv", ".score.json")] = ["metrics", "--truth", str(features),
                                                            "--pred", str(work / f"{d}_{name}")]
        for name, argv in commands.items():
            out = work / f"{d}_{name}"
            assert main(argv + ["--out", str(out), "--quiet"]) == 0, name
            digests[f"{d}_{name}"] = hashlib.sha256(out.read_bytes()).hexdigest()
    return digests


class TestServeOutputsPinned:
    """The serve commands write the bytes they wrote before their inputs were
    read as columns (digests recorded with the per-row loaders)."""

    PINNED = {
        "clinic_a_grades_det.csv": "084f44dbf252dde5e9684bdc9acf1bfed97d4c5d914ac05fb2d605102aae8e2a",
        "clinic_a_grades_feat.csv": "0c77970ed1a77f87a48ccc34e6d13e3c1834b6d6ec73ad811ea7f6b93f7f338c",
        "clinic_a_fused_selective.csv": "7db7e6f2f71bfd4904edfa236ab343d86d836a12c2dadc50204a51965d74883b",
        "clinic_a_fused_max.csv": "7db7e6f2f71bfd4904edfa236ab343d86d836a12c2dadc50204a51965d74883b",
        "clinic_a_fused_classwise.csv": "7db7e6f2f71bfd4904edfa236ab343d86d836a12c2dadc50204a51965d74883b",
        "clinic_a_fused_weighted.csv": "fcfa86df4cc3016aaea99f00816c6cebcf416e4fc7e99acf5c96b521b0529db9",
        "clinic_a_grades_feat.score.json": "19f8b56fdd98dad1d08dfdbf4b60134e5a7beb9148cc1ce256d9874afa523a11",
        "clinic_a_fused_selective.score.json": "2a016e0d4f963f611f3b2ad6137d9360a24629319167cf4120fd12c2e60f77b9",
        "clinic_a_fused_max.score.json": "2a016e0d4f963f611f3b2ad6137d9360a24629319167cf4120fd12c2e60f77b9",
        "clinic_a_fused_classwise.score.json": "2a016e0d4f963f611f3b2ad6137d9360a24629319167cf4120fd12c2e60f77b9",
        "clinic_a_fused_weighted.score.json": "b50b194443d511625da8829a8c12a97404ed2ba708874cbf5f146e398824f4a0",
        "clinic_b_grades_det.csv": "e6c83fadd56e2ba85a618b411fb640349a11454335eea2d420bae61bcebaca95",
        "clinic_b_grades_feat.csv": "516d3409353c2ff76e0fa5aba669cc0ecee89ef82e8c63a725d8bde712177fa8",
        "clinic_b_fused_selective.csv": "2fe0af8496fd0e5dd050847c51bb5d2bbcdceb38d80192390ded7186bdfe4a96",
        "clinic_b_fused_max.csv": "2fe0af8496fd0e5dd050847c51bb5d2bbcdceb38d80192390ded7186bdfe4a96",
        "clinic_b_fused_classwise.csv": "2fe0af8496fd0e5dd050847c51bb5d2bbcdceb38d80192390ded7186bdfe4a96",
        "clinic_b_fused_weighted.csv": "6ce3592195f5d05fe2660714126be12eed06d1012439fa887d5ac2b5aac82609",
        "clinic_b_grades_feat.score.json": "753b021fb2bf07d63dd3774162d34e22d6022e431b5ced0ee4fcf652ff6049a7",
        "clinic_b_fused_selective.score.json": "753b021fb2bf07d63dd3774162d34e22d6022e431b5ced0ee4fcf652ff6049a7",
        "clinic_b_fused_max.score.json": "753b021fb2bf07d63dd3774162d34e22d6022e431b5ced0ee4fcf652ff6049a7",
        "clinic_b_fused_classwise.score.json": "753b021fb2bf07d63dd3774162d34e22d6022e431b5ced0ee4fcf652ff6049a7",
        "clinic_b_fused_weighted.score.json": "753b021fb2bf07d63dd3774162d34e22d6022e431b5ced0ee4fcf652ff6049a7",
        "clinic_c_grades_det.csv": "0f47ef549d486a36da8bdc3b6f9fc4b2d9d93fd58770bd74987772b9d578fe8d",
        "clinic_c_grades_feat.csv": "b047bca33717c60d33e902fc01b0b7b5854ac43e81140fa706833c987e93ed2f",
        "clinic_c_fused_selective.csv": "685223230b74f215a7c9433fe25d697744626eaa8d14254ee9ef01e12ca66356",
        "clinic_c_fused_max.csv": "685223230b74f215a7c9433fe25d697744626eaa8d14254ee9ef01e12ca66356",
        "clinic_c_fused_classwise.csv": "685223230b74f215a7c9433fe25d697744626eaa8d14254ee9ef01e12ca66356",
        "clinic_c_fused_weighted.csv": "6563ba81763a6200559add36858cea8dbf88156982d530e0d60b593bf5959672",
        "clinic_c_grades_feat.score.json": "fbf05292ed232caa7b79f035e067524762c8ea46e0b12a9d870f157a243e7a9d",
        "clinic_c_fused_selective.score.json": "fbf05292ed232caa7b79f035e067524762c8ea46e0b12a9d870f157a243e7a9d",
        "clinic_c_fused_max.score.json": "fbf05292ed232caa7b79f035e067524762c8ea46e0b12a9d870f157a243e7a9d",
        "clinic_c_fused_classwise.score.json": "fbf05292ed232caa7b79f035e067524762c8ea46e0b12a9d870f157a243e7a9d",
        "clinic_c_fused_weighted.score.json": "fbf05292ed232caa7b79f035e067524762c8ea46e0b12a9d870f157a243e7a9d",
    }

    def test_output_bytes_pinned(self, tmp_path):
        assert serve_digests(tmp_path) == self.PINNED


def detection_metrics_digests(work):
    """sha256 of `kgdg metrics --pred-detections` on synth vein_hostile, 150
    rows per domain: clinic_a (seed 7) against itself, and against clinic_a
    of seed 8, whose image ids are the same and whose boxes differ, at three
    IoU thresholds."""
    for seed in (7, 8):
        write_dataset(shift_profile("vein_hostile", seed=seed, n_samples=150), work / f"seed{seed}")
    pred, other = work / "seed7" / "clinic_a_detections.json", work / "seed8" / "clinic_a_detections.json"
    runs = {"self": (pred, "0.5"), "seed8_0.0": (other, "0.0"), "seed8_0.1": (other, "0.1"), "seed8_0.5": (other, "0.5")}
    digests = {}
    for name, (truth, threshold) in runs.items():
        out = work / f"{name}.json"
        assert main(["metrics", "--pred-detections", str(pred), "--truth-detections", str(truth),
                     "--iou-threshold", threshold, "--out", str(out), "--quiet"]) == 0, name
        digests[name] = hashlib.sha256(out.read_bytes()).hexdigest()
    return digests


class TestDetectionMetricsPinned:
    """Detection matching writes the bytes it wrote when it walked Detection
    lists (digests recorded with the per-image loop). At threshold 0.0 the
    seed-8 run matches 865 pairs with mean IoU 0.0041, at 0.5 one pair."""

    PINNED = {
        "self": "68b481f999c961aec952b368913c79c70620fba63b0fdaa37abc117c0fa1eb56",
        "seed8_0.0": "9cca869250b6bce37b6d3a3baf2df23f7e59886b6fcb23e3abdff05297433e4f",
        "seed8_0.1": "46ccb7f35562a972e41900aee443148cfe50a8f1e7becb1e2114eb02659265ff",
        "seed8_0.5": "29f49e6d7246ff352aec8e4129979fbc1651c77a447aa079d8f7975cb7d515cc",
    }

    def test_output_bytes_pinned(self, tmp_path):
        assert detection_metrics_digests(tmp_path) == self.PINNED


def train_digests(work):
    """sha256 of the artifact `kgdg train` writes for each learner on each
    domain of synth vein_hostile seed 7, 200 rows per domain, with the GBM
    and the forest at 10 trees."""
    data, config = work / "data", work / "train.json"
    assert main(["synth", "--profile", "vein_hostile", "--seed", "7", "--samples", "200",
                 "--out", str(data), "--quiet"]) == 0
    config.write_text(json.dumps({"symbolic": {"n_trees": 10}}))
    digests = {}
    for d in ("clinic_a", "clinic_b", "clinic_c"):
        for m in ("gbm", "logistic", "forest", "knn"):
            out = work / f"{d}_{m}.kgdg"
            assert main(["train", "--features", str(data / f"{d}_features.csv"), "--model", m, "--seed", "0",
                         "--config", str(config), "--out", str(out), "--quiet"]) == 0, out.name
            digests[out.name] = hashlib.sha256(out.read_bytes()).hexdigest()
    return digests


class TestTrainArtifactsPinned:
    """`kgdg train` writes these artifact bytes. Re-recorded when
    `subsample`, `bootstrap` and `max_features` left the config, and when
    `class_weighting` left it, and when the fingerprint came to hash only
    the fields each learner reads (and the GBM's validation rows): each time
    only every `train_fingerprint` moved, and no param moved."""

    PINNED = {
        "clinic_a_gbm.kgdg": "d4d2599ce00e41bab9b28b6f09f5eca798c2080ae8f4c4139e7bd10822bed1f4",
        "clinic_a_logistic.kgdg": "4c6e8c71cda6142e2d546120acd217b1caaa70783b9f6393798f8a4a3248cae0",
        "clinic_a_forest.kgdg": "7f54e38ad9b8ae6942ad17342e7667fea7973351a3ef659dd83b28b7ec25b509",
        "clinic_a_knn.kgdg": "3fc906f3b1edc99819703fe5bc0aa15587f8eb0da55e60a3fc02ec54d179b72a",
        "clinic_b_gbm.kgdg": "b6d20e375be3128e4be33514e214b1d1e58bd45110c789efdb337554a180b4fa",
        "clinic_b_logistic.kgdg": "3440534ac493470042dc082c3202ea64d203db54431ce125461760d8de0d0954",
        "clinic_b_forest.kgdg": "c2195437d145512b6d50ab137a300b32f578949737e7d76bc0fca0dceb6b7da4",
        "clinic_b_knn.kgdg": "425e92b13291de8c57f61097bfeb60242b859aaeaad8dae14ec65d3524d01c92",
        "clinic_c_gbm.kgdg": "84ce7c953e8c125bddf128d690ab7c79d54056612f897f98e19706a3006cf36d",
        "clinic_c_logistic.kgdg": "3987065d60b1ee6e855917a65968ac6ce441dc14ee2482dd7daecff174a804cc",
        "clinic_c_forest.kgdg": "a0b77eaee8fa1ae13eed69654ed6c4309e54fd75bd98ced4d8608eb656dab39a",
        "clinic_c_knn.kgdg": "cd91435906f6811ed797ee5ba3ad42b65ebf39b37cd113bcc94518dcc533bd45",
    }

    def test_artifact_bytes_pinned(self, tmp_path):
        assert train_digests(tmp_path) == self.PINNED


def test_logistic_artifact_bytes_do_not_depend_on_blas_threads(tmp_path):
    """The logistic fit's Newton solve runs through BLAS and LAPACK, and a
    threaded BLAS product can round differently; `kgdg train --model
    logistic` writes the same bytes with one BLAS thread as with the
    library's default count (synth vein_hostile seed 7, 2000 rows)."""
    data = tmp_path / "data"
    assert main(["synth", "--profile", "vein_hostile", "--seed", "7", "--samples", "2000",
                 "--out", str(data), "--quiet"]) == 0
    written = []
    for threads in ("1", None):
        env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
        env["PYTHONPATH"] = str(Path(kgdg.__file__).resolve().parents[1])
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = threads
        out = tmp_path / f"threads_{threads}.kgdg"
        done = subprocess.run([sys.executable, "-m", "kgdg.cli", "train", "--features",
                               str(data / "clinic_a_features.csv"), "--model", "logistic", "--seed", "0",
                               "--out", str(out), "--quiet"], env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        written.append(out.read_bytes())
    assert written[0] == written[1]


# --- ingest fuzz: mutated bytes of every input kind through the CLI ----------------------

FUZZ_TOKENS = [b"", b" ", b"nan", b"inf", b"-1", b"1e400", b"abc", b"3_0", b'"', b'"a,b"', b"\xff", b"\xc3(",
               b"\x00", b"null", b"true", b"[]", b"{}", b"999999999999999999999", b"0.5", b"\r\n", b"2", b"-inf"]
# byte mutations of any file, then mutations of one value of a JSON file
MUTATIONS = ("token", "truncate", "0xff", "blank", "drop", "retype", "nonfinite", "listify", "unknown")
WRONG_TYPES = ["x", True, None, [], {}, 1.5, 7]
NON_FINITE = ["NaN", "Infinity", "-Infinity", "1e400"]


def mutate_json(data, kind, at):
    """``data`` with one JSON value dropped, given a wrong type, made
    non-finite or a list made a string, or an unknown key added to an
    object; data that is no JSON is kept."""
    try:
        root = json.loads(data)
    except ValueError:
        return data
    slots = []  # (container, key) of every value under the root

    def walk(node):
        for key, value in node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ():
            slots.append((node, key))
            walk(value)

    walk(root)
    if kind == "unknown":
        objects = [node for node in [root] + [c[k] for c, k in slots] if isinstance(node, dict)]
        if objects:
            objects[at % len(objects)]["bogus"] = 1
    elif kind == "listify":
        lists = [(c, k) for c, k in slots if isinstance(c[k], list)]
        if lists:
            c, k = lists[at % len(lists)]
            c[k] = str(c[k][0]) if c[k] else "x"
    elif slots:
        c, k = slots[at % len(slots)]
        if kind == "drop":
            del c[k]
        else:
            c[k] = WRONG_TYPES[at % len(WRONG_TYPES)] if kind == "retype" else "__non_finite__"
    return json.dumps(root, indent=1).replace('"__non_finite__"', NON_FINITE[at % len(NON_FINITE)]).encode()


def mutate(data, mutations):
    """``data`` with each mutation applied in turn: a token (a CSV cell, a JSON
    key or value) replaced, a truncation, a 0xff byte, a blank line, or a
    mutation of one JSON value (mutate_json)."""
    for kind, at, token in mutations:
        if kind == "token":
            spans = [m.span() for m in re.finditer(rb"[^,\s\[\]{}:]+", data)]
            if spans:
                start, end = spans[at % len(spans)]
                data = data[:start] + token + data[end:]
        elif kind == "truncate":
            data = data[: at % (len(data) + 1)]
        elif kind == "0xff":
            at %= len(data) + 1
            data = data[:at] + b"\xff" + data[at:]
        elif kind == "blank":
            lines = data.split(b"\n")
            lines.insert(at % (len(lines) + 1), b" " * (at % 2))
            data = b"\n".join(lines)
        else:
            data = mutate_json(data, kind, at)
    return data


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    """Small valid features, probs, preds, detections and manifest files, the
    path each mutant is written to, and the commands that read it."""
    tmp = tmp_path_factory.mktemp("fuzz")
    write_dataset(shift_profile("mild", seed=0, n_samples=40), tmp)
    features = (tmp / "clinic_a_features.csv").read_text().splitlines()[:13]
    preds = ["image_id,grade,p0,p1,p2,p3,p4"] + [
        ",".join([c[0], c[2]] + ["1" if g == int(c[2]) else "0" for g in range(5)])
        for c in (line.split(",") for line in features[1:])
    ]
    originals = {
        "features": "\n".join(features) + "\n",
        "probs": "\n".join((tmp / "clinic_a_probs.csv").read_text().splitlines()[:13]) + "\n",
        "preds": "\n".join(preds) + "\n",
        "detections": json.dumps(json.loads((tmp / "clinic_a_detections.json").read_text())[:6], indent=1) + "\n",
        "manifest": (tmp / "manifest.json").read_text(),
    }
    experiment = {  # every section, every key
        "mode": "sdg",
        "domains": {"manifest": str(tmp / "manifest.json"), "source": "clinic_a", "targets": ["clinic_b"]},
        "seeds": [0],
        "split": {"train": 0.6, "validation": 0.2, "test": 0.2},
        "symbolic": {"model_kind": "gbm", "n_trees": 2, "max_depth": 2, "learning_rate": 0.1, "min_leaf": 2,
                     "l2_leaf": 1.0, "k_neighbors": 3, "seed": 0,
                     "early_stop_patience": 1, "feature_set": "auto"},
        "fusion": {"strategies": ["max", "weighted"], "include_neural": True},
        "alignment": False,
    }
    originals["experiment"] = json.dumps(experiment, indent=1)
    originals["config"] = json.dumps({s: experiment[s] for s in ("symbolic", "split")}, indent=1)
    valid = {}
    for kind, text in originals.items():
        (tmp / f"valid_{kind}").write_text(text)
        valid[kind] = str(tmp / f"valid_{kind}")
    # the mutant manifest sits beside the domain files its relative paths name
    mutant = {kind: tmp / ("manifest_mutant.json" if kind == "manifest" else f"mutant_{kind}") for kind in originals}
    config = tmp / "experiment.json"
    config.write_text(json.dumps({
        "mode": "sdg", "domains": {"manifest": str(mutant["manifest"]), "source": "clinic_a"}, "seeds": [0],
        "symbolic": {"n_trees": 2, "early_stop_patience": 1}, "fusion": {"strategies": ["max"]},
    }))
    commands = {  # the commands that read a mutant at path p
        "features": lambda p: [["grade", "--features", p], ["metrics", "--truth", p, "--pred", valid["preds"]]],
        "probs": lambda p: [["fuse", "--strategy", "weighted", "--alpha-dl", "0.6", "--alpha-kl", "0.4",
                             "--dl", p, "--kd", valid["probs"]]],
        "preds": lambda p: [["metrics", "--truth", valid["features"], "--pred", p]],
        "detections": lambda p: [["grade", "--detections", p],
                                 ["metrics", "--pred-detections", p, "--truth-detections", valid["detections"]]],
        "manifest": lambda p: [["eval", "--config", str(config)]],
        "experiment": lambda p: [["eval", "--config", p]],
        "config": lambda p: [["train", "--features", valid["features"], "--config", p]],
    }
    fuse = ["fuse", "--strategy", "weighted", "--alpha-dl", "0.6", "--alpha-kl", "0.4", "--dl", valid["probs"],
            "--kd", valid["probs"]]
    flags = [  # a valid command, and the place of the numeric flag value a mutant replaces
        (["grade", "--detections", valid["detections"], "--min-score", "0.25"], 4),
        (fuse, 4),
        (fuse, 6),
        (["metrics", "--pred-detections", valid["detections"], "--truth-detections", valid["detections"],
          "--iou-threshold", "0.5"], 6),
        (["train", "--features", valid["features"], "--config", valid["config"], "--seed", "0"], 6),
        (["eval", "--config", valid["experiment"], "--seed", "0"], 4),
    ]
    return originals, mutant, commands, flags, tmp / "out"


def flag_mutants(flags, mutations):
    """Per mutation, the command of one numeric flag with its value replaced by the mutation's token."""
    for _, at, token in mutations:
        argv, place = flags[at % len(flags)]
        yield argv[:place] + [token.decode("utf-8", "replace")] + argv[place + 1:]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["features", "probs", "preds", "detections", "manifest", "experiment", "config", "flags"]),
       st.lists(st.tuples(st.sampled_from(MUTATIONS), st.integers(0, 2**16), st.sampled_from(FUZZ_TOKENS)),
                min_size=1, max_size=2))
@example("features", [("0xff", 200, b"")])
@example("detections", [("0xff", 40, b"")])
@example("manifest", [("0xff", 30, b"")])
@example("manifest", [("token", 26, b"1e400")])
def test_cli_ingest_fuzz(fuzz_inputs, kind, mutations):
    """Every mutant (an input file, a config file, or a numeric flag value)
    exits 0, 2 or 3, and a failing one prints exactly one error[CODE] line;
    none exits 4. A flag value argparse cannot convert is its usage error."""
    originals, mutant, commands, flags, out = fuzz_inputs
    if kind == "flags":
        argvs = list(flag_mutants(flags, mutations))
    else:
        mutant[kind].write_bytes(mutate(originals[kind].encode(), mutations))
        argvs = commands[kind](str(mutant[kind]))
    for argv in argvs:
        err = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stderr(err):
            warnings.simplefilter("ignore")
            try:
                code = main(argv + ["--out", str(out), "--quiet"])
            except SystemExit as exc:
                assert kind == "flags" and exc.code == 2, (argv, err.getvalue())
                assert re.search(r"\nkgdg \w+: error: argument --[\w-]+: [^\n]*\n\Z", err.getvalue()), argv
                continue
        assert code in (0, 2, 3), (argv, err.getvalue())
        expected = r"error\[[A-Z_]+\]: [^\n]*\n" if code else ""  # one error line, or nothing
        assert re.fullmatch(expected, err.getvalue()), (argv, code, err.getvalue())
