"""No malformed input file exits 4.

The cases are built from ``cli.build_parser``: every flag of every
subcommand is classified as an input file or not, so a new flag fails
``test_every_flag_is_classified`` until it is classified here. Each input
flag, and the manifest an ``eval`` config points at, is fed four files:
bytes that are not UTF-8, 100,000 nested brackets, a 5,000-digit integer
where a number goes, and an empty file. Each run must exit 2 (a config) or
3 (any other input) with one ``error[...]`` line on stderr.
"""

import argparse
import json

import pytest

from kgdg.cli import build_parser, main
from kgdg.errors import CorruptArtifact
from kgdg.io import ARTIFACT_MAGIC, LESIONS_ONLY_HEADER, PROBS_HEADER, load_model
from kgdg.report import reference_ids

HUGE = "1" * 5000  # past int()'s 4,300-digit limit
DEEP = "[" * 100_000 + "]" * 100_000  # past the recursion limit

# a valid file of each kind; "{n}" is where its number goes
FEATURES = ",".join(LESIONS_ONLY_HEADER) + "\nimg1,clinic_a,{n},3,0,0,0,0,0,1,0\n"
VALID = {
    "features": FEATURES,
    "probs": ",".join(PROBS_HEADER) + "\nimg1,{n},0.2,0.2,0.2,0.2\n",
    "predictions": FEATURES,  # a prediction table needs only image_id and grade
    "detections": json.dumps([{"image_id": "img1", "lesion": "microaneurysm", "x": 0.1, "y": 0.1, "w": 0.1,
                               "h": 0.1, "score": "{n}"}]).replace('"{n}"', "{n}"),
    "config": '{"seeds": [{n}]}',
    "manifest": '{"domains": [{"name": "clinic_a", "features": "features.csv"}], "seeds": [{n}]}',
    "report": '{"seeds": [{n}]}',
}

# (command, flag) -> the kind of file it reads; None for a flag that names no input
FLAGS = {
    **{(command, flag): None for command in ("synth", "grade", "train", "fuse", "eval", "metrics", "report")
       for flag in ("-h", "--out", "--quiet")},
    ("synth", "--profile"): None, ("synth", "--samples"): None, ("synth", "--seed"): None,
    ("grade", "--features"): "features", ("grade", "--detections"): "detections", ("grade", "--min-score"): None,
    ("train", "--features"): "features", ("train", "--config"): "config", ("train", "--model"): None,
    ("train", "--feature-set"): None, ("train", "--seed"): None,
    ("fuse", "--dl"): "probs", ("fuse", "--kd"): "probs", ("fuse", "--strategy"): None,
    ("fuse", "--alpha-dl"): None, ("fuse", "--alpha-kl"): None,
    ("eval", "--config"): "config", ("eval", "--mode"): None, ("eval", "--format"): None, ("eval", "--seed"): None,
    ("metrics", "--truth"): "features", ("metrics", "--pred"): "predictions",
    ("metrics", "--pred-detections"): "detections", ("metrics", "--truth-detections"): "detections",
    ("metrics", "--iou-threshold"): None,
    ("report", "--input"): "report", ("report", "--reference-id"): None, ("report", "--list"): None,
}

# each input flag's run, every other input valid; "BAD" is the malformed file
RUNS = {
    ("grade", "--features"): ["grade", "--features", "BAD"],
    ("grade", "--detections"): ["grade", "--detections", "BAD"],
    ("train", "--features"): ["train", "--features", "BAD", "--out", "model.kgdg"],
    ("train", "--config"): ["train", "--features", "features.csv", "--config", "BAD", "--out", "model.kgdg"],
    ("fuse", "--dl"): ["fuse", "--strategy", "max", "--dl", "BAD", "--kd", "probs.csv"],
    ("fuse", "--kd"): ["fuse", "--strategy", "max", "--dl", "probs.csv", "--kd", "BAD"],
    ("eval", "--config"): ["eval", "--config", "BAD"],
    ("eval", "manifest"): ["eval", "--config", "experiment.json"],  # whose manifest is BAD
    ("metrics", "--truth"): ["metrics", "--truth", "BAD", "--pred", "features.csv"],
    ("metrics", "--pred"): ["metrics", "--truth", "features.csv", "--pred", "BAD"],
    ("metrics", "--pred-detections"): ["metrics", "--pred-detections", "BAD", "--truth-detections", "det.json"],
    ("metrics", "--truth-detections"): ["metrics", "--pred-detections", "det.json", "--truth-detections", "BAD"],
    ("report", "--input"): ["report", "--reference-id", reference_ids()[0], "--input", "BAD"],
}
KINDS = {**{key: kind for key, kind in FLAGS.items() if kind}, ("eval", "manifest"): "manifest"}

MALFORMED = {
    "not_utf8": lambda kind: b"\xff",
    "deep": lambda kind: DEEP.encode(),
    "huge_int": lambda kind: VALID[kind].replace("{n}", HUGE).encode(),
    "empty": lambda kind: b"",
}


def parser_flags():
    """(command, flag) for every flag ``build_parser`` defines, by its first option string."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {(command, action.option_strings[0]) for command, parser in sub.choices.items()
            for action in parser._actions}


def test_every_flag_is_classified():
    assert parser_flags() == set(FLAGS)


def test_every_input_flag_has_a_run():
    assert set(RUNS) == set(KINDS)


@pytest.mark.parametrize("malformed", sorted(MALFORMED))
@pytest.mark.parametrize("key", sorted(RUNS), ids=lambda key: "_".join(key).replace("--", ""))
def test_malformed_input_is_a_typed_error(tmp_path, monkeypatch, capsys, key, malformed):
    monkeypatch.chdir(tmp_path)
    for name, text in (("features.csv", VALID["features"]), ("probs.csv", VALID["probs"]),
                       ("det.json", VALID["detections"])):
        (tmp_path / name).write_text(text.replace("{n}", "0.2" if name == "probs.csv" else "1"))
    (tmp_path / "experiment.json").write_text('{"mode": "mdg", "domains": {"manifest": "BAD"}}')
    (tmp_path / "BAD").write_bytes(MALFORMED[malformed](KINDS[key]))
    code = main(RUNS[key])
    lines = capsys.readouterr().err.splitlines()
    assert code == (2 if KINDS[key] == "config" else 3), lines
    assert len(lines) == 1 and lines[0].startswith("error[") and not lines[0].startswith("error[INTERNAL]")


@pytest.mark.parametrize("payload", [DEEP, '{"feature_schema":[],"model_kind":"gbm","params":{"n":%s},'
                                           '"train_fingerprint":"0"}' % HUGE], ids=["deep", "huge_int"])
def test_unparseable_artifact_payload_is_corrupt(tmp_path, payload):
    path = tmp_path / "model.kgdg"
    path.write_text(f"{ARTIFACT_MAGIC}\n0\n0\n{payload}\n")
    with pytest.raises(CorruptArtifact, match="truncated or malformed payload"):
        load_model(path)
