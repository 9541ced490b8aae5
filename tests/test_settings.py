"""A fingerprint moves with exactly the settings its run reads.

synth, train and eval can take a setting from outside the command line
(KGDG_SEED, a config file), so each prints a config fingerprint. The cases
below are built from ``cli.build_parser`` and the config dataclasses: every
flag of those commands but the input paths, ``--out``, ``--quiet`` and
``--format``, KGDG_SEED, and every config key. Each case changes one
setting of a small base run. The output (with its own fingerprint field
left out) and the printed fingerprint must both move or both stay, and they
move exactly when the base run reads the setting.
"""

import argparse
import contextlib
import dataclasses
import functools
import io
import itertools
import json
from typing import NamedTuple

import pytest

from kgdg.cli import build_parser, main
from kgdg.harness import ExperimentConfig, SplitFractions
from kgdg.io import MODEL_KINDS, load_model
from kgdg.learn import TrainConfig
from kgdg.learn.config import LEARNER_FIELDS
from kgdg.synth import shift_profile, write_dataset

# flags that name an input or an output, or choose how the output is written
NOT_SETTINGS = {"help", "features", "config", "out", "quiet", "format"}


def flags(command):
    """The setting flags of ``command``, as ``build_parser`` defines them."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return [a.option_strings[0] for a in sub.choices[command]._actions if a.dest not in NOT_SETTINGS]


def config_keys(cls, prefix=""):
    """The dotted keys of a config dataclass, a nested config's own fields
    in place of it."""
    keys = []
    for f in dataclasses.fields(cls):
        if dataclasses.is_dataclass(f.default_factory):
            keys += config_keys(f.default_factory, f"{prefix}{f.name}.")
        else:
            keys.append(prefix + f.name)
    return keys


SETTINGS = {
    "synth": [*flags("synth"), "KGDG_SEED"],
    "train": [*flags("train"), "KGDG_SEED", *config_keys(TrainConfig, "symbolic."),
              *config_keys(SplitFractions, "split.")],
    "eval": [*flags("eval"), "KGDG_SEED", *config_keys(ExperimentConfig)],
}


class Base(NamedTuple):
    command: str
    mode: str | None = None  # eval's
    kind: str | None = None  # the learner's


BASES = [Base("synth"), *(Base("train", kind=k) for k in MODEL_KINDS),
         Base("eval", "sdg", "gbm"), Base("eval", "mdg", "gbm"),
         *(Base("eval", "sdg", k) for k in MODEL_KINDS if k != "gbm")]


def covers(base, setting):
    """Every base run takes every setting of its command, except that the
    eval bases of the other learners take only the symbolic section."""
    return base.command != "eval" or base.kind == "gbm" or setting.startswith("symbolic.")


CASES = [(base, setting) for base in BASES for setting in SETTINGS[base.command] if covers(base, setting)]

# Each base learner trains on clinic_b, where a GBM with these settings trains 8
# rounds and keeps 7, or 6 and 6 with the validation and test fractions
# swapped (on clinic_a its validation accuracy is 1.0 after 2 rounds).
SOURCE = "clinic_b"
SYMBOLIC = {"n_trees": 8, "min_leaf": 2, "early_stop_patience": 3}
SPLIT = {"train": 0.6, "validation": 0.3, "test": 0.1}
OTHER = {"sdg": "mdg", "mdg": "sdg", **{k: "gbm" for k in MODEL_KINDS}, "gbm": "forest"}
SPLITS = {  # a split section has to sum to 1: each case moves its own fraction and one other
    "split.train": {"train": 0.7, "validation": 0.2, "test": 0.1},
    "split.validation": {"train": 0.6, "validation": 0.1, "test": 0.3},  # swapped: the same training rows
    "split.test": {"train": 0.5, "validation": 0.3, "test": 0.2},
}


def changed_value(base, setting):
    """The other value a case gives ``setting``: one that moves the output
    of a base run that reads the setting. A setting with no value here
    fails its case."""
    values = {
        "--profile": "vein_hostile", "--samples": "30", "--seed": "3", "KGDG_SEED": "3",
        "--model": OTHER[base.kind or "gbm"], "symbolic.model_kind": OTHER[base.kind or "gbm"],
        "--feature-set": "lesions_only", "symbolic.feature_set": "lesions_only",
        "--mode": OTHER[base.mode or "sdg"], "mode": OTHER[base.mode or "sdg"],
        "source": "clinic_a", "targets": ["clinic_c"], "seeds": [3], **SPLITS,
        "symbolic.n_trees": 1, "symbolic.max_depth": 1, "symbolic.learning_rate": 0.5,
        "symbolic.min_leaf": 10, "symbolic.l2_leaf": 10.0, "symbolic.k_neighbors": 9,
        "symbolic.seed": 123, "symbolic.early_stop_patience": 1,
        "fusion.strategies": ["max"], "fusion.include_neural": False, "alignment": True,
    }
    return values[setting]


def reads(base, setting):
    """Whether the base run reads ``setting``: a learner reads
    ``model_kind``, ``feature_set`` and its LEARNER_FIELDS (and train's seed
    also draws its split); MDG reads no source or targets; swapping the
    validation and test fractions keeps train's training rows, which are all
    a learner but the GBM reads."""
    if setting.startswith("symbolic."):
        name = setting.removeprefix("symbolic.")
        return name in ("model_kind", "feature_set", *LEARNER_FIELDS[base.kind]) or (
            base.command == "train" and name == "seed")
    if setting in ("source", "targets"):
        return base.mode == "sdg"
    if base.command == "train" and setting == "split.validation":
        return base.kind == "gbm"
    return True


@pytest.fixture(scope="module")
def data(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("settings")
    write_dataset(shift_profile("mild", seed=0, n_samples=100), tmp)
    return tmp


RUN_NUMBERS = itertools.count()


def invoke(data, argv, config=None, env_seed=None):
    """Run ``argv`` with ``config`` as its config file and KGDG_SEED set to
    ``env_seed`` (None: unset); return the path it wrote and the one
    fingerprint it printed."""
    work = data / "runs" / str(next(RUN_NUMBERS))
    work.mkdir(parents=True)
    if config is not None:
        (work / "config.json").write_text(json.dumps(config))
        argv = [*argv, "--config", str(work / "config.json")]
    err = io.StringIO()
    with pytest.MonkeyPatch.context() as env, contextlib.redirect_stderr(err):
        env.delenv("KGDG_SEED", raising=False)
        if env_seed is not None:
            env.setenv("KGDG_SEED", env_seed)
        assert main([*argv, "--out", str(work / "out")]) == 0, err.getvalue()
    printed = [line.removeprefix("config fingerprint: ") for line in err.getvalue().splitlines()
               if line.startswith("config fingerprint: ")]
    assert len(printed) == 1, err.getvalue()
    return work / "out", printed[0]


class Run(NamedTuple):
    output: object
    fingerprint: str


def run(data, argv, config=None, env_seed=None):
    """Run a command and return its output, less its fingerprint field,
    with the fingerprint its stderr prints, which must be that field."""
    out, printed = invoke(data, argv, config, env_seed)
    if argv[0] == "synth":
        return Run({p.name: p.read_bytes() for p in sorted(out.iterdir())}, printed)
    if argv[0] == "train":
        artifact = load_model(out)
        assert artifact.train_fingerprint[:16] == printed
        return Run((artifact.model_kind, artifact.feature_schema, artifact.params), printed)
    report = json.loads(out.read_text())
    assert report.pop("config_fingerprint") == printed
    return Run(report, printed)


def run_case(data, base, setting=None):
    """The base run with ``setting`` changed (None: unchanged)."""
    value = None if setting is None else changed_value(base, setting)
    argv, config, env_seed = {}, None, None
    if base.command == "synth":
        argv = {"--profile": "mild", "--samples": "20"}
    elif base.command == "train":
        argv = {"--features": str(data / f"{SOURCE}_features.csv")}
        config = {"split": SPLIT, "symbolic": {**SYMBOLIC, "model_kind": base.kind}}
    else:
        argv = {"--format": "json"}
        config = {"mode": base.mode, "domains": {"manifest": str(data / "manifest.json"), "source": SOURCE},
                  "seeds": [0], "split": SPLIT, "symbolic": {**SYMBOLIC, "model_kind": base.kind}}
    if setting is None:
        pass
    elif setting == "KGDG_SEED":
        env_seed = value
    elif setting.startswith("--"):
        argv[setting] = value
    elif setting.startswith("split."):
        config["split"] = value
    elif setting in ("source", "targets"):
        config["domains"][setting] = value
    elif "." in setting:
        section, key = setting.split(".")
        config.setdefault(section, {})[key] = value
    else:
        config[setting] = value
    return run(data, [base.command, *(part for item in argv.items() for part in item)], config, env_seed)


@functools.cache
def base_run(data, base):
    return run_case(data, base)


def test_cases_cover_every_setting():
    """Every flag and config key of the three commands has a case, and
    none of the input, output or format flags has."""
    settings = {setting for _, setting in CASES}
    assert {"--profile", "--samples", "--seed", "--model", "--feature-set", "--mode", "KGDG_SEED"} <= settings
    assert {f"symbolic.{f.name}" for f in dataclasses.fields(TrainConfig)} <= settings
    assert {"mode", "source", "targets", "seeds", "split.train", "split.validation", "split.test",
            "fusion.strategies", "fusion.include_neural", "alignment"} <= settings
    assert not settings & {"--features", "--config", "--out", "--quiet", "--format", "--help"}


@pytest.mark.parametrize("base, setting", CASES,
                         ids=[f"{'-'.join(filter(None, base))}-{setting}" for base, setting in CASES])
def test_output_and_fingerprint_move_together(data, base, setting):
    before, after = base_run(data, base), run_case(data, base, setting)
    moved = after.output != before.output
    assert moved == (after.fingerprint != before.fingerprint)
    assert moved == reads(base, setting)


# --- whole-byte cases ----------------------------------------------------------


def written(data, argv, config):
    """The bytes ``argv`` writes with ``config``, and the fingerprint it prints."""
    out, printed = invoke(data, argv, config)
    return out.read_bytes(), printed


def test_train_fingerprint_covers_the_validation_rows(data):
    """Swapping the validation and test fractions keeps the training rows;
    the GBM early-stops on the validation rows, so its artifact and its
    fingerprint both move."""
    argv = ["train", "--features", str(data / "clinic_b_features.csv")]
    runs = [load_model(invoke(data, argv, {"split": split})[0])
            for split in ({"train": 0.6, "validation": 0.3, "test": 0.1},
                          {"train": 0.6, "validation": 0.1, "test": 0.3})]
    assert runs[0].params["best_round"] != runs[1].params["best_round"]
    assert runs[0].train_fingerprint != runs[1].train_fingerprint


@pytest.mark.parametrize("kind, symbolic", [
    ("gbm", {"k_neighbors": 9}), ("gbm", {"feature_set": "lesions_vein"}),
    ("logistic", {"n_trees": 10}), ("logistic", {"max_depth": 1, "k_neighbors": 9}),
    ("forest", {"learning_rate": 0.5, "l2_leaf": 3.0, "early_stop_patience": 1}),
    ("knn", {"n_trees": 10, "seed": 123}),
])
def test_train_setting_its_learner_does_not_read_moves_no_byte(data, kind, symbolic):
    """A field the learner does not read, or the explicit name of the schema
    ``auto`` resolves to, writes the same artifact and prints the same line."""
    argv = ["train", "--features", str(data / "clinic_a_features.csv"), "--seed", "0"]
    plain = written(data, argv, {"symbolic": {"model_kind": kind, **SYMBOLIC}})
    assert written(data, argv, {"symbolic": {"model_kind": kind, **SYMBOLIC, **symbolic}}) == plain


@pytest.mark.parametrize("mode, change", [
    ("sdg", {"symbolic": {"k_neighbors": 9}}),
    ("sdg", {"symbolic": {"seed": 123}}),
    ("sdg", {"symbolic": {"feature_set": "lesions_vein"}}),
    ("sdg", {"domains": {"targets": ["clinic_b", "clinic_c"]}}),
    ("mdg", {"domains": {"source": "clinic_b", "targets": ["clinic_c"]}}),
    ("mdg", {"symbolic": {"k_neighbors": 9, "seed": 123}}),
])
def test_eval_setting_the_run_does_not_read_moves_no_byte(data, mode, change):
    """A GBM reads no k_neighbors or seed, MDG reads no source or targets,
    and ``targets: null`` and the list of every other domain name the same
    targets: each writes the same report, fingerprint included."""
    base = {"mode": mode, "domains": {"manifest": str(data / "manifest.json")}, "seeds": [0],
            "symbolic": SYMBOLIC, "fusion": {"strategies": ["max", "weighted"]}}
    if mode == "sdg":
        base["domains"]["source"] = "clinic_a"
    config = {k: {**v, **change[k]} if k in change else v for k, v in base.items()}
    argv = ["eval", "--format", "json"]
    assert written(data, argv, config) == written(data, argv, base)


def test_mdg_fingerprint_follows_the_manifest_order(data):
    """MDG holds the domains out in manifest order, which orders the
    report's columns, so the fingerprint moves with it."""
    manifest = json.loads((data / "manifest.json").read_text())
    for d in manifest["domains"]:
        d.update({k: str(data / d[k]) for k in ("features", "probs", "detections")})
    (data / "reversed.json").write_text(json.dumps({"domains": manifest["domains"][::-1]}))
    reports = [json.loads(written(data, ["eval", "--format", "json"], {
        "mode": "mdg", "domains": {"manifest": str(data / name)}, "seeds": [0], "symbolic": SYMBOLIC,
        "fusion": {"strategies": ["max"]}})[0]) for name in ("manifest.json", "reversed.json")]
    assert reports[0]["columns"] != reports[1]["columns"]
    assert reports[0]["config_fingerprint"] != reports[1]["config_fingerprint"]
