"""The benchmark's workloads: inputs, the CLI calls of one round, and the
checks on their outputs.

Every input is built with the program's own generator and writers from
the workload seed: `synth --profile vein_hostile`, 2000 rows per domain.
The symbolic config caps the GBM at 10 boosting rounds, which equals its
default early-stopping patience, so every fit trains exactly 10 rounds and
the work of a round does not depend on where early stopping would fall for
a given seed. The forest gets 10 trees from the same setting.
"""

from __future__ import annotations

import json
import shutil
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

import checks

ROWS = 2000
DOMAINS = ("clinic_a", "clinic_b", "clinic_c")
MODELS = ("gbm", "logistic", "forest", "knn")
STRATEGIES = ("selective", "max", "classwise", "weighted")
EVAL_SEEDS = (0, 1, 2)
SYMBOLIC = {"n_trees": 10}
ALPHA = (0.6, 0.4)


@dataclass
class Op:
    """One CLI call. ``command`` names the figure its time goes into."""

    command: str
    argv: list[str]
    output: Path
    domain: str = ""
    rows: int | None = None  # rows handled, for throughput; None counts the output's data rows
    reads: Path | None = None  # an earlier op's output that this op's check compares with

    def handled_rows(self) -> int:
        return self.rows if self.rows is not None else self.output.read_bytes().count(b"\n") - 1


class Workload:
    """Inputs live under ``work/data``; outputs are overwritten every round."""

    def __init__(self, work: Path, seed: int) -> None:
        self.work = work
        self.seed = seed
        self.data = work / "data"

    def setup(self) -> None:
        from kgdg import synth

        shutil.rmtree(self.data, ignore_errors=True)
        synth.write_dataset(synth.shift_profile("vein_hostile", seed=self.seed, n_samples=ROWS), self.data)

    def ops(self) -> list[Op]:
        raise NotImplementedError

    def check_op(self, op: Op) -> list[str]:
        """Problems with the output of ``op`` currently on disk."""
        raise NotImplementedError

    def features(self, domain: str) -> Path:
        return self.data / f"{domain}_features.csv"

    def probs(self, domain: str) -> Path:
        return self.data / f"{domain}_probs.csv"

    @cached_property
    def tables(self) -> dict[str, tuple[list[str], np.ndarray, dict[str, np.ndarray]]]:
        """Each domain's ids, true grades and feature columns, read once."""
        return {d: checks.read_features(self.features(d)) for d in DOMAINS}


class Eval(Workload):
    """`kgdg eval` with four fusion strategies and the grid weight search,
    one call per split seed 0/1/2; ``mode`` is `sdg` (clinic_a to the
    others) or `mdg`. One call per seed keeps each timed call short."""

    def __init__(self, work: Path, seed: int, mode: str) -> None:
        super().__init__(work, seed)
        self.mode = mode
        self.targets = list(DOMAINS[1:] if mode == "sdg" else DOMAINS)

    def config(self, split_seed: int) -> Path:
        return self.work / f"experiment_{split_seed}.json"

    def setup(self) -> None:
        super().setup()
        for s in EVAL_SEEDS:
            config = {
                "mode": self.mode,
                "domains": {"manifest": "data/manifest.json",
                            "source": "clinic_a" if self.mode == "sdg" else None, "targets": None},
                "seeds": [s],
                "symbolic": SYMBOLIC,
            }
            self.config(s).write_text(json.dumps(config, indent=1) + "\n")

    def ops(self) -> list[Op]:
        out = []
        for s in EVAL_SEEDS:
            report = self.work / f"report_{s}.json"
            argv = ["eval", "--config", str(self.config(s)), "--format", "json", "--out", str(report), "--quiet"]
            out.append(Op("eval", argv, report))
        return out

    def check_op(self, op: Op) -> list[str]:
        neural = {t: checks.read_probs(self.probs(t))[1] for t in self.targets}
        truth = {t: self.tables[t][1] for t in self.targets}
        n_alphas = 1 if self.mode == "sdg" else len(DOMAINS)
        return checks.check_report(op.output.read_text(), truth, neural, self.targets, 1, n_alphas)


class Train(Workload):
    """`kgdg train` of each learner on each domain, artifact write included."""

    def setup(self) -> None:
        super().setup()
        (self.work / "train.json").write_text(json.dumps({"symbolic": SYMBOLIC}) + "\n")

    def ops(self) -> list[Op]:
        out = []
        for d in DOMAINS:
            for m in MODELS:
                artifact = self.work / f"{d}_{m}.kgdg"
                argv = ["train", "--features", str(self.features(d)), "--model", m, "--seed", "0",
                        "--config", str(self.work / "train.json"), "--out", str(artifact), "--quiet"]
                out.append(Op(f"train_{m}", argv, artifact, d))
        return out

    def check_op(self, op: Op) -> list[str]:
        from kgdg.harness import SplitFractions, split_indices
        from kgdg.io import load_model, save_model
        from kgdg.learn import model_from_artifact

        path = op.output
        problems = checks.check_artifact(path)
        if problems:
            return problems
        artifact = load_model(path)
        copy = path.with_suffix(".roundtrip")
        save_model(artifact, copy)
        if copy.read_bytes() != path.read_bytes():
            problems.append("artifact changes under a load_model/save_model round trip")
        copy.unlink()
        _, y, columns = self.tables[op.domain]
        test = split_indices(y.size, y, SplitFractions(), 0)[2]
        x = np.column_stack([columns[name][test] for name in artifact.feature_schema])
        return problems + checks.check_predictions(model_from_artifact(artifact).predict_proba_matrix(x), y[test])


class Serve(Workload):
    """The decision layer without training: rule grading, fusion of the deep
    table with a rule-based knowledge table, and scoring, per domain."""

    def knowledge(self, domain: str) -> Path:
        return self.data / f"{domain}_rules_probs.csv"

    def setup(self) -> None:
        from kgdg import io, rules

        super().setup()
        for d in DOMAINS:
            table = {ex.image_id: rules.rule_grade_as_probability(rules.grade_by_rules(ex.features))
                     for ex in io.load_feature_table(self.features(d))}
            io.save_probability_table(self.knowledge(d), table)

    def ops(self) -> list[Op]:
        out = []
        for d in DOMAINS:
            by_det, by_feat = self.work / f"{d}_grades_det.csv", self.work / f"{d}_grades_feat.csv"
            out.append(Op("grade", ["grade", "--detections", str(self.data / f"{d}_detections.json"),
                                    "--out", str(by_det), "--quiet"], by_det, d))
            out.append(Op("grade", ["grade", "--features", str(self.features(d)),
                                    "--out", str(by_feat), "--quiet"], by_feat, d, reads=by_det))
            preds = [by_feat]
            for s in STRATEGIES:
                fused = self.work / f"{d}_fused_{s}.csv"
                weights = ["--alpha-dl", str(ALPHA[0]), "--alpha-kl", str(ALPHA[1])] if s == "weighted" else []
                out.append(Op("fuse", ["fuse", "--strategy", s, "--dl", str(self.probs(d)),
                                       "--kd", str(self.knowledge(d)), "--out", str(fused), "--quiet", *weights],
                              fused, d))
                preds.append(fused)
            for pred in preds:
                score = pred.with_suffix(".score.json")
                out.append(Op("score", ["metrics", "--truth", str(self.features(d)), "--pred", str(pred),
                                        "--out", str(score), "--quiet"], score, d, rows=ROWS, reads=pred))
        return out

    @cached_property
    def expected(self) -> dict[str, dict]:
        """Per domain: ladder grades from features and from detections, and
        the two probability tables aligned on the deep table's ids."""
        out = {}
        for d in DOMAINS:
            ids, y, columns = self.tables[d]
            by_feat = {i: checks.ladder({k: v[n] for k, v in columns.items()}) for n, i in enumerate(ids)}
            records = json.loads((self.data / f"{d}_detections.json").read_text())
            by_det = {i: checks.ladder(f) for i, f in checks.features_from_detections(records).items()}
            dl_ids, p_dl = checks.read_probs(self.probs(d))
            kd_ids, p_kd = checks.read_probs(self.knowledge(d))
            kd_row = {i: n for n, i in enumerate(kd_ids)}
            out[d] = {"ids": ids, "y": y, "by_feat": by_feat, "by_det": by_det, "dl_ids": dl_ids,
                      "p_dl": p_dl, "p_kd": p_kd[[kd_row[i] for i in dl_ids]]}
        return out

    def check_op(self, op: Op) -> list[str]:
        e = self.expected[op.domain]
        if op.command == "grade":
            rows = checks.read_table(op.output)
            if op.reads is None:  # graded from detections
                return checks.check_grades(rows, e["by_det"], ordered=True)
            return (checks.check_grades(rows, e["by_feat"], ordered=False)
                    + checks.check_grade_agreement(checks.read_table(op.reads), rows))
        if op.command == "fuse":
            return checks.check_fused(checks.read_table(op.output), e["dl_ids"], e["p_dl"], e["p_kd"], op.argv[2], ALPHA)
        pred = {r["image_id"]: int(r["grade"]) for r in checks.read_table(op.reads)}
        return checks.check_scores(json.loads(op.output.read_text()), e["y"], np.array([pred[i] for i in e["ids"]]))


def make(name: str, work: Path, seed: int) -> Workload:
    if name in ("mdg", "sdg"):
        return Eval(work, seed, name)
    return {"train": Train, "serve": Serve}[name](work, seed)
