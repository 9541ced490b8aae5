"""Command-line entry point: synth, grade, train, fuse, eval, metrics, report.

Exit codes: 0 success, 2 usage/config error, 3 data error, 4 internal
invariant violation. Diagnostics go to stderr and honor --quiet; machine
output goes to --out files, or stdout with ``--out -``. synth, train and
eval, whose settings can also come from KGDG_SEED or a config file, print
a config fingerprint: the digest of what the run reads (train's is its
artifact's, eval's its report's). The other commands print none.

Each subcommand takes only the flags it reads: synth, train and eval take
--seed; train takes --config, and eval requires it; a flag that the others
given would make it ignore exits 2. A setting comes from the first of
these that gives it: its flag, KGDG_SEED (seeds only), the config file
(train reads its symbolic and split sections), the built-in default.
grade has no config: its ladder thresholds are fixed (rules.RULE_LADDER)
and --min-score, default rules.MIN_SCORE, is its one setting.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import asdict, replace
from pathlib import Path

from .core import checked_unit
from .errors import DataError, InvalidConfig, KgdgError
from .fusion import FusionStrategy, batch_fuse
from .harness import (
    SplitFractions,
    build_section,
    checked_weights,
    load_experiment_config,
    read_config_file,
    run_experiment,
    split_dataset,
)
from .io import (
    MODEL_KINDS,
    canonical_json,
    content_digest,
    join_rows,
    load_manifest,
    read_detections,
    read_feature_table,
    read_prediction_table,
    read_probability_table,
    save_model,
)
from .io import load_feature_table, load_probability_table  # noqa: F401  unused here; the benchmark's tracer patches them by this module's name
from .io import read_detections as load_detections  # noqa: F401  unused here; the benchmark's tracer patches it by this module's name
from .learn import TrainConfig, feature_matrix, fit_model, resolve_schema
from .learn.config import FEATURE_SETS
from .metrics import evaluate_predictions, match_detections
from .report import (
    compare_to_reference,
    emit_report,
    get_reference,
    load_report_json,
    reference_ids,
    render_report,
)
from .rules import MIN_SCORE, RULE_LADDER, fire_rules, grade_detections
from .rules import grade_by_rules  # noqa: F401  unused here; the benchmark's tracer patches it by this module's name
from .synth import SHIFT_PROFILES, shift_profile, write_dataset


def _diag(args: argparse.Namespace, message: str) -> None:
    if not args.quiet:
        print(message, file=sys.stderr)


def _resolve_seed(args: argparse.Namespace) -> int | None:
    """--seed, else KGDG_SEED, else None: the config's or built-in seed stands."""
    if args.seed is not None:
        return args.seed
    env = os.environ.get("KGDG_SEED")
    if env is None:
        return None
    try:
        return int(env)
    except ValueError:
        raise InvalidConfig(f"KGDG_SEED={env!r} is not an integer") from None


def _with_given(cfg, **given):
    """``cfg`` with each setting given on the command line (not None) in
    place of its config-file or built-in value."""
    return replace(cfg, **{k: v for k, v in given.items() if v is not None})


def _write_output(args: argparse.Namespace, text: str) -> None:
    if args.out is None or args.out == "-":
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text, encoding="utf-8")


# --- subcommands ---------------------------------------------------------------


def _cmd_synth(args: argparse.Namespace) -> int:
    cfg = _with_given(shift_profile(args.profile, n_samples=args.samples), seed=_resolve_seed(args))
    resolved = {"command": "synth", "profile": args.profile, "seed": cfg.seed, "samples": args.samples}
    _diag(args, f"config fingerprint: {content_digest(canonical_json(resolved))[:16]}")
    manifest_path = write_dataset(cfg, args.out)
    _diag(args, f"wrote {manifest_path}")
    return 0


def _cmd_grade(args: argparse.Namespace) -> int:
    if args.features and args.detections:
        raise InvalidConfig("grade takes --features or --detections, not both")
    if args.features and args.min_score is not None:
        raise InvalidConfig("grade takes --min-score only with --detections")
    min_score = MIN_SCORE if args.min_score is None else checked_unit("min_score", args.min_score)
    if args.features:
        table = read_feature_table(args.features)
        ids, fired, order = table.ids, fire_rules(table.counts), range(len(table))
    elif args.detections:
        detections = read_detections(args.detections)
        ids, fired = detections.ids, grade_detections(detections, min_score)
        order = sorted(range(len(ids)), key=ids.__getitem__)
    else:
        raise InvalidConfig("grade needs --features or --detections")
    labels = [f"{int(grade)},{name}" for name, grade, _ in RULE_LADDER]
    fired = fired.tolist()
    lines = ["image_id,grade,fired_rules"] + [f"{ids[n]},{labels[fired[n]]}" for n in order]
    _write_output(args, "\n".join(lines) + "\n")
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    raw = {} if args.config is None else read_config_file(args.config)
    cfg = _with_given(build_section("symbolic", TrainConfig, raw.get("symbolic", {})),
                      model_kind=args.model, seed=_resolve_seed(args), feature_set=args.feature_set)
    split = build_section("split", SplitFractions, raw.get("split", {}))
    table = read_feature_table(args.features)
    train, valid, test = split_dataset(table, split, cfg.seed)
    schema = resolve_schema(cfg, table)
    x, y = feature_matrix(table, schema), table.y
    model = fit_model(x[train], y[train], x[valid], y[valid], schema, cfg)
    if test.size and not args.quiet:  # a diagnostic: skip computing what is not printed
        preds = model.predict_proba_matrix(x[test]).argmax(axis=1)
        held_out = evaluate_predictions(y[test], preds)
        _diag(args, f"held-out accuracy {held_out.accuracy:.4f}, macro F1 {held_out.macro_f1:.4f}")
    _diag(args, f"config fingerprint: {model.train_fingerprint[:16]}")  # settings and rows the fit read
    save_model(model.to_artifact(), args.out)
    _diag(args, f"wrote {args.out}")
    return 0


def _cmd_fuse(args: argparse.Namespace) -> int:
    strategy = FusionStrategy(args.strategy)
    weights = None
    if strategy is FusionStrategy.WEIGHTED:
        if args.alpha_dl is None or args.alpha_kl is None:
            raise InvalidConfig("weighted fusion needs --alpha-dl and --alpha-kl")
        weights = checked_weights(args.alpha_dl, args.alpha_kl)
    elif args.alpha_dl is not None or args.alpha_kl is not None:
        raise InvalidConfig(f"{strategy.value} fusion takes no --alpha-dl or --alpha-kl")
    dl_ids, p_dl = read_probability_table(args.dl)
    fused = batch_fuse(strategy, (dl_ids, p_dl), read_probability_table(args.kd), weights)
    grades, sources, scores = fused.grades.tolist(), fused.sources.tolist(), fused.scores.tolist()
    lines = ["image_id,grade,source,winning_score"] + [
        f"{dl_ids[n]},{grades[n]},{sources[n]},{scores[n]:.6f}"
        for n in sorted(range(len(dl_ids)), key=dl_ids.__getitem__)
    ]
    _write_output(args, "\n".join(lines) + "\n")
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    cfg, manifest_path = load_experiment_config(args.config)
    seed = _resolve_seed(args)
    cfg = _with_given(cfg, mode=args.mode, seeds=None if seed is None else (seed,))
    report = run_experiment(cfg, load_manifest(manifest_path))
    _diag(args, f"config fingerprint: {report.config_fingerprint}")  # config and data digests
    if args.out is None or args.out == "-":
        sys.stdout.write(render_report(report, args.format))
    else:
        emit_report(report, args.format, args.out)
        _diag(args, f"wrote {args.out}")
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    if (args.pred_detections or args.truth_detections) and (args.truth or args.pred):
        raise InvalidConfig("metrics takes --truth/--pred or --pred-detections/--truth-detections, not both")
    if (args.truth or args.pred) and args.iou_threshold is not None:
        raise InvalidConfig("metrics takes --iou-threshold only with --pred-detections/--truth-detections")
    if args.pred_detections or args.truth_detections:
        if not (args.pred_detections and args.truth_detections):
            raise InvalidConfig("detection metrics need --pred-detections and --truth-detections")
        iou = checked_unit("iou_threshold", 0.5 if args.iou_threshold is None else args.iou_threshold)
        pred = read_detections(args.pred_detections)
        match = match_detections(pred, read_detections(args.truth_detections), iou)
        _write_output(args, json.dumps(asdict(match), indent=1, sort_keys=True) + "\n")
        return 0
    if not (args.truth and args.pred):
        raise InvalidConfig("classification metrics need --truth and --pred")
    truth = read_feature_table(args.truth)
    pred_ids, grades, probs = read_prediction_table(args.pred)
    rows = join_rows(truth.ids, pred_ids, lambda i: DataError(f"prediction table has no row for image {i!r}"))
    rep = evaluate_predictions(truth.y, grades[rows], None if probs is None else probs[rows])
    _write_output(args, json.dumps(asdict(rep), indent=1, sort_keys=True) + "\n")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    if args.list:
        if args.reference_id or args.input:
            raise InvalidConfig("report --list takes no --reference-id or --input")
        _write_output(args, "\n".join(reference_ids()) + "\n")
        return 0
    if not args.reference_id:
        raise InvalidConfig("report needs --reference-id (or --list)")
    subject = load_report_json(args.input) if args.input else get_reference(args.reference_id)
    comparison = compare_to_reference(subject, args.reference_id)
    _write_output(args, comparison.render() + "\n")
    return 0


# --- parser ---------------------------------------------------------------------


@functools.cache  # one parser per process: building it costs about 2 ms
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kgdg",
        description="Neuro-symbolic DR grading: synthetic data, rule grading, "
        "symbolic training, confidence fusion, and domain-generalization evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, seed: bool = False, out_required: bool = False) -> None:
        """--out and --quiet, and --seed where the subcommand reads it."""
        if seed:
            p.add_argument("--seed", type=int, default=None,
                           help="seed override (falls back to KGDG_SEED, then config)")
        p.add_argument("--out", default=None, required=out_required,
                       help="output path ('-' for stdout)")
        p.add_argument("--quiet", action="store_true", help="suppress diagnostics")

    p = sub.add_parser("synth", help="generate a synthetic multi-domain dataset")
    p.add_argument("--profile", required=True, choices=SHIFT_PROFILES)
    p.add_argument("--samples", type=int, default=2000, help="examples per domain")
    common(p, seed=True, out_required=True)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("grade", help="apply the clinical rule ladder")
    p.add_argument("--features", default=None, help="features.csv to grade")
    p.add_argument("--detections", default=None, help="detections.json to aggregate and grade")
    p.add_argument("--min-score", type=float, default=None, dest="min_score",
                   help=f"with --detections: drop findings scored below this (default {MIN_SCORE})")
    common(p)
    p.set_defaults(func=_cmd_grade)

    p = sub.add_parser("train", help="fit a symbolic learner on a feature table")
    p.add_argument("--features", required=True)
    p.add_argument("--model", default=None, choices=MODEL_KINDS, help="default: the config's model_kind, else gbm")
    p.add_argument("--feature-set", default=None, dest="feature_set", choices=FEATURE_SETS)
    p.add_argument("--config", default=None, help="config JSON: its symbolic and split sections")
    common(p, seed=True, out_required=True)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("fuse", help="fuse two probability tables")
    p.add_argument("--strategy", required=True, choices=[s.value for s in FusionStrategy])
    p.add_argument("--dl", required=True, help="deep-branch probs.csv")
    p.add_argument("--kd", required=True, help="knowledge-branch probs.csv")
    p.add_argument("--alpha-dl", type=float, default=None, dest="alpha_dl")
    p.add_argument("--alpha-kl", type=float, default=None, dest="alpha_kl")
    common(p)
    p.set_defaults(func=_cmd_fuse)

    p = sub.add_parser("eval", help="run an SDG or MDG experiment")
    p.add_argument("--mode", default=None, choices=("sdg", "mdg"))
    p.add_argument("--format", default="markdown", choices=("markdown", "csv", "json"))
    p.add_argument("--config", required=True, help="experiment config JSON")
    common(p, seed=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("metrics", help="score predictions or detection matches")
    p.add_argument("--truth", default=None, help="features.csv with true grades")
    p.add_argument("--pred", default=None, help="prediction csv (image_id,grade[,p0..p4])")
    p.add_argument("--pred-detections", default=None, dest="pred_detections")
    p.add_argument("--truth-detections", default=None, dest="truth_detections")
    p.add_argument("--iou-threshold", type=float, default=None, dest="iou_threshold", help="default 0.5")
    common(p)
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser("report", help="inspect or diff embedded reference tables")
    p.add_argument("--reference-id", default=None, dest="reference_id")
    p.add_argument("--input", default=None, help="report JSON produced by eval --format json")
    p.add_argument("--list", action="store_true", help="list reference table ids")
    common(p)
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except KgdgError as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error[IO_ERROR]: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # pragma: no cover - defensive
        print(f"error[INTERNAL]: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
